"""Shared pieces of the four workload drivers.

A workload module exposes ``make_inputs(seed, scale)`` and
``run_rep(inputs, tracer, workdir) -> Rep``.  One *repetition* is a fresh
deployment doing a fixed amount of work; everything it measured comes
back in a :class:`Rep` that ``run.py`` reduces to metrics.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field
from typing import Any

from repro.sync import SyncServer

#: Every wait in the drivers is bounded; a wait that runs out is a failed
#: operation, never a hang.
WAIT_TIMEOUT_S = 10.0

#: Windows a repetition's throughput phase is cut into (see ``Rep``).
THROUGHPUT_WINDOWS = 16

#: Duration of one calibration slice when this sandbox's host is quiet.
#: The host's speed wanders by tens of percent within seconds and over
#: minutes (a fixed pure-Python loop timed in 20 s runs: quartiles 36 %
#: apart), so the drivers interleave calibration slices with their
#: operations and every *time* is reported at reference speed: scaled by
#: reference / observed slice duration over the same repetition.
REFERENCE_SLICE_S = 175e-6

#: Series made of timer waits (the 1 ms polling sleeps of ``wait_dirty``
#: and ``RefreshDriver``, the open-loop schedule): never scaled.
TIMER_DRIVEN = frozenset({"late_ms", "wakeup_wait_ms", "notify_to_hook_ms"})

#: The paper's redisplay budget (Section I: 10 frames per second).
DEADLINE_MS = 100.0


@dataclass
class Rep:
    """What one repetition measured."""

    #: Deployment build time (schema, durable open, preload, server,
    #: clients connected and mirrors filled, views registered).
    setup_s: float = 0.0
    #: Tuples the throughput phase propagated.
    tuples: int = 0
    #: Progress marks per phase: (time, tuples propagated so far), one per
    #: completed operation (or group of operations).
    progress: dict[str, list[tuple[float, int]]] = field(default_factory=dict)
    #: Series (and "throughput") that timers set, not the processor, in
    #: this workload: reported as measured, never scaled to reference speed.
    timer_driven: frozenset[str] = frozenset()
    attempted: int = 0
    failed: int = 0
    #: Per-operation samples, by series name (units in the name).
    samples: dict[str, list[float]] = field(default_factory=dict)
    #: Counts: deterministic work counts and the program's own counters.
    counts: dict[str, float] = field(default_factory=dict)
    #: Oracle mismatches; any entry fails every operation of the rep.
    problems: list[str] = field(default_factory=list)
    #: Calibration slice durations interleaved with the operations, and
    #: their total (kept out of the progress marks' clock).
    slices: list[float] = field(default_factory=list)
    calibrating_s: float = 0.0

    def sample(self, series: str, value: float) -> None:
        self.samples.setdefault(series, []).append(value)

    def median(self, series: str) -> float:
        values = self.samples.get(series)
        return statistics.median(values) if values else 0.0

    def count(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def mark(self, tuples_so_far: int, phase: str = "main") -> None:
        self.progress.setdefault(phase, []).append(
            (time.perf_counter() - self.calibrating_s, tuples_so_far)
        )

    @property
    def slowdown(self) -> float:
        """Observed / reference calibration slice: > 1 on a slowed host."""
        if not self.slices:
            return 1.0
        return statistics.median(self.slices) / REFERENCE_SLICE_S

    def scale(self, series: str) -> float:
        """Factor that takes a time of ``series`` to reference speed."""
        if series in TIMER_DRIVEN or series in self.timer_driven:
            return 1.0
        return 1.0 / self.slowdown

    def at_reference(self, series: str) -> float:
        """Median of a time series, at reference speed if processor-bound."""
        return self.median(series) * self.scale(series)

    def rate_at_reference(self, phase: str = "main") -> float:
        if phase == "main" and "throughput" in self.timer_driven:
            return self.tuples_per_s(phase)
        return self.tuples_per_s(phase) * self.slowdown

    def tuples_per_s(self, phase: str = "main") -> float:
        """Median throughput over ~16 consecutive windows of a phase.

        Total / wall is a mean: one scheduling stall of this 2-core
        sandbox moves it by several percent.  The median window is what
        the repetition sustained; stalls stay visible in the p99
        diagnostics.
        """
        marks = self.progress.get(phase, ())
        step = max(1, (len(marks) - 1) // THROUGHPUT_WINDOWS)
        windows = [
            (marks[i + step][1] - marks[i][1]) / (marks[i + step][0] - marks[i][0])
            for i in range(0, len(marks) - step, step)
            if marks[i + step][0] > marks[i][0]
        ]
        return statistics.median(windows) if windows else 0.0


def calibration_slice() -> float:
    """Time one fixed slice of interpreter work (arithmetic, dict stores,
    small allocations) -- about 0.2 ms."""
    started = time.perf_counter()
    total, table = 0, {}
    for i in range(2500):
        table[i & 255] = (i, total)
        total += i * i % 7
    return time.perf_counter() - started


def calibrate(rep: Rep, tracer: Any, slices: int = 2) -> None:
    """Interleave ``slices`` calibration slices with the operations.

    Called by the drivers between operations, outside every timed
    sample; the time spent is kept out of the throughput clock and, in a
    traced run, shows as ``bench.calibrate``.
    """
    with tracer.span("bench.calibrate", "bench"):
        for _ in range(slices):
            spent = calibration_slice()
            rep.slices.append(spent)
            rep.calibrating_s += spent


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile; 0.0 for an empty sample."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


class WireProbe:
    """Stamps the NOTIFY path of the sync clients of one deployment.

    ``hook`` is registered with ``SyncClient.on_notify`` and runs on the
    client's reader thread; the generator calls ``writing`` just before a
    write and ``wrote`` when it returned; ``refresh_entry`` runs when a
    refresh of the table starts.  Gives ``notify_to_hook_ms`` (write
    return -> first hook; 0 when the server delivered inline before the
    write returned) and ``wakeup_wait_ms`` (first unserved hook ->
    refresh entry: the time work waited for whoever drives the refresh).
    """

    def __init__(self, rep: Rep) -> None:
        self.rep = rep
        self._wrote: dict[str, float] = {}
        self._hooked: set[str] = set()
        self._pending: dict[str, float] = {}

    def writing(self, table: str) -> None:
        self._hooked.discard(table)

    def wrote(self, table: str) -> None:
        if table in self._hooked:
            self.rep.sample("notify_to_hook_ms", 0.0)
        else:
            self._wrote[table] = time.perf_counter()

    def hook(self, table: str, _op: str, _seq_no: int) -> None:
        now = time.perf_counter()
        self._pending.setdefault(table, now)
        wrote = self._wrote.pop(table, None)
        if wrote is not None:
            self.rep.sample("notify_to_hook_ms", (now - wrote) * 1e3)
        else:
            self._hooked.add(table)

    def refresh_entry(self, table: str, *_args: Any, **_kwargs: Any) -> None:
        first_hook = self._pending.pop(table, None)
        if first_hook is not None:
            self.rep.sample(
                "wakeup_wait_ms", (time.perf_counter() - first_hook) * 1e3
            )


def traced_server(tracer: Any, db: Any, center: Any, **kwargs: Any) -> Any:
    """A socket ``SyncServer`` whose broadcasts the tracer brackets.

    The server subscribes a bound method to the center and keeps its own
    reference to it, so instead of patching, the ``sync.broadcast`` span
    is opened by a batch listener registered *before* the server's and
    closed by one registered *after* it (listeners fire in registration
    order on the committing thread).
    """
    opened: list[int] = []
    if tracer.enabled:
        center.add_batch_listener(
            lambda _table, _events: opened.append(
                tracer.open("sync.broadcast", "sync")
            )
        )
    server = SyncServer(db, center, use_sockets=True, **kwargs)
    if tracer.enabled:
        center.add_batch_listener(lambda _table, _events: tracer.close(opened.pop()))
    return server


def pull_changed(tracer: Any, mirror: Any, changed: list[tuple[int, str]]) -> list[Any]:
    """Current mirror images of the tids in a ``changes_since`` list, each
    once -- what a display client extracts after a refresh (Fig-8 step 4)."""
    with tracer.span("sync.client.mirror_pull", "sync"):
        fresh, seen = [], set()
        for tid, change in changed:
            if change != "delete" and tid not in seen:
                seen.add(tid)
                row = mirror.get(tid)
                if row is not None:
                    fresh.append(row)
        return fresh


def server_health(rep: Rep, server: Any) -> None:
    """Copy the async plane's saturation counters into ``rep.counts``."""
    health = server.health()
    loop = health["loop"] or {}
    lag = loop.get("lag_ms") or {}
    rep.counts["loop_lag_p99_ms"] = lag.get("p99") or 0.0
    rep.counts["poll_idle_ratio"] = loop.get("poll_idle_ratio", 0.0)
    rep.counts["queue_hiwat_frames"] = health["queues"]["hiwat_frames"]
    rep.counts["evictions"] = health["evictions"]


def wal_stats(rep: Rep, manager: Any, since: dict[str, int]) -> None:
    """Copy the WAL counters' growth since the ``manager.stats()`` snapshot
    ``since`` (taken when the measured phase began)."""
    manager.wal.drain()  # the log-writer thread counts records as it writes
    stats = manager.stats()
    for key in ("wal_appends", "wal_bytes", "wal_syncs", "commits"):
        rep.counts[key] = stats[key] - since[key]
