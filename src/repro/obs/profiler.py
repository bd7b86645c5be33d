"""Continuous wall-clock sampling profiler, span-aware and zero-dependency.

Spans (PR 3) say how long ``db.execute`` took; they cannot say *where*
inside it the time went, and adding more spans to find out would mean
instrumenting every function by hand.  A statistical profiler closes
that gap: a daemon thread wakes ``hz`` times a second (default 99 -- the
classic off-by-one that avoids lockstep with 10ms/100ms periodic work),
snapshots every thread's Python stack via ``sys._current_frames()``, and
aggregates the stacks in collapsed form (``frame;frame;frame``, the
Brendan Gregg flamegraph interchange format).

Two things make this profiler fit the rest of the observability layer
instead of being a bolt-on:

**Span attribution.**  The :class:`~repro.obs.trace.Tracer` keeps a
cross-thread registry of each thread's context stack, so every sample is
attributed to the innermost *open* span on the sampled thread.  The
aggregates therefore answer "how much self-time did ``db.flush``
accumulate, and on which stacks" -- and when a sampled span finishes, a
tracer finish-hook stamps ``self_time_ms`` / ``profile_samples`` into
its tags, so the existing ``sys_spans`` pipeline carries profile data
with zero schema changes.

**Honest accounting.**  Each sample credits the *measured* elapsed time
since the previous sample (not the nominal ``1/hz``), so the per-thread
totals track wall time even when the sampler thread itself is scheduled
late.  A busy thread's attributed time converges on its true wall time;
the acceptance bar (>=90% of a busy run attributed) falls out of this.

Recursion guard: the sampler never samples its own thread, nor any
thread currently inside :meth:`Tracer.suppress` (the telemetry sink's
do-not-observe marker) -- the observer does not observe itself.

Everything is bounded: at most ``max_stacks`` distinct collapsed stacks
are kept (the tail aggregates under ``<overflow>``), stack walks stop at
``max_depth`` frames, and per-span stack breakdowns are an LRU of
``span_table_size`` recent span ids for the slow-path attributor.
"""

from __future__ import annotations

import sys
import threading
import time
from collections import OrderedDict
from typing import Any, Iterable, Optional

from .trace import Span, Tracer

__all__ = ["DEFAULT_HZ", "SamplingProfiler", "collapse_frames", "iter_collapsed"]

#: Default sampling rate.  99 Hz, not 100: sampling at a divisor of
#: common timer periods would alias against periodic work and
#: systematically over- or under-sample it.
DEFAULT_HZ = 99

#: Catch-all frame for stacks evicted by the ``max_stacks`` bound.
OVERFLOW_STACK = "<overflow>"


def collapse_frames(frame: Any, max_depth: int = 64) -> str:
    """Render a frame chain as a collapsed stack, root first.

    Frames are ``filestem:qualname`` -- short enough to read in a
    flamegraph, unique enough to find in the repo.  Chains deeper than
    ``max_depth`` keep the *leaf-most* frames (the interesting ones) and
    mark the elision with a ``<deep>`` root.
    """
    parts: list[str] = []
    depth = 0
    while frame is not None and depth < max_depth:
        code = frame.f_code
        stem = code.co_filename.rsplit("/", 1)[-1]
        if stem.endswith(".py"):
            stem = stem[:-3]
        name = getattr(code, "co_qualname", None) or code.co_name
        parts.append(f"{stem}:{name}")
        frame = frame.f_back
        depth += 1
    if frame is not None:
        parts.append("<deep>")
    parts.reverse()
    return ";".join(parts)


class SamplingProfiler:
    """Samples every thread's stack at ``hz``; aggregates collapsed stacks.

    Parameters
    ----------
    tracer:
        Span source for attribution and the suppression guard.  ``None``
        degrades gracefully to a plain (span-blind) wall profiler.
    hz:
        Target sampling rate.  Accounting uses measured inter-sample
        deltas, so a late sampler loses resolution, not time.
    max_stacks:
        Bound on distinct ``(thread, span, stack)`` aggregation keys;
        beyond it new stacks collapse into ``<overflow>`` per thread.
    max_depth:
        Frame-walk depth bound per sample.
    span_table_size:
        LRU size of the per-span-id sample tables kept for finished-span
        tagging and the slow-path attributor.
    """

    def __init__(
        self,
        tracer: Optional[Tracer] = None,
        hz: float = DEFAULT_HZ,
        max_stacks: int = 4096,
        max_depth: int = 64,
        span_table_size: int = 1024,
    ) -> None:
        if hz <= 0:
            raise ValueError(f"hz must be positive, got {hz}")
        self.tracer = tracer
        self.hz = float(hz)
        self.max_stacks = max_stacks
        self.max_depth = max_depth
        self.span_table_size = span_table_size
        self._lock = threading.Lock()
        #: (thread_name, span_name|None, stack) -> [samples, ns] since
        #: the last drain.
        self._stacks: dict[tuple[str, Optional[str], str], list[float]] = {}
        #: Same keys, lifetime totals (merged from _stacks at drain time)
        #: -- flamegraphs read deltas + totals so a draining sink never
        #: erases history.
        self._totals: dict[tuple[str, Optional[str], str], list[float]] = {}
        #: span_id -> [samples, ns, {stack: ns}] for recently sampled spans.
        self._span_tables: OrderedDict[int, list[Any]] = OrderedDict()
        self._excluded: set[int] = set()
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()
        # Lifetime counters (tests and the sink read these).
        self.samples_total = 0
        self.attributed_ns = 0
        self.started_ns: Optional[int] = None
        self.errors = 0

    # ------------------------------------------------------------------
    # Lifecycle
    def start(self) -> "SamplingProfiler":
        """Start the sampler thread.  Idempotent."""
        with self._lock:
            if self._thread is not None and self._thread.is_alive():
                return self
            self._stop.clear()
            self._thread = threading.Thread(
                target=self._run, daemon=True, name="profiler-sampler"
            )
            if self.started_ns is None:
                self.started_ns = time.perf_counter_ns()
            self._thread.start()
        return self

    def stop(self) -> None:
        """Stop sampling.  Idempotent; aggregates are kept."""
        self._stop.set()
        thread = self._thread
        if thread is not None and thread is not threading.current_thread():
            thread.join(timeout=2.0)
        with self._lock:
            self._thread = None

    @property
    def running(self) -> bool:
        thread = self._thread
        return thread is not None and thread.is_alive()

    def exclude_thread(self, ident: int) -> None:
        """Never sample the thread with this ident (beyond the built-in
        guards: the sampler itself and tracer-suppressed threads)."""
        with self._lock:
            self._excluded.add(ident)

    # ------------------------------------------------------------------
    # Sampler
    def _run(self) -> None:
        interval = 1.0 / self.hz
        last_ns = time.perf_counter_ns()
        while not self._stop.wait(interval):
            try:
                last_ns = self._sample_once(last_ns)
            except Exception:  # pragma: no cover - never take the app down
                self.errors += 1

    def _sample_once(self, last_ns: int) -> int:
        now_ns = time.perf_counter_ns()
        dt = now_ns - last_ns
        frames = sys._current_frames()
        own = threading.get_ident()
        if self.tracer is not None:
            suppressed = self.tracer.suppressed_idents()
            active = self.tracer.active_spans()
            self.tracer.prune_thread_registry(frames.keys())
        else:
            suppressed = set()
            active = {}
        names = {t.ident: t.name for t in threading.enumerate()}
        with self._lock:
            for ident, frame in frames.items():
                if ident == own or ident in suppressed or ident in self._excluded:
                    continue
                stack = collapse_frames(frame, self.max_depth)
                span = active.get(ident)
                span_name = span.name if span is not None else None
                key = (names.get(ident, f"thread-{ident}"), span_name, stack)
                cell = self._stacks.get(key)
                if cell is None:
                    if len(self._stacks) >= self.max_stacks:
                        key = (key[0], span_name, OVERFLOW_STACK)
                        cell = self._stacks.get(key)
                    if cell is None:
                        cell = self._stacks[key] = [0, 0]
                cell[0] += 1
                cell[1] += dt
                self.samples_total += 1
                self.attributed_ns += dt
                if span is not None:
                    self._credit_span(span.span_id, stack, dt)
        # frames holds real frame objects; drop the reference eagerly.
        del frames
        return now_ns

    def _credit_span(self, span_id: int, stack: str, dt: int) -> None:
        # Caller holds self._lock.
        table = self._span_tables.get(span_id)
        if table is None:
            table = self._span_tables[span_id] = [0, 0, {}]
            while len(self._span_tables) > self.span_table_size:
                self._span_tables.popitem(last=False)
        else:
            self._span_tables.move_to_end(span_id)
        table[0] += 1
        table[1] += dt
        stacks = table[2]
        if stack in stacks or len(stacks) < 8:
            stacks[stack] = stacks.get(stack, 0) + dt
        else:
            stacks["<other>"] = stacks.get("<other>", 0) + dt

    # ------------------------------------------------------------------
    # Finished-span tagging (wired by ObsRuntime via a tracer finish hook)
    def on_span_finish(self, span: Span) -> None:
        """Stamp profile evidence onto a span the sampler saw."""
        with self._lock:
            table = self._span_tables.get(span.span_id)
            if table is None:
                return
            samples, ns = table[0], table[1]
        span.tags["profile_samples"] = samples
        span.tags["self_time_ms"] = round(ns / 1e6, 3)

    def span_profile(self, span_id: int) -> Optional[dict[str, Any]]:
        """Sample table for one span id (the slowlog's evidence source)."""
        with self._lock:
            table = self._span_tables.get(span_id)
            if table is None:
                return None
            return {
                "samples": table[0],
                "self_ms": table[1] / 1e6,
                "stacks": {s: ns / 1e6 for s, ns in table[2].items()},
            }

    # ------------------------------------------------------------------
    # Aggregate reads
    def drain(self) -> list[dict[str, Any]]:
        """Snapshot-and-reset the since-last-drain aggregates.

        Returns one dict per ``(thread, span, stack)`` key sampled since
        the previous drain; the drained counts are merged into the
        lifetime totals so :meth:`flamegraph` keeps full history.  This
        is the telemetry sink's read path for ``sys_stacks``.
        """
        with self._lock:
            drained = self._stacks
            self._stacks = {}
            for key, (samples, ns) in drained.items():
                cell = self._totals.get(key)
                if cell is None:
                    if len(self._totals) >= self.max_stacks:
                        key = (key[0], key[1], OVERFLOW_STACK)
                        cell = self._totals.get(key)
                    if cell is None:
                        cell = self._totals[key] = [0, 0]
                cell[0] += samples
                cell[1] += ns
        return [
            {
                "thread": thread,
                "span_name": span_name,
                "stack": stack,
                "samples": samples,
                "self_ms": ns / 1e6,
            }
            for (thread, span_name, stack), (samples, ns) in drained.items()
        ]

    def totals(self) -> list[dict[str, Any]]:
        """Lifetime aggregates in the same row shape as :meth:`drain`.

        Unlike :meth:`drain` this never resets anything; the telemetry
        sink persists these as keyframe rows so a reader can reconstruct
        cumulative profiles after delta rows age out of retention.
        """
        return [
            {
                "thread": thread,
                "span_name": span_name,
                "stack": stack,
                "samples": int(samples),
                "self_ms": ns / 1e6,
            }
            for (thread, span_name, stack), (samples, ns) in self._merged().items()
        ]

    def _merged(self) -> dict[tuple[str, Optional[str], str], list[float]]:
        with self._lock:
            merged = {k: list(v) for k, v in self._totals.items()}
            for key, (samples, ns) in self._stacks.items():
                cell = merged.setdefault(key, [0, 0])
                cell[0] += samples
                cell[1] += ns
        return merged

    def flamegraph(self, weights: str = "samples") -> str:
        """Lifetime aggregates as Brendan-Gregg collapsed-stack text.

        One line per distinct stack: ``thread;span:<name>;frames... N``,
        ready for ``flamegraph.pl`` / speedscope / inferno.  ``weights``
        picks the count column: ``"samples"`` (classic) or ``"ms"``
        (integer milliseconds of attributed wall time).
        """
        if weights not in ("samples", "ms"):
            raise ValueError(f"weights must be 'samples' or 'ms', got {weights!r}")
        lines = []
        merged = sorted(
            self._merged().items(), key=lambda kv: (kv[0][0], kv[0][1] or "", kv[0][2])
        )
        for (thread, span_name, stack), (samples, ns) in merged:
            frames = [thread]
            if span_name is not None:
                frames.append(f"span:{span_name}")
            if stack:
                frames.append(stack)
            weight = samples if weights == "samples" else max(1, round(ns / 1e6))
            lines.append(f"{';'.join(frames)} {weight:g}")
        return "\n".join(lines)

    def hottest_spans(self, limit: int = 10) -> list[dict[str, Any]]:
        """Span names by attributed self-time, hottest first."""
        agg: dict[str, list[float]] = {}
        for (_, span_name, _), (samples, ns) in self._merged().items():
            if span_name is None:
                continue
            cell = agg.setdefault(span_name, [0, 0])
            cell[0] += samples
            cell[1] += ns
        ranked = sorted(agg.items(), key=lambda kv: -kv[1][1])[:limit]
        return [
            {"span_name": name, "samples": int(samples), "self_ms": ns / 1e6}
            for name, (samples, ns) in ranked
        ]

    def thread_totals(self) -> dict[str, float]:
        """Attributed wall milliseconds per thread name (lifetime)."""
        out: dict[str, float] = {}
        for (thread, _, _), (_, ns) in self._merged().items():
            out[thread] = out.get(thread, 0.0) + ns / 1e6
        return out

    def stats(self) -> dict[str, Any]:
        with self._lock:
            distinct = len(self._totals) + len(self._stacks)
        wall_ms = (
            (time.perf_counter_ns() - self.started_ns) / 1e6
            if self.started_ns is not None
            else 0.0
        )
        return {
            "running": self.running,
            "hz": self.hz,
            "samples": self.samples_total,
            "attributed_ms": self.attributed_ns / 1e6,
            "wall_ms": wall_ms,
            "distinct_stacks": distinct,
            "errors": self.errors,
        }

    def reset(self) -> None:
        """Drop every aggregate (the sampler, if running, keeps going)."""
        with self._lock:
            self._stacks.clear()
            self._totals.clear()
            self._span_tables.clear()
            self.samples_total = 0
            self.attributed_ns = 0
            self.started_ns = (
                time.perf_counter_ns() if self.running else None
            )


def iter_collapsed(text: str) -> Iterable[tuple[list[str], int]]:
    """Parse collapsed-stack text back into ``(frames, count)`` pairs.

    The inverse of :meth:`SamplingProfiler.flamegraph`; the dashboard's
    icicle layout and tests use it rather than re-splitting by hand.
    """
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        stack, _, count = line.rpartition(" ")
        try:
            weight = int(float(count))
        except ValueError:
            continue
        yield stack.split(";"), weight
