"""Self-hosted telemetry: spans and metrics as first-class relations.

EdiFlow's thesis is that state worth reacting to belongs in the DBMS,
where generic mechanisms -- triggers, propagation policies, incremental
views, visualization bindings -- apply to it uniformly.  The tracing
layer (PR 3) violated that thesis for its own data: spans lived in a
volatile ring buffer that dies with the process and cannot be queried,
joined, or watched.  :class:`TelemetrySink` closes the loop by draining
the :class:`~repro.obs.trace.Tracer` buffer and the
:class:`~repro.obs.metrics.MetricsRegistry` into *system tables* of a
dedicated telemetry :class:`~repro.db.database.Database`:

``sys_spans``
    one row per finished span -- plus, optionally, one row per
    workflow process/activity timeline entry
    (:meth:`TelemetrySink.ingest_process_monitor`), so obs spans and
    ProcessMonitor traces share a single queryable schema.  Workflow
    rows carry ``kind='workflow'`` and *logical-clock* start/end
    values (the engine stamps activities with the database clock, not
    wall time); span rows carry ``kind='span'`` and
    ``perf_counter_ns`` values.
``sys_span_events``
    point annotations attached via :meth:`Span.add_event` (EXPLAIN
    ANALYZE operator counters, retry firings, forced flushes).
``sys_metrics``
    one row per (instrument, statistic) per collection generation
    (``snap``): counters and gauges as ``stat='value'``, histograms as
    ``count``/``sum``/``p50``/``p95``/``p99``.
``sys_profiles`` / ``sys_stacks``
    the continuous sampling profiler's aggregates
    (:mod:`repro.obs.profiler`): per-(thread, span) self-time rows and
    the collapsed stacks behind them, one delta batch per collection
    plus lifetime-keyframe rows every
    :attr:`TelemetrySink.metric_keyframe_every` collections.

Every row carries the collection generation that wrote it in ``snap``,
and each table is a :class:`~repro.obs.systable.SysTable` bounded to its
newest generations: :data:`RETENTION` collections for metrics, profiles
and stacks, ``span_retention`` for spans and their events.  Workflow
timeline rows have no generation and are never aged.

The system tables are watched by the sink's own
:class:`~repro.sync.notification.NotificationCenter`, each edge under a
:class:`~repro.db.policy.Threshold` policy, so dashboards attach
through the *normal* sync machinery (SyncServer/SyncClient, mirrors,
view registry) and receive batched NOTIFYB frames per flush cycle.

Recursion guard
---------------
The sink writes tracer output into a database whose write path is
itself instrumented; unguarded, every flush would create spans that the
next flush persists, forever.  Two independent layers prevent that:

1. every sink operation runs inside :meth:`Tracer.suppress`, so spans
   created *on the sink's thread* (db.write, db.trigger, db.flush,
   sync.notify on the telemetry database) are no-op ``NullSpan``\\ s and
   never reach the ring buffer;
2. :meth:`collect` drops any drained span tagged with a system table
   (:func:`~repro.obs.systable.is_system_table`; belt and braces: a
   dashboard client refreshing its telemetry mirrors on another,
   unsuppressed thread may legitimately create such spans; they are
   counted in ``guard_dropped`` and never persisted, so the observer
   still never observes itself).

The policy (:data:`DEFAULT_POLICY`) deliberately has ``max_delay_ms=None``:
with no time bound there is no background flusher thread inside the
notification center, so *every* telemetry flush happens on a thread the
sink has suppressed.  The sink's own cadence (:meth:`start` /
:meth:`collect`) provides the time bound instead.
"""

from __future__ import annotations

import json
import threading
from typing import Any, Optional

from ..db.database import Database
from ..db.expression import col
from ..db.policy import Threshold
from ..db.schema import Column
from ..db.types import FLOAT, INTEGER, TEXT
from ..sync.notification import NotificationCenter
from .runtime import OBS, ObsRuntime
from .systable import SysTable, is_system_table
from .trace import Span

__all__ = [
    "SYS_METRICS",
    "SYS_PROFILES",
    "SYS_SPANS",
    "SYS_SPAN_EVENTS",
    "SYS_STACKS",
    "SYSTEM_TABLES",
    "TelemetrySink",
]

SYS_SPANS = "sys_spans"
SYS_SPAN_EVENTS = "sys_span_events"
SYS_METRICS = "sys_metrics"
SYS_PROFILES = "sys_profiles"
SYS_STACKS = "sys_stacks"

#: table -> (its kind in :meth:`TelemetrySink.collect` /
#: :meth:`~TelemetrySink.counters`, columns, hash indexes), in write
#: order.  ``snap`` is every table's generation column; it is nullable
#: where workflow timeline rows, which no collection wrote, share the
#: table.
SCHEMAS: dict[str, tuple[str, list[Column], list[tuple[str, tuple[str, ...]]]]] = {
    SYS_SPANS: (
        "spans",
        [
            Column("snap", INTEGER),
            Column("span_id", INTEGER, nullable=False),
            Column("trace_id", INTEGER, nullable=False),
            Column("parent_id", INTEGER),
            Column("name", TEXT, nullable=False),
            Column("kind", TEXT, nullable=False),
            Column("start_ns", INTEGER),
            Column("end_ns", INTEGER),
            Column("duration_ms", FLOAT),
            Column("thread", TEXT),
            Column("tags", TEXT),
        ],
        [
            ("ix_sys_spans_trace", ("trace_id",)),
            ("ix_sys_spans_span", ("span_id",)),
        ],
    ),
    SYS_SPAN_EVENTS: (
        "events",
        [
            Column("snap", INTEGER),
            Column("trace_id", INTEGER, nullable=False),
            Column("span_id", INTEGER, nullable=False),
            Column("seq", INTEGER, nullable=False),
            Column("ts_ns", INTEGER),
            Column("name", TEXT, nullable=False),
            Column("attrs", TEXT),
        ],
        [("ix_sys_span_events_span", ("span_id",))],
    ),
    SYS_METRICS: (
        "metrics",
        [
            Column("snap", INTEGER, nullable=False),
            Column("ts", INTEGER, nullable=False),
            Column("kind", TEXT, nullable=False),
            Column("name", TEXT, nullable=False),
            Column("labels", TEXT, nullable=False),
            Column("stat", TEXT, nullable=False),
            Column("value", FLOAT),
        ],
        [],
    ),
    SYS_PROFILES: (
        "profiles",
        [
            Column("snap", INTEGER, nullable=False),
            Column("ts", INTEGER, nullable=False),
            # 'delta' = samples since the previous collection;
            # 'total' = lifetime keyframe (every
            # metric_keyframe_every-th collection).
            Column("kind", TEXT, nullable=False),
            Column("thread", TEXT, nullable=False),
            Column("span_name", TEXT),
            Column("samples", INTEGER, nullable=False),
            Column("self_ms", FLOAT, nullable=False),
        ],
        [],
    ),
    SYS_STACKS: (
        "stacks",
        [
            Column("snap", INTEGER, nullable=False),
            Column("ts", INTEGER, nullable=False),
            Column("thread", TEXT, nullable=False),
            Column("span_name", TEXT),
            Column("stack", TEXT, nullable=False),
            Column("samples", INTEGER, nullable=False),
            Column("self_ms", FLOAT, nullable=False),
        ],
        [],
    ),
}

#: The tables the sink writes and watches.
SYSTEM_TABLES = tuple(SCHEMAS)

#: Collection generations of metric, profile and stack rows kept.
RETENTION = 16

#: Flush policy of every system table: pure count batching, no timer
#: thread (see the module docstring for why the time bound lives in the
#: sink, not here).
DEFAULT_POLICY = Threshold(max_changes=256, max_delay_ms=None)


def _json_text(mapping: dict[str, Any]) -> str:
    return json.dumps(mapping, sort_keys=True, default=str)


class TelemetrySink:
    """Drains tracer + metrics into queryable, watchable system tables.

    Parameters
    ----------
    runtime:
        The :class:`ObsRuntime` to drain (defaults to the process-wide
        :data:`OBS` singleton).
    database:
        Where the system tables live.  Defaults to a fresh dedicated
        ``Database("telemetry")`` -- keeping telemetry out of the
        workload database means sink writes never contend with workload
        triggers or views.  A database that already holds the tables (a
        reopened, snapshot-loaded or recovered one) is continued:
        collection generations number on from the newest stored.
    span_sample:
        Head-sampling rate in (0, 1]: persist roughly this fraction of
        drained spans (default 1.0 = everything).  Sampling is
        deterministic -- every Nth drained span is kept, counted across
        collections -- so runs are reproducible and the sampled set is
        unbiased across span names.  Use it when the sink must ride
        along with a hot workload; persisting every span costs about as
        much as the traced operation itself on micro-operation
        workloads.
    span_retention:
        Keep span rows (and their events) from at most this many recent
        collections (default ``None`` = unbounded), so the system tables
        stay bounded on long-running sinks.
    """

    def __init__(
        self,
        runtime: Optional[ObsRuntime] = None,
        database: Optional[Database] = None,
        span_sample: float = 1.0,
        span_retention: Optional[int] = None,
    ) -> None:
        if not 0.0 < span_sample <= 1.0:
            raise ValueError(f"span_sample must be in (0, 1], got {span_sample}")
        if span_retention is not None and span_retention < 1:
            raise ValueError(f"span_retention must be >= 1, got {span_retention}")
        self.runtime = runtime if runtime is not None else OBS
        self.database = database if database is not None else Database("telemetry")
        self.tables = {
            name: SysTable(
                self.database,
                name,
                columns,
                gen="snap",
                keep=span_retention if kind in ("spans", "events") else RETENTION,
                indexes=indexes,
            )
            for name, (kind, columns, indexes) in SCHEMAS.items()
        }
        self.center = NotificationCenter(self.database)
        for table in SYSTEM_TABLES:
            self.center.watch(table).set_policy(DEFAULT_POLICY)
        #: Full-registry snapshot (keyframe) every N collections; between
        #: keyframes only changed series are persisted.  Must stay below
        #: RETENTION so every series has a retained row.
        self.metric_keyframe_every = 8
        #: (kind, name, labels-json) -> fingerprint at last persist.
        self._metric_fingerprints: dict[tuple[str, str, str], Any] = {}
        self.span_sample = span_sample
        #: Keep exactly 1 span in N (None = keep everything).
        self._sample_modulus = (
            None if span_sample >= 1.0 else max(1, round(1.0 / span_sample))
        )
        self._sample_counter = 0
        #: The last collection generation issued.  Read from the tables,
        #: then counted here: a collection that stores nothing still
        #: uses up its number (keyframes and retention count them).
        self._snap = max(table.newest() for table in self.tables.values())
        self._lock = threading.Lock()
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()
        # Counters (tests and the dashboard read these via counters()).
        self.collections = 0
        self._stored = {kind: 0 for kind, _columns, _indexes in SCHEMAS.values()}
        self.guard_dropped = 0
        self.sampled_out = 0

    # ------------------------------------------------------------------
    # Row builders
    @staticmethod
    def _span_row(span: Span, snap: int) -> dict[str, Any]:
        return {
            "snap": snap,
            "span_id": span.span_id,
            "trace_id": span.trace_id,
            "parent_id": span.parent_id,
            "name": span.name,
            "kind": "span",
            "start_ns": span.start_ns,
            "end_ns": span.end_ns,
            "duration_ms": span.duration_ms,
            "thread": span.thread_name,
            "tags": _json_text(span.tags),
        }

    @staticmethod
    def _event_rows(span: Span, snap: int) -> list[dict[str, Any]]:
        return [
            {
                "snap": snap,
                "trace_id": span.trace_id,
                "span_id": span.span_id,
                "seq": seq,
                "ts_ns": ts_ns,
                "name": name,
                "attrs": _json_text(attrs),
            }
            for seq, (ts_ns, name, attrs) in enumerate(span.events)
        ]

    def _metric_rows(self, snap: int) -> list[dict[str, Any]]:
        """Rows for this collection: changed series only, between keyframes.

        Every :attr:`metric_keyframe_every`-th collection persists the
        full registry (a *keyframe*); in between, a series is persisted
        only when its fingerprint (count+sum for histograms, value for
        counters/gauges) moved since it was last stored.  Readers take
        the newest row per (name, labels, stat) -- an absent series is
        unchanged, not gone -- and because :data:`RETENTION` exceeds the
        keyframe interval, every live series always has at least one
        retained row.
        """
        ts = self.database.now()
        keyframe = (snap - 1) % self.metric_keyframe_every == 0
        rows: list[dict[str, Any]] = []

        def row(kind: str, inst: Any, labels: str, stat: str, value: Optional[float]) -> None:
            if value is None:
                return
            rows.append(
                {
                    "snap": snap,
                    "ts": ts,
                    "kind": kind,
                    "name": inst.name,
                    "labels": labels,
                    "stat": stat,
                    "value": float(value),
                }
            )

        for kind, inst in self.runtime.metrics.instruments():
            label_map = dict(inst.labels)
            # The metric side of the recursion guard: the sink's own
            # flushes update sync.* series labeled with the system
            # tables; persisting those would make every collection
            # dirty its own next collection.
            if is_system_table(label_map.get("table")):
                continue
            labels = _json_text(label_map)
            if kind in ("counter", "gauge"):
                fingerprint: Any = inst.value
            else:  # histogram
                fingerprint = (inst.count, inst.sum)
            series = (kind, inst.name, labels)
            if not keyframe and self._metric_fingerprints.get(series) == fingerprint:
                continue
            self._metric_fingerprints[series] = fingerprint
            if kind in ("counter", "gauge"):
                row(kind, inst, labels, "value", inst.value)
            else:
                row(kind, inst, labels, "count", float(inst.count))
                row(kind, inst, labels, "sum", inst.sum)
                for stat, value in inst.quantiles().items():
                    row(kind, inst, labels, stat, value)
        return rows

    def _profile_rows(
        self, snap: int
    ) -> tuple[list[dict[str, Any]], list[dict[str, Any]]]:
        """``(sys_profiles rows, sys_stacks rows)`` for this collection.

        Drains the profiler's since-last-collection aggregates: one
        ``sys_stacks`` row per distinct ``(thread, span, stack)`` delta
        and one ``sys_profiles`` ``kind='delta'`` row per
        ``(thread, span)``.  On keyframe collections (the same cadence
        as metric keyframes) the profiler's *lifetime* per-span totals
        are also persisted as ``kind='total'`` rows, so cumulative
        profiles survive delta rows aging past :data:`RETENTION`.  No
        profiler, or an idle one, costs nothing.
        """
        profiler = getattr(self.runtime, "profiler", None)
        if profiler is None:
            return [], []
        drained = profiler.drain()
        if not drained:
            return [], []
        ts = self.database.now()
        stack_rows = [
            {
                "snap": snap,
                "ts": ts,
                "thread": entry["thread"],
                "span_name": entry["span_name"],
                "stack": entry["stack"],
                "samples": entry["samples"],
                "self_ms": entry["self_ms"],
            }
            for entry in drained
        ]
        agg: dict[tuple[str, Optional[str]], list[float]] = {}
        for entry in drained:
            cell = agg.setdefault((entry["thread"], entry["span_name"]), [0, 0.0])
            cell[0] += entry["samples"]
            cell[1] += entry["self_ms"]
        profile_rows = [
            {
                "snap": snap,
                "ts": ts,
                "kind": "delta",
                "thread": thread,
                "span_name": span_name,
                "samples": int(samples),
                "self_ms": self_ms,
            }
            for (thread, span_name), (samples, self_ms) in agg.items()
        ]
        if (snap - 1) % self.metric_keyframe_every == 0:
            totals: dict[tuple[str, Optional[str]], list[float]] = {}
            for entry in profiler.totals():
                cell = totals.setdefault(
                    (entry["thread"], entry["span_name"]), [0, 0.0]
                )
                cell[0] += entry["samples"]
                cell[1] += entry["self_ms"]
            profile_rows.extend(
                {
                    "snap": snap,
                    "ts": ts,
                    "kind": "total",
                    "thread": thread,
                    "span_name": span_name,
                    "samples": int(samples),
                    "self_ms": self_ms,
                }
                for (thread, span_name), (samples, self_ms) in totals.items()
            )
        return profile_rows, stack_rows

    # ------------------------------------------------------------------
    def collect(self) -> dict[str, int]:
        """Drain spans + snapshot metrics into the system tables.

        Runs entirely under the tracer's recursion guard; returns the
        per-kind row counts for this collection.
        """
        with self.runtime.tracer.suppress():
            drained = self.runtime.tracer.drain()
            if self._sample_modulus is not None:
                # Every Nth drained span, counted across collections; the
                # slice keeps the unsampled majority out of any per-span
                # Python work (a hot sink drains thousands per cycle).
                modulus = self._sample_modulus
                offset = (-self._sample_counter - 1) % modulus
                picked = drained[offset::modulus]
                self._sample_counter += len(drained)
                self.sampled_out += len(drained) - len(picked)
            else:
                picked = drained
            spans = [s for s in picked if not is_system_table(s.tags.get("table"))]
            dropped = len(picked) - len(spans)
            with self._lock:
                self._snap += 1
                snap = self._snap
            profile_rows, stack_rows = self._profile_rows(snap)
            batches = {
                SYS_SPANS: [self._span_row(s, snap) for s in spans],
                SYS_SPAN_EVENTS: [
                    row for s in spans for row in self._event_rows(s, snap)
                ],
                SYS_METRICS: self._metric_rows(snap),
                SYS_PROFILES: profile_rows,
                SYS_STACKS: stack_rows,
            }
            stats: dict[str, int] = {}
            for name, rows in batches.items():
                # Every table is written every collection, rows or not:
                # retention counts collections, not the ones with data.
                self.tables[name].write(rows, newest=snap)
                kind = SCHEMAS[name][0]
                self._stored[kind] += len(rows)
                stats[kind] = len(rows)
            self.collections += 1
            self.guard_dropped += dropped
        stats["dropped"] = dropped
        return stats

    def flush(self) -> int:
        """Flush buffered telemetry notifications (one dashboard cycle).

        Under the timerless Threshold policy this is what ends a
        flush cycle: the net per-table deltas are recorded as seq-no
        batches and fanned out (NOTIFYB) to attached dashboards.
        Returns total net operations shipped.
        """
        with self.runtime.tracer.suppress():
            return sum(edge.flush() for edge in self._edges())

    def collect_and_flush(self) -> dict[str, int]:
        """One full cycle: drain + snapshot, then push to dashboards."""
        stats = self.collect()
        stats["net_ops"] = self.flush()
        return stats

    @property
    def flush_cycles(self) -> int:
        """Completed notification flushes (the dashboard's heartbeat)."""
        return sum(edge.flushes for edge in self._edges())

    def _edges(self) -> list[Any]:
        return list(self.center.subscriptions.values())

    def counters(self) -> dict[str, int]:
        """Lifetime sink counters (for tests, examples, and debugging)."""
        return {
            "collections": self.collections,
            **{f"{kind}_stored": rows for kind, rows in self._stored.items()},
            "guard_dropped": self.guard_dropped,
            "sampled_out": self.sampled_out,
        }

    # ------------------------------------------------------------------
    # Workflow timelines share the span schema (kind='workflow').
    #
    # Ids must not collide with tracer span ids (positive, process-local)
    # or with each other (process and activity instance ids come from
    # separate tables), so workflow rows live in the negative id space:
    # processes at -(2*pid + 1), activities at -(2*aid + 2).
    @staticmethod
    def _process_span_id(process_instance_id: int) -> int:
        return -(2 * process_instance_id + 1)

    @staticmethod
    def _activity_span_id(activity_instance_id: int) -> int:
        return -(2 * activity_instance_id + 2)

    def ingest_process_monitor(self, monitor: Any) -> int:
        """Mirror ProcessMonitor timelines into ``sys_spans``.

        One row per process instance (the trace root) and one per
        activity instance (parented to its process).  ``start_ns`` /
        ``end_ns`` hold *logical-clock* values and ``duration_ms`` is
        NULL -- the ``kind='workflow'`` tag tells consumers which clock
        they are looking at.  Re-ingesting is an upsert: a still-running
        activity's row is replaced when its end materializes.  Returns
        the number of rows written.
        """
        with self.runtime.tracer.suppress():
            rows: list[dict[str, Any]] = []
            for trace in monitor.history():
                root_id = self._process_span_id(trace.process_instance_id)
                rows.append(
                    {
                        "span_id": root_id,
                        "trace_id": root_id,
                        "parent_id": None,
                        "name": f"workflow.process:{trace.process_name}",
                        "kind": "workflow",
                        "start_ns": trace.start,
                        "end_ns": trace.end,
                        "duration_ms": None,
                        "thread": "",
                        "tags": _json_text(
                            {
                                "process_instance": trace.process_instance_id,
                                "process": trace.process_name,
                                "status": trace.status,
                            }
                        ),
                    }
                )
                for activity in trace.activities:
                    rows.append(
                        {
                            "span_id": self._activity_span_id(
                                activity.activity_instance_id
                            ),
                            "trace_id": root_id,
                            "parent_id": root_id,
                            "name": f"workflow.activity:{activity.activity_name}",
                            "kind": "workflow",
                            "start_ns": activity.start,
                            "end_ns": activity.end,
                            "duration_ms": None,
                            "thread": "",
                            "tags": _json_text(
                                {
                                    "activity_instance": activity.activity_instance_id,
                                    "process_instance": trace.process_instance_id,
                                    "activity": activity.activity_name,
                                    "status": activity.status,
                                    "user": activity.user,
                                }
                            ),
                        }
                    )
            if not rows:
                return 0
            with self.database.lock:
                self.database.delete(
                    SYS_SPANS,
                    col("span_id").is_in([row["span_id"] for row in rows]),
                )
                self.tables[SYS_SPANS].write(rows)
            self._stored["spans"] += len(rows)
            return len(rows)

    # ------------------------------------------------------------------
    # Background collection
    def start(self, interval: float = 0.25) -> None:
        """Collect + flush every ``interval`` seconds on a daemon thread."""
        with self._lock:
            if self._thread is not None:
                return
            self._stop.clear()
            self._thread = threading.Thread(
                target=self._run, args=(interval,), daemon=True, name="telemetry-sink"
            )
            self._thread.start()

    def _run(self, interval: float) -> None:
        while not self._stop.wait(interval):
            self.collect_and_flush()

    def stop(self) -> None:
        """Stop the background thread after one final cycle."""
        self._stop.set()
        thread = self._thread
        if thread is not None:
            thread.join(timeout=2.0)
        with self._lock:
            self._thread = None
        self.collect_and_flush()

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def close(self) -> None:
        """Stop collection, drop the table triggers and shut the
        notification center down; another sink can take the database."""
        self.stop()
        with self.runtime.tracer.suppress():
            for table in SYSTEM_TABLES:
                self.center.unwatch(table)
            self.center.close()
