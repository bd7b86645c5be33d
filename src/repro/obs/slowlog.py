"""Slow-path attributor: over-budget operations, explained and stacked.

The profiler (:mod:`repro.obs.profiler`) answers "where does time go in
aggregate"; a latency regression usually starts as the opposite question
-- *this one* query took 400ms, why?  :class:`SlowLog` catches any
statement or span that exceeds a latency budget and persists, per
offender, the two pieces of evidence that answer the question:

- the **EXPLAIN ANALYZE operator rows** of the offending SELECT
  (its plan re-executed under row counters by the database, inside the
  tracer's suppression so the re-run never shows up as its own slow
  query);
- the **profile stacks** the sampling profiler attributed to the
  offending span (:meth:`SamplingProfiler.span_profile`), when one is
  running.

Entries land in a ``sys_slowlog`` table -- queryable, watchable,
self-hosted like every other telemetry relation, and a system table
(:func:`repro.obs.systable.is_system_table`), so the sink's recursion
guard drops any span/metric the slowlog's own writes generate.

Two paths feed the log:

1. :meth:`Database.enable_slowlog` installs a :class:`SlowLog` on a
   database; the statement path (``Database.execute_from``) hands it
   every traced statement once its ``db.execute`` span has closed, and
   those over ``budget_ms`` are kept (a SELECT comes with a callable
   that re-runs its plan for operator rows);
2. a tracer finish hook catches *any other* over-budget span
   (``db.flush``, ``ivm.delta_apply``, ...) -- those entries carry
   profile stacks but no operator rows.

Lock discipline: finish hooks run on whatever thread closed the span,
possibly while that thread holds subsystem locks.  Persisting from there
could invert lock orders, so a hook entry is written immediately only
when the slowlog database's lock is free (non-blocking acquire);
otherwise it is queued in memory and flushed by the next safe writer
(:meth:`flush`, :meth:`entries`, or any query-path record).

Noise control: per statement/span name at most ``max_per_statement``
entries are kept (the first offenders; a hot slow query would otherwise
flood the table), and the table itself is a
:class:`~repro.obs.systable.SysTable` bounded at its newest ``capacity``
entries: an entry's ``id`` is its generation, handed out at write time
as one past the newest stored, so a log reopened on a database that
already holds entries numbers on from them.
"""

from __future__ import annotations

import json
import threading
from collections import deque
from typing import Any, Optional

from ..db.schema import Column
from ..db.types import FLOAT, INTEGER, TEXT
from .runtime import OBS, ObsRuntime
from .systable import SysTable, is_system_table
from .trace import Span

__all__ = ["SYS_SLOWLOG", "SlowLog"]

SYS_SLOWLOG = "sys_slowlog"

COLUMNS = [
    Column("id", INTEGER, nullable=False),
    Column("ts", INTEGER, nullable=False),
    Column("kind", TEXT, nullable=False),  # 'query' | 'span'
    Column("name", TEXT, nullable=False),
    Column("duration_ms", FLOAT, nullable=False),
    Column("budget_ms", FLOAT, nullable=False),
    Column("thread", TEXT),
    Column("trace_id", INTEGER),
    Column("span_id", INTEGER),
    Column("operators", TEXT),  # JSON [[label, rows], ...]
    Column("stacks", TEXT),  # JSON {stack: self_ms}
    Column("tags", TEXT),
]

#: Over-budget operations recorded by default.
DEFAULT_BUDGET_MS = 50.0


def _json_text(value: Any) -> str:
    return json.dumps(value, sort_keys=True, default=str)


class SlowLog:
    """Budget watchdog persisting over-budget queries/spans with evidence.

    Parameters
    ----------
    database:
        Where ``sys_slowlog`` lives and (for the query path) where
        offending SELECTs are re-run for operator rows.
    budget_ms:
        Latency budget; anything slower is recorded.
    capacity:
        Max rows kept in ``sys_slowlog`` (oldest evicted).
    max_per_statement:
        Max entries per distinct statement/span name -- the first
        offenders win; later repeats only bump ``suppressed`` counters.
    explain:
        Re-run offending SELECTs under an instrumented plan to capture
        per-operator row counts.  Costs one extra execution of an
        already-slow query; disable on production-sized workloads where
        the stacks alone are enough.
    runtime:
        The observability runtime whose tracer/profiler feed the span
        path (defaults to the process-wide :data:`OBS`).
    """

    def __init__(
        self,
        database: Any,
        budget_ms: float = DEFAULT_BUDGET_MS,
        capacity: int = 256,
        max_per_statement: int = 3,
        explain: bool = True,
        runtime: Optional[ObsRuntime] = None,
    ) -> None:
        if budget_ms <= 0:
            raise ValueError(f"budget_ms must be positive, got {budget_ms}")
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.database = database
        self.budget_ms = float(budget_ms)
        self.capacity = capacity
        self.max_per_statement = max_per_statement
        self.explain = explain
        self.runtime = runtime if runtime is not None else OBS
        self._table = SysTable(
            database, SYS_SLOWLOG, COLUMNS, gen="id", keep=capacity
        )
        self._lock = threading.Lock()
        #: name -> entries recorded (dedup bound).
        self._seen: dict[str, int] = {}
        #: Rows produced on hook threads while the db lock was busy.
        self._pending: deque[dict[str, Any]] = deque()
        # Lifetime counters (tests and dashboards read these).
        self.recorded = 0
        self.suppressed = 0
        self.errors = 0
        self.runtime.tracer.add_finish_hook(self._on_span_finish)

    # ------------------------------------------------------------------
    # Query path (called by the database's statement path after the span closed)
    def maybe_record_query(
        self, sql: str, span: Any, analyze: Optional[Any] = None
    ) -> bool:
        """Record ``sql`` if its statement span blew the budget.

        ``analyze`` -- given for a SELECT -- re-runs the statement's plan
        under row counters and returns its ``(label, rows)`` operator
        pairs.  Returns True when an entry was persisted.
        """
        duration = span.duration_ms
        if duration < self.budget_ms or not self._admit(sql):
            return False
        try:
            with self.runtime.tracer.suppress():
                operators = (
                    [list(pair) for pair in analyze()]
                    if self.explain and analyze is not None
                    else None
                )
                row = self._entry_row(
                    kind="query",
                    name=sql,
                    duration_ms=duration,
                    span=span,
                    operators=operators,
                )
                self._persist([row])
            return True
        except Exception:  # pragma: no cover - never take a query down
            self.errors += 1
            return False

    # ------------------------------------------------------------------
    # Span path (tracer finish hook; runs on the finishing thread)
    def _on_span_finish(self, span: Span) -> None:
        if span.duration_ms < self.budget_ms:
            return
        # db.execute is the query path's job -- it records with the plan.
        if span.name == "db.execute":
            return
        # The observer never observes itself: spans touching system
        # tables are the sink/slowlog doing their own bookkeeping.
        if is_system_table(span.tags.get("table")):
            return
        if not self._admit(span.name):
            return
        try:
            row = self._entry_row(
                kind="span",
                name=span.name,
                duration_ms=span.duration_ms,
                span=span,
            )
            self._persist_or_queue(row)
        except Exception:  # pragma: no cover - hooks must not break tracing
            self.errors += 1

    # ------------------------------------------------------------------
    def _admit(self, name: str) -> bool:
        with self._lock:
            count = self._seen.get(name, 0)
            if count >= self.max_per_statement:
                self.suppressed += 1
                return False
            self._seen[name] = count + 1
            return True

    def _entry_row(
        self,
        kind: str,
        name: str,
        duration_ms: float,
        span: Any,
        operators: Optional[list[list[Any]]] = None,
    ) -> dict[str, Any]:
        profiler = getattr(self.runtime, "profiler", None)
        stacks: Optional[dict[str, float]] = None
        span_id = getattr(span, "span_id", 0)
        if profiler is not None and span_id:
            profile = profiler.span_profile(span_id)
            if profile is not None:
                stacks = {
                    stack: round(ms, 3) for stack, ms in profile["stacks"].items()
                }
        return {
            "ts": self.database.now(),
            "kind": kind,
            "name": name,
            "duration_ms": duration_ms,
            "budget_ms": self.budget_ms,
            "thread": getattr(span, "thread_name", ""),
            "trace_id": getattr(span, "trace_id", 0),
            "span_id": span_id,
            "operators": _json_text(operators) if operators is not None else None,
            "stacks": _json_text(stacks) if stacks is not None else None,
            "tags": _json_text(dict(getattr(span, "tags", {}) or {})),
        }

    # ------------------------------------------------------------------
    # Persistence
    def _persist_or_queue(self, row: dict[str, Any]) -> None:
        """Write now if the db lock is free, else queue for a safe flush.

        Non-blocking: a finish hook must never wait on the database lock
        with unknown locks already held (lock-order inversion).
        """
        if self.database.lock.acquire(blocking=False):
            try:
                self._persist([row])
            finally:
                self.database.lock.release()
        else:
            with self._lock:
                self._pending.append(row)

    def _persist(self, rows: list[dict[str, Any]]) -> None:
        """Number and store ``rows`` (plus any queued backlog)."""
        with self._lock:
            backlog = list(self._pending)
            self._pending.clear()
        batch = backlog + rows
        if not batch:
            return
        with self.database.lock:
            for row_id, row in enumerate(batch, self._table.newest() + 1):
                row["id"] = row_id
            self._table.write(batch)
        self.recorded += len(batch)

    def flush(self) -> int:
        """Persist hook entries queued while the db lock was busy."""
        with self._lock:
            pending = len(self._pending)
        if pending:
            self._persist([])
        return pending

    # ------------------------------------------------------------------
    # Reads
    def entries(self, limit: Optional[int] = None) -> list[dict[str, Any]]:
        """Slowlog rows, newest first (flushes queued entries first)."""
        self.flush()
        with self.runtime.tracer.suppress():
            rows = self.database.query(
                f"SELECT * FROM {SYS_SLOWLOG} ORDER BY id DESC"
                + (f" LIMIT {int(limit)}" if limit is not None else "")
            )
        return rows

    def format_entries(self, limit: int = 10) -> str:
        """Human-readable digest: one offender per block, evidence inline."""
        lines: list[str] = []
        for row in self.entries(limit):
            lines.append(
                f"[{row['kind']}] {row['name']!r} "
                f"{row['duration_ms']:.1f}ms (budget {row['budget_ms']:.0f}ms)"
            )
            if row.get("operators"):
                for label, produced in json.loads(row["operators"]):
                    lines.append(f"    {label} (rows={produced})")
            if row.get("stacks"):
                stacks = json.loads(row["stacks"])
                for stack, ms in sorted(stacks.items(), key=lambda kv: -kv[1]):
                    leaf = stack.rsplit(";", 1)[-1]
                    lines.append(f"    {ms:.1f}ms in {leaf}")
        return "\n".join(lines)

    def counters(self) -> dict[str, int]:
        with self._lock:
            pending = len(self._pending)
        return {
            "recorded": self.recorded,
            "suppressed": self.suppressed,
            "pending": pending,
            "errors": self.errors,
        }

    def reset_dedup(self) -> None:
        """Forget which names already hit ``max_per_statement``."""
        with self._lock:
            self._seen.clear()

    def close(self) -> None:
        """Unhook from the tracer and flush the queue.  Rows remain."""
        self.runtime.tracer.remove_finish_hook(self._on_span_finish)
        self.flush()
