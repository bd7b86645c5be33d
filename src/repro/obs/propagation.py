"""End-to-end propagation traces: Figure 8 on a live run.

The paper's Figure 8 decomposes one insert into pipeline steps measured
by a dedicated benchmark.  With the tracer threaded through every layer,
the same breakdown falls out of a *live* system: a single trace follows
one table update from :meth:`Database.insert_many` through the trigger
cascade, the notification protocol, the mirror refresh on the client,
the IVM delta handlers, and the layout/display work -- and
:func:`propagation_report` reassembles it into the six-stage table.

Stage mapping (span name -> Figure 8 step):

========================  =======================================
``db.write``              writing the batch into R_D (the stimulus)
``db.trigger``            statement-level trigger dispatch
``sync.notify``           building Notification rows + fan-out
                          ("parsing the message" steps 1/3)
``sync.mirror_refresh``   pulling changed rows into R_M (step 8)
``ivm.delta_apply``       delta handlers on dependent views
``vis.layout``/``vis.display.apply``  layout + display insertion
                          ("inserting new nodes into the display")
========================  =======================================

``db.write`` and ``db.trigger`` report *self time* (their children are
separate stages nested inside them); the later stages report full span
durations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from .systable import is_system_table
from .trace import Span, Tracer

__all__ = ["PropagationReport", "propagation_report", "STAGES"]

#: Pipeline order of the six stages.
STAGES = (
    "db_write",
    "trigger",
    "notify",
    "mirror_refresh",
    "delta_handler",
    "layout",
)

#: Span names contributing to each stage.
STAGE_SPANS: dict[str, tuple[str, ...]] = {
    "db_write": ("db.write",),
    "trigger": ("db.trigger",),
    "notify": ("sync.notify",),
    "mirror_refresh": ("sync.mirror_refresh",),
    "delta_handler": ("ivm.delta_apply",),
    "layout": ("vis.layout", "vis.display.apply"),
}

#: Stages whose children are *other* stages: report exclusive time.
_SELF_TIME_STAGES = frozenset({"db_write", "trigger"})


@dataclass
class PropagationReport:
    """One table update's journey through the pipeline."""

    trace_id: int
    stages: dict[str, float]  # stage -> milliseconds
    spans: list[Span] = field(default_factory=list)
    table: Optional[str] = None

    @property
    def total_ms(self) -> float:
        return sum(self.stages.values())

    def missing_stages(self) -> list[str]:
        """Pipeline stages with no recorded span in this trace."""
        return [s for s in STAGES if s not in self.stages]

    def as_dict(self) -> dict[str, Any]:
        return {
            "trace_id": self.trace_id,
            "table": self.table,
            "total_ms": self.total_ms,
            "stages": dict(self.stages),
            "missing": self.missing_stages(),
            "spans": [span.to_dict() for span in self.spans],
        }

    # ------------------------------------------------------------------
    def format(self) -> str:
        """Stage table plus the span tree, for logs and REPLs."""
        lines = [
            f"propagation trace {self.trace_id}"
            + (f" on table {self.table!r}" if self.table else "")
        ]
        for stage in STAGES:
            value = self.stages.get(stage)
            cell = f"{value:10.3f} ms" if value is not None else "   (absent)"
            lines.append(f"  {stage:<16}{cell}")
        lines.append(f"  {'total':<16}{self.total_ms:10.3f} ms")
        lines.append("span tree:")
        lines.extend(self._tree_lines())
        return "\n".join(lines)

    def _tree_lines(self) -> list[str]:
        by_parent: dict[Optional[int], list[Span]] = {}
        ids = {span.span_id for span in self.spans}
        for span in self.spans:
            parent = span.parent_id if span.parent_id in ids else None
            by_parent.setdefault(parent, []).append(span)
        for children in by_parent.values():
            children.sort(key=lambda s: s.start_ns)
        lines: list[str] = []

        def walk(parent: Optional[int], depth: int) -> None:
            for span in by_parent.get(parent, ()):  # pragma: no branch
                tag_bits = ", ".join(
                    f"{k}={v}" for k, v in sorted(span.tags.items())
                )
                lines.append(
                    "  " * (depth + 1)
                    + f"{span.name} [{span.duration_ms:.3f} ms]"
                    + (f" ({tag_bits})" if tag_bits else "")
                )
                walk(span.span_id, depth + 1)

        walk(None, 0)
        return lines


# ---------------------------------------------------------------------------


def _self_time_ms(span: Span, trace_spans: list[Span]) -> float:
    child_ms = sum(
        other.duration_ms
        for other in trace_spans
        if other.parent_id == span.span_id
    )
    return max(span.duration_ms - child_ms, 0.0)


def _has_ancestor_named(
    span: Span, names: frozenset, by_id: dict[int, Span]
) -> bool:
    parent_id = span.parent_id
    while parent_id is not None:
        parent = by_id.get(parent_id)
        if parent is None:
            return False
        if parent.name in names:
            return True
        parent_id = parent.parent_id
    return False


#: A ``db.write`` under any of these belongs to that enclosing stage, not
#: to the stimulus: trigger-cascade writes and notification bookkeeping.
_NON_STIMULUS_ANCESTORS = frozenset({"db.write", "db.trigger", "sync.notify"})


def _stimulus_writes(spans: list[Span]) -> list[Span]:
    """The write(s) that started the propagation.

    Programmatic mutations root the trace at ``db.write``; SQL statements
    root it at ``db.execute`` with the write nested one level down.  Both
    count -- what doesn't is any write spawned *by* the pipeline itself.
    """
    by_id = {s.span_id: s for s in spans}
    return [
        s
        for s in spans
        if s.name == "db.write"
        and not _has_ancestor_named(s, _NON_STIMULUS_ANCESTORS, by_id)
    ]


def propagation_report(
    tracer: Optional[Tracer] = None, trace_id: Optional[int] = None
) -> PropagationReport:
    """Assemble the latest (or a specific) propagation trace.

    Picks the most recent trace rooted in a ``db.write`` span, preferring
    traces that made it all the way to a mirror refresh.  Raises
    :class:`LookupError` when the ring buffer holds no such trace --
    enable observability (``repro.obs.enable()``) before the write.
    """
    if tracer is None:
        from .runtime import OBS

        tracer = OBS.tracer
    traces = tracer.traces()
    if trace_id is None:
        candidates: list[tuple[bool, int, int]] = []
        for tid, spans in traces.items():
            roots = [s for s in spans if s.name == "db.write"]
            if not roots:
                continue
            # Telemetry self-hosting guard: a dashboard client refreshing
            # its sys_* mirrors produces ordinary-looking db.write traces
            # on the telemetry database.  They must never displace the
            # *workload* trace the caller is asking about.
            if all(is_system_table(s.tags.get("table")) for s in roots):
                continue
            reached_refresh = any(s.name == "sync.mirror_refresh" for s in spans)
            candidates.append(
                (reached_refresh, max(r.start_ns for r in roots), tid)
            )
        if not candidates:
            raise LookupError(
                "no propagation trace captured -- call repro.obs.enable() "
                "before performing the table update"
            )
        candidates.sort()
        trace_id = candidates[-1][2]
    spans = traces.get(trace_id)
    if not spans:
        raise LookupError(f"no spans recorded for trace {trace_id}")
    spans = sorted(spans, key=lambda s: s.start_ns)

    stages: dict[str, float] = {}
    for stage in STAGES:
        names = STAGE_SPANS[stage]
        matched = [s for s in spans if s.name in names]
        if stage in _SELF_TIME_STAGES:
            # Nested same-name spans (e.g. the notification-table writes
            # inside sync.notify) belong to *their* stage's parent span;
            # only top-of-stage spans count here.
            matched = [
                s
                for s in matched
                if not any(
                    other.span_id == s.parent_id and other.name in names
                    for other in spans
                )
            ]
            if stage == "db_write":
                # The stimulus write(s) only: trigger-cascade and
                # notification bookkeeping writes are part of the stage
                # they nest in.
                matched = _stimulus_writes(spans)
        if matched:
            if stage in _SELF_TIME_STAGES:
                stages[stage] = sum(_self_time_ms(s, spans) for s in matched)
            else:
                stages[stage] = sum(s.duration_ms for s in matched)

    table = None
    for span in _stimulus_writes(spans):
        table = span.tags.get("table")
        break
    return PropagationReport(
        trace_id=trace_id, stages=stages, spans=spans, table=table
    )
