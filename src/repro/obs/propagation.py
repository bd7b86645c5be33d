"""End-to-end propagation traces: Figure 8 on a live run.

The paper's Figure 8 decomposes one insert into pipeline steps.  With the
tracer threaded through every layer, the same breakdown falls out of a
*live* system: a single trace follows one table update from its write
through the trigger cascade, the notification protocol, the mirror
refresh on the client, the IVM delta handlers, and the layout/display
work -- and :func:`propagation_report` reassembles it into seven stages,
each also split by table.

Stage mapping (span name -> stage):

==========================  =======================================
``db.write``                writing a batch: a statement, or a
``db.transaction``          transaction block with its commit
``db.trigger``              statement-level trigger dispatch
``sync.notify``             building Notification rows + fan-out
(a gap) ``hop``             the end of the commit that made a notify
                            to the start of the mirror refresh it
                            parents: the wire and the client's wake-up
``sync.mirror_refresh``     pulling changed rows into R_M (step 8)
``ivm.delta_apply``         delta handlers on dependent views
``vis.layout``/``vis.display.apply``  layout + display insertion
==========================  =======================================

Each span counts its *self time*: its duration less that of the staged
spans inside its interval, so no instant counts twice (work activated
under a span that already closed -- a refresh's listeners, a write
joining a refresh's trace -- or overlapping it from another thread is
its own).  A write inside another
stage's span (a trigger cascade, a refresh's cursor update) is that
stage's work; only one inside a transaction block is a write of its own.
A span is of its ``table`` tag's table, else of its parent's.  A hop
starts where the notify's commit ends -- the outermost span enclosing
the notify -- so it never overlaps the commit's NOTIFY fan-out.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Any, Optional

from .systable import is_system_table
from .trace import Span, Tracer

__all__ = ["PropagationReport", "propagation_report", "STAGES"]

#: Pipeline order of the seven stages.
STAGES = (
    "db_write", "trigger", "notify", "hop", "mirror_refresh", "delta_handler", "layout"
)

#: Span names contributing to each stage (``hop`` is the gap before a
#: refresh, no span's).
STAGE_SPANS: dict[str, tuple[str, ...]] = {
    "db_write": ("db.write", "db.transaction"),
    "trigger": ("db.trigger",),
    "notify": ("sync.notify",),
    "mirror_refresh": ("sync.mirror_refresh",),
    "delta_handler": ("ivm.delta_apply",),
    "layout": ("vis.layout", "vis.display.apply"),
}
_STAGE_OF = {name: stage for stage, names in STAGE_SPANS.items() for name in names}


@dataclass
class PropagationReport:
    """One table update's journey through the pipeline."""

    trace_id: int
    stages: dict[str, float]  # stage -> milliseconds
    spans: list[Span] = field(default_factory=list)
    table: Optional[str] = None
    #: ``stages`` split by table: table -> stage -> milliseconds.
    tables: dict[str, dict[str, float]] = field(default_factory=dict)
    #: The trace's first span start to its last span end.
    wall_ms: float = 0.0

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
            "wall_ms": self.wall_ms,
            "stages": dict(self.stages),
            "tables": {table: dict(stages) for table, stages in self.tables.items()},
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
        lines.append(f"  {'wall':<16}{self.wall_ms:10.3f} ms")
        for table, stages in self.tables.items():
            cells = ", ".join(f"{s} {stages[s]:.3f}" for s in STAGES if s in stages)
            lines.append(f"  {table}: {cells}")
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


def _by_table(spans: list[Span]) -> tuple[dict[str, dict[str, float]], Optional[str]]:
    """Each staged span's self time, and each refresh's hop, summed per
    table and stage; and the table of the first write that counts."""
    by_id = {s.span_id: s for s in spans}
    counted: dict[int, str] = {}  # span id -> stage, in span id order
    self_ns: dict[int, int] = {}
    # A span's id is drawn when it starts, after its parent's: parents first.
    for span in sorted(spans, key=attrgetter("span_id")):
        stage = _STAGE_OF.get(span.name)
        if stage is None:
            continue
        outer = by_id.get(span.parent_id)
        while outer is not None and outer.span_id not in counted:
            outer = by_id.get(outer.parent_id)
        inside = outer is not None and (
            outer.start_ns <= span.start_ns and span.end_ns <= outer.end_ns
        )
        if inside and stage == "db_write" and outer.name != "db.transaction":
            continue
        counted[span.span_id] = stage
        self_ns[span.span_id] = span.end_ns - span.start_ns
        if inside:
            self_ns[outer.span_id] -= span.end_ns - span.start_ns

    tables: dict[str, dict[str, float]] = {}

    def add(span: Span, stage: str, ns: int) -> None:
        while "table" not in span.tags and span.parent_id in by_id:
            span = by_id[span.parent_id]
        stages = tables.setdefault(span.tags.get("table"), {})
        stages[stage] = stages.get(stage, 0.0) + ns / 1e6

    for span_id, stage in counted.items():
        span = by_id[span_id]
        add(span, stage, self_ns[span_id])
        origin = by_id.get(span.parent_id)
        if stage == "mirror_refresh" and getattr(origin, "name", "") == "sync.notify":
            while (up := by_id.get(origin.parent_id)) and up.end_ns >= origin.end_ns:
                origin = up  # out to the commit that made the notify
            add(span, "hop", max(span.start_ns - origin.end_ns, 0))
    writes = (by_id[i] for i in counted if by_id[i].name == "db.write")
    return tables, next((span.tags.get("table") for span in writes), None)


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
            candidates.append((reached_refresh, max(r.start_ns for r in roots), tid))
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
    tables, table = _by_table(spans)
    stages: dict[str, float] = {}
    for by_stage in tables.values():
        for stage, ms in by_stage.items():
            stages[stage] = stages.get(stage, 0.0) + ms
    wall_ms = (max(s.end_ns for s in spans) - spans[0].start_ns) / 1e6
    return PropagationReport(trace_id, stages, spans, table, tables, wall_ms)
