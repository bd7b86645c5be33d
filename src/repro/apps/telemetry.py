"""A live, EdiFlow-native telemetry dashboard (self-hosted observability).

The dashboard is deliberately built from the same parts as every other
application in this repo -- no privileged access to the tracer:

- the :class:`~repro.obs.store.TelemetrySink` persists spans/metrics
  into ``sys_spans`` / ``sys_metrics`` of a telemetry database;
- a :class:`~repro.sync.server.SyncServer` +
  :class:`~repro.sync.client.SyncClient` pair mirrors those tables the
  normal way (NOTIFY/NOTIFYB over the sink's notification center);
- a :class:`~repro.ivm.registry.ViewRegistry`
  :class:`~repro.ivm.view.AggregateView` maintains per-span-name
  statistics incrementally as the sink writes;
- :class:`~repro.vis.display.Display` objects render three views:
  a **span waterfall** (one bar per recent span, lane per span name),
  the **NOTIFY -> applied latency distribution** (a
  :class:`~repro.vis.scatter.ScatterPlot` over the persisted
  p50/p95/p99 summaries), and a **per-table batch/coalesce savings
  treemap** (cell area = operations eliminated before they reached the
  wire).

Because the observed workload keeps running while the dashboard
refreshes, every dashboard operation runs under the tracer's recursion
guard -- the dashboard observing the telemetry tables must not itself
generate telemetry (see :mod:`repro.obs.store`).
"""

from __future__ import annotations

import json
from typing import Any, Optional

from ..db.algebra import AggSpec
from ..db.expression import col
from ..db.routing import matching_tids
from ..ivm.registry import ViewRegistry
from ..ivm.view import AggregateView
from ..obs.store import SYS_METRICS, SYS_PROFILES, SYS_SPANS, SYS_STACKS, TelemetrySink
from ..sync.client import SyncClient
from ..sync.server import SyncServer
from ..vis.attributes import VisualItem
from ..vis.color import categorical
from ..vis.display import Display
from ..vis.scatter import ScatterPlot
from ..vis.treemap import squarify

__all__ = [
    "TelemetryDashboard",
    "V_HOT_SPANS",
    "V_SPAN_STATS",
    "compute_coalesce_treemap",
    "compute_flame_icicle",
    "compute_latency_points",
    "compute_span_waterfall",
]

V_SPAN_STATS = "telemetry_span_stats"
V_HOT_SPANS = "telemetry_hot_spans"

#: Quantile stats persisted per histogram, in plotting order.
_QUANTILE_STATS = ("p50", "p95", "p99")


def _labels(row: dict[str, Any]) -> dict[str, Any]:
    try:
        decoded = json.loads(row.get("labels") or "{}")
    except (TypeError, ValueError):
        return {}
    return decoded if isinstance(decoded, dict) else {}


def latest_series_rows(metric_rows: list[dict[str, Any]]) -> list[dict[str, Any]]:
    """The newest row per (name, labels, stat) series.

    The sink persists changed series only between keyframes, so the
    current value of a metric is its newest *persisted* row -- a series
    absent from the latest snap is unchanged, not gone.
    """
    newest: dict[tuple[str, str, str], dict[str, Any]] = {}
    for row in metric_rows:
        key = (row["name"], row["labels"], row["stat"])
        held = newest.get(key)
        if held is None or row["snap"] > held["snap"]:
            newest[key] = row
    return list(newest.values())


# ---------------------------------------------------------------------------
# Pure visual mappings (rows -> VisualItems), in the apps-module idiom.


def compute_span_waterfall(
    span_rows: list[dict[str, Any]],
    width: float = 900.0,
    height: float = 400.0,
    limit: int = 96,
) -> list[VisualItem]:
    """The most recent spans as a waterfall: time on x, one lane per name.

    Bar length encodes duration; color encodes the span name.  Workflow
    rows (logical clock) are excluded -- their time axis is not
    commensurable with ``perf_counter_ns``.
    """
    spans = [r for r in span_rows if r.get("kind") == "span" and r.get("end_ns")]
    spans.sort(key=lambda r: r["start_ns"])
    spans = spans[-limit:]
    if not spans:
        return []
    t0 = min(r["start_ns"] for r in spans)
    t1 = max(r["end_ns"] for r in spans)
    span_ns = max(t1 - t0, 1)
    names = sorted({r["name"] for r in spans})
    lane_height = height / max(len(names), 1)
    items: list[VisualItem] = []
    for row in spans:
        lane = names.index(row["name"])
        x = (row["start_ns"] - t0) / span_ns * width
        bar = max((row["end_ns"] - row["start_ns"]) / span_ns * width, 1.0)
        items.append(
            VisualItem(
                obj_id=row["span_id"],
                x=x,
                y=lane * lane_height,
                width=bar,
                height=lane_height * 0.8,
                color=categorical(lane),
                label=f"{row['name']} {row['duration_ms']:.2f}ms",
            )
        )
    return items


def compute_latency_points(
    metric_rows: list[dict[str, Any]],
    metric: str = "sync.notify_to_applied_ms",
    width: float = 600.0,
    height: float = 300.0,
) -> list[VisualItem]:
    """NOTIFY -> applied latency distribution as a quantile scatter.

    One dot per (table, quantile) from the latest persisted snapshot:
    x = quantile, y = milliseconds, color = table.  Built on the
    declarative :class:`ScatterPlot` so the dashboard exercises the
    normal vis pipeline.
    """
    latest = latest_series_rows(metric_rows)
    points: list[dict[str, Any]] = []
    for row in latest:
        if row["name"] != metric or row["stat"] not in _QUANTILE_STATS:
            continue
        table = _labels(row).get("table", "?")
        points.append(
            {
                "key": f"{table}:{row['stat']}",
                "quantile": float(row["stat"].lstrip("p")),
                "ms": row["value"],
                "table": table,
            }
        )
    if not points:
        return []
    plot = ScatterPlot(
        x="quantile",
        y="ms",
        key="key",
        color_by="table",
        label="key",
        width=width,
        height=height,
    )
    return plot.compute(points)


def compute_coalesce_treemap(
    metric_rows: list[dict[str, Any]],
    width: float = 600.0,
    height: float = 300.0,
) -> list[VisualItem]:
    """Per-table propagation savings as a treemap.

    Cell area = operations eliminated before they reached a consumer
    (``db.coalesced_away``, every edge out of the table); falls back to per-table write volume
    (``db.writes``) when no batching policy has saved anything yet, so
    the view is never blank on a fresh system.
    """
    latest = latest_series_rows(metric_rows)

    def series(name: str) -> dict[str, float]:
        out: dict[str, float] = {}
        for row in latest:
            if row["name"] == name and row["stat"] == "value" and row["value"]:
                table = _labels(row).get("table", "?")
                out[table] = out.get(table, 0.0) + row["value"]
        return out

    values = series("db.coalesced_away")
    label_fmt = "{table}: {value:.0f} saved"
    if not values:
        values = series("db.writes")
        label_fmt = "{table}: {value:.0f} writes"
    if not values:
        return []
    cells = squarify(sorted(values.items()), 0.0, 0.0, width, height)
    items: list[VisualItem] = []
    for index, cell in enumerate(cells):
        items.append(
            VisualItem(
                obj_id=cell.key,
                x=cell.x,
                y=cell.y,
                width=cell.width,
                height=cell.height,
                color=categorical(index),
                label=label_fmt.format(table=cell.key, value=values[cell.key]),
            )
        )
    return items


def compute_flame_icicle(
    stack_rows: list[dict[str, Any]],
    width: float = 900.0,
    height: float = 300.0,
    max_depth: int = 12,
) -> list[VisualItem]:
    """Persisted ``sys_stacks`` rows as an icicle (root-at-top flamegraph).

    Each row is one collapsed stack delta from the sampling profiler;
    the synthetic frame chain is ``thread -> span:<name> -> frames...``,
    weighted by attributed self-time (falling back to sample counts when
    a row carries no time).  One cell per distinct frame *prefix*: cell
    width is the prefix's share of total attributed time, depth is the
    row below its caller -- exactly a flamegraph, drawn top-down.
    """
    totals: dict[tuple[str, ...], float] = {}
    for row in stack_rows:
        frames: list[str] = [row.get("thread") or "?"]
        if row.get("span_name"):
            frames.append(f"span:{row['span_name']}")
        stack = row.get("stack") or ""
        if stack:
            frames.extend(stack.split(";"))
        frames = frames[:max_depth]
        weight = float(row.get("self_ms") or 0.0) or float(row.get("samples") or 0)
        if weight <= 0:
            continue
        for depth in range(1, len(frames) + 1):
            key = tuple(frames[:depth])
            totals[key] = totals.get(key, 0.0) + weight
    if not totals:
        return []
    depth_max = max(len(key) for key in totals)
    row_height = height / depth_max
    grand_total = sum(v for key, v in totals.items() if len(key) == 1)
    children: dict[tuple[str, ...], list[tuple[str, ...]]] = {}
    for key in totals:
        if len(key) > 1:
            children.setdefault(key[:-1], []).append(key)
    items: list[VisualItem] = []

    def emit(key: tuple[str, ...], x_px: float) -> None:
        cell_width = totals[key] / grand_total * width
        depth = len(key) - 1
        items.append(
            VisualItem(
                obj_id=";".join(key),
                x=x_px,
                y=depth * row_height,
                width=max(cell_width, 0.5),
                height=row_height * 0.92,
                color=categorical(depth),
                label=f"{key[-1]} {totals[key]:.1f}",
            )
        )
        child_x = x_px
        for child in sorted(children.get(key, [])):
            emit(child, child_x)
            child_x += totals[child] / grand_total * width

    x = 0.0
    for root in sorted(key for key in totals if len(key) == 1):
        emit(root, x)
        x += totals[root] / grand_total * width
    return items


# ---------------------------------------------------------------------------


class TelemetryDashboard:
    """Three live displays over the telemetry system tables.

    Parameters
    ----------
    sink:
        The telemetry sink whose database/center this dashboard attaches
        to.  The dashboard never reads the tracer directly -- only the
        persisted tables, through a synchronized mirror.
    use_sockets:
        ``True`` routes the NOTIFY path over a real loopback socket
        (exactly like a remote display wall); ``False`` uses in-process
        polling.
    """

    def __init__(
        self,
        sink: TelemetrySink,
        use_sockets: bool = False,
        width: float = 900.0,
        height: float = 400.0,
    ) -> None:
        self.sink = sink
        self.server = SyncServer(
            sink.database,
            center=sink.center,
            use_sockets=use_sockets,
            heartbeat_interval=0.5 if use_sockets else None,
        )
        # Everything the dashboard does against the telemetry database
        # must be invisible to the tracer (recursion guard, layer 1).
        with sink.runtime.tracer.suppress():
            self.client = SyncClient(self.server)
            self.span_mirror = self.client.mirror(SYS_SPANS)
            self.metric_mirror = self.client.mirror(SYS_METRICS)
            self.stack_mirror = self.client.mirror(SYS_STACKS)
            self.registry = ViewRegistry(sink.database)
            self.span_stats = AggregateView(
                V_SPAN_STATS,
                SYS_SPANS,
                ("name",),
                [
                    AggSpec("COUNT", None, "n"),
                    AggSpec("SUM", col("duration_ms"), "total_ms"),
                    AggSpec("MAX", col("duration_ms"), "max_ms"),
                ],
                where=col("kind") == "span",
            )
            # Lineage-enabled: every stats group knows exactly which
            # sys_spans rows it aggregates, so the dashboard can answer
            # "why is this pixel here" without re-querying.
            self.span_stats.enable_lineage()
            self.registry.register(self.span_stats)
            # Hottest spans by profiler self-time: an ordinary
            # AggregateView over sys_profiles delta rows, maintained
            # incrementally as the sink writes (and pruned sums shrink
            # with retention -- the view is a sliding window, on purpose).
            self.hot_spans_view = AggregateView(
                V_HOT_SPANS,
                SYS_PROFILES,
                ("span_name",),
                [
                    AggSpec("COUNT", None, "n"),
                    AggSpec("SUM", col("samples"), "samples"),
                    AggSpec("SUM", col("self_ms"), "self_ms"),
                ],
                where=col("kind") == "delta",
            )
            self.registry.register(self.hot_spans_view)
        self.waterfall = Display("span-waterfall", width=width, height=height)
        self.latency = Display("notify-latency", width=width, height=height)
        self.savings = Display("coalesce-savings", width=width, height=height)
        self.flame = Display("flame-icicle", width=width, height=height)
        self.refreshes = 0

    # ------------------------------------------------------------------
    def refresh(self) -> dict[str, Any]:
        """Pull the mirrors and redraw all three views.

        Returns a stats dict (mirrored row counts, items per display,
        the metric snapshot generation rendered) so headless callers --
        tests, the CI e2e -- can assert the dashboard reflects the
        system tables.
        """
        with self.sink.runtime.tracer.suppress():
            self.client.refresh(SYS_SPANS)
            self.client.refresh(SYS_METRICS)
            self.client.refresh(SYS_STACKS)
            span_rows = self.span_mirror.all_rows()
            metric_rows = self.metric_mirror.all_rows()
            stack_rows = self.stack_mirror.all_rows()
            self.waterfall.apply_snapshot(
                r.to_row(0) for r in compute_span_waterfall(span_rows)
            )
            self.latency.apply_snapshot(
                r.to_row(1) for r in compute_latency_points(metric_rows)
            )
            self.savings.apply_snapshot(
                r.to_row(2) for r in compute_coalesce_treemap(metric_rows)
            )
            self.flame.apply_snapshot(
                r.to_row(3) for r in compute_flame_icicle(stack_rows)
            )
        self.refreshes += 1
        return {
            "span_rows": len(span_rows),
            "metric_rows": len(metric_rows),
            "stack_rows": len(stack_rows),
            "snap": max((r["snap"] for r in metric_rows), default=0),
            "waterfall_items": len(self.waterfall),
            "latency_items": len(self.latency),
            "savings_items": len(self.savings),
            "flame_items": len(self.flame),
        }

    def span_summary(self) -> list[dict[str, Any]]:
        """Per-span-name statistics from the incremental AggregateView."""
        rows = self.registry.rows(V_SPAN_STATS)
        return sorted(rows, key=lambda r: -(r["total_ms"] or 0.0))

    def hot_spans(self) -> list[dict[str, Any]]:
        """Span names by profiler self-time, hottest first.

        Fed by the :data:`V_HOT_SPANS` AggregateView over ``sys_profiles``
        delta rows -- the dashboard's "where is the CPU going" answer.
        Rows with no span attribution (samples outside any span) appear
        under the ``None`` group last.
        """
        rows = self.registry.rows(V_HOT_SPANS)
        return sorted(
            rows,
            key=lambda r: (r["span_name"] is None, -(r["self_ms"] or 0.0)),
        )

    def format_summary(self, limit: int = 12) -> str:
        """A terminal-friendly rendering of the span-stats view."""
        lines = [f"{'span':<28}{'count':>8}{'total ms':>12}{'max ms':>10}"]
        for row in self.span_summary()[:limit]:
            lines.append(
                f"{row['name']:<28}{row['n']:>8}"
                f"{(row['total_ms'] or 0.0):>12.2f}"
                f"{(row['max_ms'] or 0.0):>10.2f}"
            )
        return "\n".join(lines)

    def why(self, span_id: int) -> Optional[dict[str, Any]]:
        """"Why is this point here": provenance of one waterfall bar.

        ``span_id`` is the bar's obj_id in the waterfall display.  The
        answer traces both lineage directions through the span-stats
        view: *forward* -- which aggregate group this span's ``sys_spans``
        row feeds -- and *backward* -- every base tid contributing to
        that group, i.e. the bar's siblings in the statistics it is part
        of.  Returns None for an unknown span id.
        """
        with self.sink.runtime.tracer.suppress():
            table = self.sink.database.table(SYS_SPANS)
            tids = matching_tids(table, col("span_id") == span_id)
            if not tids:
                return None
            tid = tids[0]
            target = table.get(tid)
            lineage = self.span_stats.lineage
            groups = sorted(lineage.forward((SYS_SPANS, tid)))
            contributing = sorted(
                {t for g in groups for (_, t) in lineage.backward(g)}
            )
            stats = [
                r
                for r in self.registry.rows(V_SPAN_STATS)
                if (r["name"],) in groups
            ]
        return {
            "span_id": span_id,
            "name": target["name"],
            "duration_ms": target["duration_ms"],
            "source": (SYS_SPANS, tid),
            "groups": groups,
            "stats": stats,
            "contributing_tids": contributing,
            "contributing_spans": len(contributing),
        }

    def render_svg(self) -> dict[str, str]:
        """All four views as SVG documents (keyed by display name)."""
        return {
            d.name: d.render_svg()
            for d in (self.waterfall, self.latency, self.savings, self.flame)
        }

    # ------------------------------------------------------------------
    def close(self) -> None:
        with self.sink.runtime.tracer.suppress():
            self.registry.unregister(V_SPAN_STATS)
            self.registry.unregister(V_HOT_SPANS)
            self.client.close()
            self.server.close()


def attach_dashboard(
    sink: Optional[TelemetrySink] = None, use_sockets: bool = False
) -> TelemetryDashboard:
    """Convenience: build a sink (if needed) and attach a dashboard."""
    return TelemetryDashboard(sink or TelemetrySink(), use_sockets=use_sockets)
