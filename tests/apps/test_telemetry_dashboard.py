"""The telemetry dashboard: pure visual mappings + the headless e2e the
CI obs-smoke job drives."""

import json

import pytest

import repro.obs as obs
from repro.apps.telemetry import (
    TelemetryDashboard,
    attach_dashboard,
    compute_coalesce_treemap,
    compute_latency_points,
    compute_span_waterfall,
    latest_series_rows,
)
from repro.obs.store import TelemetrySink


@pytest.fixture(autouse=True)
def clean_obs():
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


def span_row(span_id, name, start, end, kind="span"):
    return {
        "span_id": span_id,
        "trace_id": span_id,
        "parent_id": None,
        "name": name,
        "kind": kind,
        "start_ns": start,
        "end_ns": end,
        "duration_ms": (end - start) / 1e6 if end else None,
        "thread": "t",
        "tags": "{}",
    }


def metric_row(name, stat, value, snap=1, table="nodes", kind="histogram"):
    return {
        "snap": snap,
        "ts": snap,
        "kind": kind,
        "name": name,
        "labels": json.dumps({"table": table}),
        "stat": stat,
        "value": value,
    }


class TestLatestSeriesRows:
    def test_newest_snap_wins_per_series(self):
        rows = [
            metric_row("db.writes", "value", 1.0, snap=1),
            metric_row("db.writes", "value", 5.0, snap=3),
            metric_row("db.writes", "value", 3.0, snap=2),
        ]
        (latest,) = latest_series_rows(rows)
        assert latest["value"] == 5.0

    def test_absent_from_latest_snap_means_unchanged(self):
        """Changed-only persistence: a series with no row at the newest
        snap still surfaces with its older value."""
        rows = [
            metric_row("db.writes", "value", 7.0, snap=1, table="a"),
            metric_row("db.writes", "value", 2.0, snap=4, table="b"),
        ]
        by_table = {
            json.loads(r["labels"])["table"]: r["value"]
            for r in latest_series_rows(rows)
        }
        assert by_table == {"a": 7.0, "b": 2.0}


class TestWaterfall:
    def test_empty_rows_give_no_items(self):
        assert compute_span_waterfall([]) == []

    def test_one_lane_per_span_name(self):
        rows = [
            span_row(1, "db.write", 0, 100),
            span_row(2, "sync.notify", 50, 150),
            span_row(3, "db.write", 200, 300),
        ]
        items = compute_span_waterfall(rows, width=900, height=400)
        assert len(items) == 3
        lanes = {i.label.split()[0]: i.y for i in items}
        assert len(set(lanes.values())) == 2  # two names -> two lanes
        assert all(i.width >= 1.0 for i in items)
        assert all(0 <= i.x <= 900 for i in items)

    def test_workflow_and_unfinished_rows_excluded(self):
        rows = [
            span_row(1, "db.write", 0, 100),
            span_row(-1, "workflow.process:p", 1, 9, kind="workflow"),
            span_row(5, "open", 10, None),
        ]
        items = compute_span_waterfall(rows)
        assert [i.obj_id for i in items] == [1]

    def test_limit_keeps_newest(self):
        rows = [span_row(i, "op", i * 10, i * 10 + 5) for i in range(20)]
        items = compute_span_waterfall(rows, limit=4)
        assert sorted(i.obj_id for i in items) == [16, 17, 18, 19]

    def test_labels_carry_duration(self):
        (item,) = compute_span_waterfall([span_row(1, "db.write", 0, 2_000_000)])
        assert item.label == "db.write 2.00ms"


class TestLatencyScatter:
    def test_empty_rows_give_no_items(self):
        assert compute_latency_points([]) == []

    def test_one_dot_per_table_quantile(self):
        rows = [
            metric_row("sync.notify_to_applied_ms", stat, v, table=t)
            for t in ("a", "b")
            for stat, v in (("p50", 1.0), ("p95", 2.0), ("p99", 3.0))
        ]
        # count/sum rows must not become dots.
        rows.append(metric_row("sync.notify_to_applied_ms", "count", 99.0))
        items = compute_latency_points(rows)
        assert len(items) == 6
        keys = {i.obj_id for i in items}
        assert keys == {f"{t}:p{q}" for t in ("a", "b") for q in (50, 95, 99)}

    def test_other_metrics_ignored(self):
        rows = [metric_row("db.execute_ms", "p50", 1.0)]
        assert compute_latency_points(rows) == []


class TestCoalesceTreemap:
    def test_cell_area_tracks_savings(self):
        rows = [
            metric_row("db.coalesced_away", "value", 30.0, table="a", kind="counter"),
            metric_row("db.coalesced_away", "value", 10.0, table="b", kind="counter"),
        ]
        items = compute_coalesce_treemap(rows, width=100, height=100)
        area = {i.obj_id: i.width * i.height for i in items}
        assert area["a"] == pytest.approx(3 * area["b"])
        assert sum(area.values()) == pytest.approx(100 * 100)
        assert all("saved" in i.label for i in items)

    def test_falls_back_to_write_volume(self):
        rows = [metric_row("db.writes", "value", 5.0, table="a", kind="counter")]
        (item,) = compute_coalesce_treemap(rows)
        assert "writes" in item.label

    def test_empty_rows_give_no_items(self):
        assert compute_coalesce_treemap([]) == []


# ---------------------------------------------------------------------------
# Headless end-to-end (what the CI obs-smoke job runs)


def make_workload(n):
    tracer = obs.tracer()
    for i in range(n):
        with tracer.span("db.write", tags={"table": "nodes"}):
            pass
    obs.metrics().counter("db.writes", table="nodes").inc(n)
    obs.metrics().histogram("sync.notify_to_applied_ms", table="nodes").observe(0.4)


class TestDashboardEndToEnd:
    def test_two_flush_cycles_update_the_views(self):
        obs.enable()
        sink = TelemetrySink()
        dashboard = TelemetryDashboard(sink)
        try:
            make_workload(6)
            sink.collect_and_flush()
            first = dashboard.refresh()
            assert first["span_rows"] >= 6
            assert first["waterfall_items"] >= 6
            assert first["latency_items"] == 3  # p50/p95/p99 for one table
            # >= 1: the sync layer's own connected-user bookkeeping may
            # contribute a write-volume cell alongside the workload's.
            assert first["savings_items"] >= 1
            assert first["snap"] == 1

            make_workload(4)
            sink.collect_and_flush()
            second = dashboard.refresh()
            assert second["span_rows"] > first["span_rows"]
            assert second["snap"] == 2
            assert dashboard.refreshes == 2

            summary = dashboard.span_summary()
            row = next(r for r in summary if r["name"] == "db.write")
            assert row["n"] == 10
            text = dashboard.format_summary()
            assert "db.write" in text and "count" in text
            svgs = dashboard.render_svg()
            assert set(svgs) == {
                "span-waterfall",
                "notify-latency",
                "coalesce-savings",
                "flame-icicle",
            }
            assert all(svg.startswith("<svg") for svg in svgs.values())
            # The whole cycle left the tracer clean (recursion guard).
            assert len(obs.tracer()) == 0
        finally:
            dashboard.close()
            sink.close()

    def test_socket_mode_end_to_end(self):
        """The same e2e with the dashboard mirror on a real socket."""
        obs.enable()
        sink = TelemetrySink()
        dashboard = TelemetryDashboard(sink, use_sockets=True)
        try:
            make_workload(3)
            sink.collect_and_flush()
            stats = dashboard.refresh()
            assert stats["span_rows"] >= 3
            assert stats["waterfall_items"] >= 3
        finally:
            dashboard.close()
            sink.close()

    def test_attach_dashboard_builds_its_own_sink(self):
        dashboard = attach_dashboard()
        try:
            assert isinstance(dashboard.sink, TelemetrySink)
            assert dashboard.refresh()["span_rows"] == 0
        finally:
            dashboard.close()
            dashboard.sink.close()
