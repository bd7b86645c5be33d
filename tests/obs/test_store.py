"""TelemetrySink: spans/metrics as system tables, guarded and bounded."""

import time
from types import SimpleNamespace

import pytest

import repro.obs as obs
from repro.apps.telemetry import latest_series_rows
from repro.db import load_snapshot, save_snapshot
from repro.obs.store import (
    RETENTION,
    SYS_METRICS,
    SYS_SPAN_EVENTS,
    SYS_SPANS,
    TelemetrySink,
)


def make_spans(count, name="work", table="nodes"):
    """Finish ``count`` real spans on the shared tracer."""
    tracer = obs.tracer()
    for i in range(count):
        with tracer.span(name, tags={"table": table, "i": i}):
            pass


@pytest.fixture
def sink():
    s = TelemetrySink()
    yield s
    s.close()


# ---------------------------------------------------------------------------
# Roundtrip


class TestRoundtrip:
    def test_span_rows_roundtrip(self, enabled_obs, sink):
        tracer = obs.tracer()
        with tracer.span("outer", tags={"table": "nodes"}) as outer:
            with tracer.span("inner"):
                time.sleep(0.001)
        stats = sink.collect()
        assert stats["spans"] == 2

        rows = {r["name"]: r for r in sink.database.query(f"SELECT * FROM {SYS_SPANS}")}
        assert set(rows) == {"outer", "inner"}
        assert rows["inner"]["parent_id"] == rows["outer"]["span_id"]
        assert rows["inner"]["trace_id"] == rows["outer"]["trace_id"]
        assert rows["outer"]["kind"] == "span"
        assert rows["outer"]["duration_ms"] > 0
        assert '"table": "nodes"' in rows["outer"]["tags"]
        assert outer.span_id == rows["outer"]["span_id"]

    def test_span_events_roundtrip(self, enabled_obs, sink):
        with obs.tracer().span("stmt") as span:
            span.add_event("explain.operator", operator="SeqScan", rows=42)
            span.add_event("explain.operator", operator="Filter", rows=7)
        sink.collect()

        events = sink.database.query(f"SELECT * FROM {SYS_SPAN_EVENTS}")
        assert len(events) == 2
        assert [e["seq"] for e in sorted(events, key=lambda e: e["seq"])] == [0, 1]
        assert all(e["span_id"] == span.span_id for e in events)
        assert any('"operator": "SeqScan"' in e["attrs"] for e in events)

    def test_metric_rows_roundtrip(self, enabled_obs, sink):
        obs.metrics().counter("db.writes", table="nodes").inc(5)
        obs.metrics().gauge("sync.clients").set(2)
        hist = obs.metrics().histogram("db.execute_ms")
        for v in (0.2, 0.4, 8.0):
            hist.observe(v)
        stats = sink.collect()
        assert stats["metrics"] > 0

        rows = sink.database.query(f"SELECT * FROM {SYS_METRICS}")
        by_series = {(r["name"], r["stat"]): r for r in rows}
        assert by_series[("db.writes", "value")]["value"] == 5.0
        assert by_series[("db.writes", "value")]["kind"] == "counter"
        assert '"table": "nodes"' in by_series[("db.writes", "value")]["labels"]
        assert by_series[("sync.clients", "value")]["value"] == 2.0
        assert by_series[("db.execute_ms", "count")]["value"] == 3.0
        assert by_series[("db.execute_ms", "sum")]["value"] == pytest.approx(8.6)
        # Quantile summaries persist alongside count/sum.
        for stat in ("p50", "p95", "p99"):
            assert (("db.execute_ms", stat)) in by_series
        assert all(r["snap"] == 1 for r in rows)

    def test_drain_empties_the_ring_buffer(self, enabled_obs, sink):
        make_spans(10)
        sink.collect()
        assert len(obs.tracer()) == 0
        # Nothing new -> nothing stored.
        assert sink.collect()["spans"] == 0


# ---------------------------------------------------------------------------
# Recursion guards


class TestRecursionGuard:
    def test_sink_writes_are_invisible_to_the_tracer(self, enabled_obs, sink):
        make_spans(5)
        sink.collect_and_flush()
        # The sink wrote dozens of rows into an instrumented database;
        # none of that may come back as spans on the next collect.
        assert len(obs.tracer()) == 0
        assert sink.collect()["spans"] == 0

    def test_spans_tagged_with_system_tables_are_dropped(self, enabled_obs, sink):
        make_spans(3, table="nodes")
        # A dashboard thread refreshing its telemetry mirror produces
        # spans tagged with the system tables -- they must never persist.
        make_spans(2, name="sync.mirror_refresh", table=SYS_SPANS)
        make_spans(1, name="db.write", table=SYS_METRICS)
        stats = sink.collect()
        assert stats["spans"] == 3
        assert stats["dropped"] == 3
        assert sink.guard_dropped == 3
        names = {
            r["name"] for r in sink.database.query(f"SELECT name FROM {SYS_SPANS}")
        }
        assert names == {"work"}

    def test_metric_series_labeled_with_system_tables_never_persist(
        self, enabled_obs, sink
    ):
        obs.metrics().counter("db.writes", table="nodes").inc()
        obs.metrics().counter("db.writes", table=SYS_SPANS).inc()
        obs.metrics().histogram("sync.flush_ms", table=SYS_METRICS).observe(1.0)
        sink.collect()
        rows = sink.database.query(f"SELECT * FROM {SYS_METRICS}")
        assert rows, "the workload series must persist"
        for row in rows:
            assert "sys_" not in row["labels"]

    def test_repeated_idle_cycles_stay_clean(self, enabled_obs, sink):
        """N idle collect/flush cycles must not grow the span table."""
        make_spans(4)
        sink.collect_and_flush()
        # Inspection queries against the telemetry database are traced
        # like any user query -- suppress them so they are not workload.
        with obs.tracer().suppress():
            baseline = len(sink.database.query(f"SELECT span_id FROM {SYS_SPANS}"))
            for _ in range(5):
                sink.collect_and_flush()
            after = len(sink.database.query(f"SELECT span_id FROM {SYS_SPANS}"))
        assert after == baseline == 4


# ---------------------------------------------------------------------------
# Metric keyframes + retention


class TestMetricPersistence:
    def test_unchanged_series_skipped_between_keyframes(self, enabled_obs, sink):
        counter = obs.metrics().counter("db.writes", table="nodes")
        counter.inc(3)
        sink.collect()  # snap 1: keyframe, everything persists
        sink.collect()  # snap 2: unchanged -> nothing
        counter.inc(1)
        sink.collect()  # snap 3: changed -> persists again

        snaps = sorted(
            r["snap"]
            for r in sink.database.query(f"SELECT * FROM {SYS_METRICS}")
            if r["name"] == "db.writes"
        )
        assert snaps == [1, 3]

    def test_keyframe_persists_unchanged_series(self, enabled_obs, sink):
        sink.metric_keyframe_every = 3
        obs.metrics().counter("db.writes", table="nodes").inc()
        for _ in range(4):
            sink.collect()  # snaps 1..4; keyframes at 1 and 4
        snaps = sorted(
            r["snap"]
            for r in sink.database.query(f"SELECT * FROM {SYS_METRICS}")
            if r["name"] == "db.writes"
        )
        assert snaps == [1, 4]

    def test_old_snaps_pruned_past_retention(self, enabled_obs, sink):
        sink.tables[SYS_METRICS].keep = 3
        sink.metric_keyframe_every = 1  # every collect is a keyframe
        counter = obs.metrics().counter("db.writes", table="nodes")
        for _ in range(6):
            counter.inc()
            sink.collect()
        snaps = {r["snap"] for r in sink.database.query(f"SELECT * FROM {SYS_METRICS}")}
        assert snaps == {4, 5, 6}

    def test_every_live_series_keeps_a_row_under_retention(self, enabled_obs, sink):
        """keyframe_every < RETENTION => an unchanged series is
        re-persisted before its last row ages out."""
        assert sink.metric_keyframe_every < RETENTION
        obs.metrics().gauge("sync.clients").set(1)
        for _ in range(RETENTION * 2):
            sink.collect()
        rows = [
            r
            for r in sink.database.query(f"SELECT * FROM {SYS_METRICS}")
            if r["name"] == "sync.clients"
        ]
        assert rows, "an unchanged series must always have a retained row"


# ---------------------------------------------------------------------------
# Span sampling + retention


class TestSpanSampling:
    def test_sampling_keeps_every_nth_span(self, enabled_obs):
        sink = TelemetrySink(span_sample=0.25)
        try:
            make_spans(40)
            stats = sink.collect()
            assert stats["spans"] == 10
            assert sink.sampled_out == 30
        finally:
            sink.close()

    def test_sampling_counts_across_collections(self, enabled_obs):
        """1-in-4 of 6+6 spans over two collects is 3 total, not 2x ceil."""
        sink = TelemetrySink(span_sample=0.25)
        try:
            make_spans(6)
            first = sink.collect()["spans"]
            make_spans(6)
            second = sink.collect()["spans"]
            assert first + second == 3
        finally:
            sink.close()

    def test_full_sampling_is_the_default(self, enabled_obs, sink):
        make_spans(7)
        assert sink.collect()["spans"] == 7
        assert sink.sampled_out == 0

    def test_span_retention_bounds_the_table(self, enabled_obs):
        sink = TelemetrySink(span_retention=2)
        try:
            for _ in range(5):
                with obs.tracer().span("work") as span:
                    span.add_event("tick")
                sink.collect()
            spans = sink.database.query(
                f"SELECT * FROM {SYS_SPANS} WHERE kind = 'span'"
            )
            events = sink.database.query(f"SELECT * FROM {SYS_SPAN_EVENTS}")
            # Only the newest 2 collections' spans (and their events) remain.
            assert len(spans) == 2
            assert len(events) == 2
            kept = {r["span_id"] for r in spans}
            assert all(e["span_id"] in kept for e in events)
        finally:
            sink.close()

    def test_span_retention_spares_workflow_rows(self, enabled_obs):
        sink = TelemetrySink(span_retention=1)
        try:
            sink.ingest_process_monitor(StubMonitor([make_trace(1)]))
            for _ in range(3):
                make_spans(2)
                sink.collect()
            kinds = [
                r["kind"] for r in sink.database.query(f"SELECT kind FROM {SYS_SPANS}")
            ]
            assert kinds.count("workflow") == 2  # process + one activity
            assert kinds.count("span") == 2  # newest collection only
        finally:
            sink.close()

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            TelemetrySink(span_sample=0.0)
        with pytest.raises(ValueError):
            TelemetrySink(span_sample=1.5)
        with pytest.raises(ValueError):
            TelemetrySink(span_retention=0)


# ---------------------------------------------------------------------------
# Workflow timeline ingestion


def make_activity(aid, name="write", status="COMPLETED", end=7):
    return SimpleNamespace(
        activity_instance_id=aid,
        activity_name=name,
        status=status,
        user="alice",
        start=5,
        end=end,
    )


def make_trace(pid, status="COMPLETED", end=9, activities=None):
    return SimpleNamespace(
        process_instance_id=pid,
        process_name="p",
        status=status,
        start=1,
        end=end,
        activities=activities if activities is not None else [make_activity(10 + pid)],
    )


class StubMonitor:
    """history() is the whole ProcessMonitor surface the sink touches."""

    def __init__(self, traces):
        self.traces = traces

    def history(self):
        return self.traces


class TestWorkflowIngest:
    def test_rows_share_the_span_schema(self, sink):
        written = sink.ingest_process_monitor(StubMonitor([make_trace(3)]))
        assert written == 2
        rows = sink.database.query(f"SELECT * FROM {SYS_SPANS}")
        process = next(r for r in rows if r["name"] == "workflow.process:p")
        activity = next(r for r in rows if r["name"].startswith("workflow.activity:"))
        assert process["kind"] == activity["kind"] == "workflow"
        assert process["span_id"] < 0 and activity["span_id"] < 0
        assert process["span_id"] != activity["span_id"]
        assert activity["parent_id"] == process["span_id"]
        assert activity["trace_id"] == process["span_id"]
        assert process["duration_ms"] is None  # logical clock, not wall time
        assert process["start_ns"] == 1 and process["end_ns"] == 9

    def test_reingest_is_an_upsert(self, sink):
        running = make_trace(1, status="RUNNING", end=None)
        sink.ingest_process_monitor(StubMonitor([running]))
        finished = make_trace(1, status="COMPLETED", end=42)
        sink.ingest_process_monitor(StubMonitor([finished]))

        rows = [
            r
            for r in sink.database.query(f"SELECT * FROM {SYS_SPANS}")
            if r["name"] == "workflow.process:p"
        ]
        assert len(rows) == 1
        assert rows[0]["end_ns"] == 42
        assert '"status": "COMPLETED"' in rows[0]["tags"]

    def test_empty_history_writes_nothing(self, sink):
        assert sink.ingest_process_monitor(StubMonitor([])) == 0


# ---------------------------------------------------------------------------
# Lifecycle


class TestLifecycle:
    def test_counters_reflect_lifetime_totals(self, enabled_obs, sink):
        make_spans(3)
        make_spans(1, table=SYS_SPANS)
        obs.metrics().counter("db.writes", table="nodes").inc()
        sink.collect_and_flush()
        counters = sink.counters()
        assert counters["collections"] == 1
        assert counters["spans_stored"] == 3
        assert counters["guard_dropped"] == 1
        assert counters["metrics_stored"] >= 1
        assert counters["sampled_out"] == 0

    def test_background_thread_collects(self, enabled_obs, sink):
        make_spans(5)
        sink.start(interval=0.02)
        assert sink.running
        sink.start(interval=0.02)  # idempotent
        deadline = time.time() + 2.0
        while sink.counters()["spans_stored"] < 5 and time.time() < deadline:
            time.sleep(0.01)
        sink.stop()
        assert not sink.running
        assert sink.counters()["spans_stored"] == 5
        assert sink.collections >= 1
        assert sink.flush_cycles >= 1

    def test_flush_ships_net_ops(self, enabled_obs, sink):
        make_spans(4)
        stats = sink.collect_and_flush()
        assert stats["net_ops"] >= stats["spans"]
        assert sink.flush_cycles == 1

    def test_closed_sink_leaves_no_trigger_behind(self, enabled_obs, sink):
        make_spans(1)
        sink.collect()
        sink.close()
        assert not [t for t in sink.database.trigger_names() if "sys_" in t]
        # ... so the database can be handed to the next sink, which
        # carries the collection numbering on.
        successor = TelemetrySink(database=sink.database)
        try:
            make_spans(1)
            successor.collect()
            snaps = [
                r["snap"]
                for r in sink.database.query(f"SELECT snap FROM {SYS_SPANS}")
            ]
            assert len(snaps) == len(set(snaps)) == 2
        finally:
            successor.close()

    def test_sink_on_a_reloaded_snapshot_numbers_on(self, enabled_obs, sink, tmp_path):
        """Generations come from the tables: a reloaded sink must not
        restart at snap 1 beside the old snap-1 rows (readers take the
        newest snap per series as its current value)."""
        counter = obs.metrics().counter("db.writes", table="nodes")
        for _ in range(5):
            counter.inc()
            sink.collect()
        save_snapshot(sink.database, tmp_path / "telemetry.snap")
        reloaded = TelemetrySink(database=load_snapshot(tmp_path / "telemetry.snap"))
        try:
            counter.inc(100)
            reloaded.collect()
            rows = [
                r
                for r in reloaded.database.query(f"SELECT * FROM {SYS_METRICS}")
                if r["name"] == "db.writes"
            ]
            assert sorted(r["snap"] for r in rows) == [1, 2, 3, 4, 5, 6]
            (current,) = latest_series_rows(rows)
            assert current["value"] == 105.0
        finally:
            reloaded.close()

    def test_policy_is_not_an_argument(self):
        with pytest.raises(TypeError):
            TelemetrySink(policy=None)
