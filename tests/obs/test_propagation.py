"""End-to-end propagation traces: the live Figure 8 breakdown."""

import pytest

import repro.obs as obs
from repro.db import TID, Column, Database
from repro.db.types import INTEGER, TEXT
from repro.ivm.registry import ViewRegistry
from repro.ivm.view import SelectProjectView
from repro.obs import STAGES, propagation_report
from repro.sync.client import SyncClient
from repro.sync.server import SyncServer
from repro.vis.display import Display
from repro.vis.attributes import VisualItem
from repro.vis.layout.graph import Graph
from repro.vis.layout.linlog import LinLogLayout


@pytest.fixture
def pipeline():
    """A full reactive pipeline: DB -> notify -> mirror -> IVM -> vis."""
    db = Database("ediflow")
    db.create_table(
        "nodes",
        [Column("id", INTEGER, nullable=False), Column("label", TEXT)],
    )
    server = SyncServer(db, use_sockets=False)
    client = SyncClient(server)
    mirror = client.mirror("nodes")
    registry = ViewRegistry(db)
    registry.register(SelectProjectView("all_nodes", "nodes"))
    yield db, client, mirror
    client.close()
    server.close()


def drive_one_update(db, client, mirror, rows=5):
    """One table update, propagated through every stage."""
    db.insert_many("nodes", [{"id": i, "label": f"n{i}"} for i in range(rows)])
    client.refresh("nodes")
    # The visualization reacts inside the refresh's trace -- exactly what
    # RefreshDriver listeners do via _notify_listeners.
    with obs.tracer().activate(client.last_refresh_context("nodes")):
        graph = Graph()
        for row in mirror.all_rows():
            graph.add_node(row["id"])
        result = LinLogLayout(graph).run(max_iterations=5)
        display = Display()
        display.apply_rows(
            [
                VisualItem(obj_id=n, x=x, y=y).to_row(1)
                for n, (x, y) in result.positions.items()
            ]
        )


class TestEndToEnd:
    def test_every_stage_present_with_nonzero_durations(
        self, pipeline, enabled_obs
    ):
        db, client, mirror = pipeline
        drive_one_update(db, client, mirror)
        report = propagation_report()
        assert report.missing_stages() == []
        assert set(report.stages) == set(STAGES)
        for stage, duration in report.stages.items():
            assert duration > 0, f"stage {stage} has zero duration"
        assert report.table == "nodes"
        assert report.total_ms == pytest.approx(sum(report.stages.values()))

    def test_single_trace_spans_all_layers(self, pipeline, enabled_obs):
        db, client, mirror = pipeline
        drive_one_update(db, client, mirror)
        report = propagation_report()
        names = {span.name for span in report.spans}
        assert {
            "db.write",
            "db.trigger",
            "sync.notify",
            "sync.mirror_refresh",
            "ivm.delta_apply",
            "vis.layout",
            "vis.display.apply",
        } <= names
        # All spans belong to one trace: the stitched propagation.
        assert len({span.trace_id for span in report.spans}) == 1

    def test_mirror_refresh_reparented_onto_notify(self, pipeline, enabled_obs):
        db, client, mirror = pipeline
        drive_one_update(db, client, mirror)
        report = propagation_report()
        by_id = {span.span_id: span for span in report.spans}
        (refresh,) = [s for s in report.spans if s.name == "sync.mirror_refresh"]
        assert by_id[refresh.parent_id].name == "sync.notify"
        histograms = obs.metrics().snapshot()["histograms"]
        assert histograms["sync.notify_to_applied_ms{table=nodes}"]["count"] == 1

    def test_format_lists_every_stage(self, pipeline, enabled_obs):
        db, client, mirror = pipeline
        drive_one_update(db, client, mirror)
        text = propagation_report().format()
        for stage in STAGES:
            assert stage in text
        assert "span tree:" in text
        assert "(absent)" not in text

    def test_as_dict_round_trips(self, pipeline, enabled_obs):
        import json

        db, client, mirror = pipeline
        drive_one_update(db, client, mirror)
        payload = propagation_report().as_dict()
        decoded = json.loads(json.dumps(payload))
        assert decoded["table"] == "nodes"
        assert decoded["missing"] == []
        assert len(decoded["spans"]) == len(payload["spans"])

    def test_prefers_trace_that_reached_the_mirror(self, pipeline, enabled_obs):
        db, client, mirror = pipeline
        drive_one_update(db, client, mirror)
        # A later write that is never refreshed must not displace the
        # complete propagation trace.
        db.insert("nodes", {"id": 999, "label": "stray"})
        report = propagation_report()
        assert "mirror_refresh" in report.stages


class TestTransactionBlock:
    def test_a_block_and_its_commit_are_one_trace(self, pipeline, enabled_obs):
        """The commit a block makes at exit runs inside the block's span,
        so its trigger, its notify and the refresh that joins the notify
        share the writes' trace -- each nested span inside its parent."""
        db, client, mirror = pipeline
        with db.transaction():
            (row,) = db.insert_many("nodes", [{"id": 1, "label": "a"}])
            db.update_by_tid("nodes", row[TID], {"label": "b"})
        client.refresh("nodes")
        spans = obs.tracer().finished_spans()
        by_id = {span.span_id: span for span in spans}
        writes = [
            s for s in spans if s.name == "db.write" and s.tags["table"] == "nodes"
        ]
        assert len(writes) == 2
        assert {span.trace_id for span in spans} == {writes[0].trace_id}
        (block,) = [s for s in spans if s.name == "db.transaction"]
        assert block.tags["table"] == "nodes"
        for name in ("db.trigger", "sync.notify"):
            (span,) = [s for s in spans if s.name == name]
            parent = by_id[span.parent_id]
            assert parent.start_ns <= span.start_ns <= span.end_ns <= parent.end_ns
        (refresh,) = [s for s in spans if s.name == "sync.mirror_refresh"]
        assert by_id[refresh.parent_id].name == "sync.notify"
        report = propagation_report()
        assert report.table == "nodes"
        for stage in ("db_write", "trigger", "notify", "hop", "mirror_refresh"):
            assert stage in report.stages
        assert mirror.get(row[TID])["label"] == "b"


class TestErrors:
    def test_lookup_error_when_nothing_captured(self, enabled_obs):
        with pytest.raises(LookupError):
            propagation_report()

    def test_lookup_error_when_disabled(self, pipeline):
        db, client, mirror = pipeline
        drive_one_update(db, client, mirror)  # tracing off: nothing lands
        with pytest.raises(LookupError):
            propagation_report()

    def test_unknown_trace_id(self, enabled_obs):
        with pytest.raises(LookupError):
            propagation_report(trace_id=123456)
