"""Cross-socket trace-context propagation (the ``ctx`` frame field).

The in-process link registry cannot cross a real socket: producer and
consumer share no memory in a true client/server deployment.  While
tracing, the span context rides on the NOTIFY/NOTIFYB frames
themselves -- to every peer, whatever its HELLO said -- so the Figure-8
propagation chain stitches across the wire.
"""

import time

import pytest

import repro.obs as obs
from repro.db import Column, Database
from repro.db.types import INTEGER, TEXT
from repro.ivm.registry import ViewRegistry
from repro.ivm.view import SelectProjectView
from repro.obs import STAGES, propagation_report
from repro.sync import protocol
from repro.sync.client import SyncClient
from repro.sync.server import SyncServer
from repro.vis.attributes import VisualItem
from repro.vis.display import Display
from repro.vis.layout.graph import Graph
from repro.vis.layout.linlog import LinLogLayout


@pytest.fixture(autouse=True)
def clean_obs():
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


@pytest.fixture
def enabled_obs():
    obs.enable()
    return obs


# ---------------------------------------------------------------------------
# Frame encoding


class TestFrameEncoding:
    def test_trace_context_round_trips(self):
        ctx = protocol.trace_context(7, 9, 123456)
        assert ctx == {"t": 7, "s": 9, "n": 123456}
        frame = protocol.notify("nodes", 3, "insert", ctx=ctx)
        decoded = protocol.decode(protocol.encode(frame))
        assert protocol.frame_trace_context(decoded) == (7, 9, 123456)

    def test_notify_batch_carries_ctx(self):
        frame = protocol.notify_batch(
            "nodes", [("insert", 1), ("insert", 2)], ctx=protocol.trace_context(1, 3, 5)
        )
        decoded = protocol.decode(protocol.encode(frame))
        assert protocol.frame_trace_context(decoded) == (1, 3, 5)
        assert protocol.batch_events(decoded) == [("insert", 1), ("insert", 2)]

    def test_absent_ctx_decodes_to_none(self):
        assert protocol.frame_trace_context(protocol.notify("nodes", 3, "insert")) is None

    @pytest.mark.parametrize(
        "ctx",
        [
            "garbage",
            42,
            [],
            {},
            {"t": 1, "s": 2},  # missing n
            {"t": 1, "s": None, "n": 3},
            {"t": "1", "s": 2, "n": 3},
            {"t": 1.5, "s": 2, "n": 3},
            {"t": True, "s": 2, "n": 3},  # bools are not span ids
        ],
    )
    def test_malformed_ctx_degrades_to_none(self, ctx):
        message = protocol.notify("nodes", 3, "insert")
        message["ctx"] = ctx
        assert protocol.frame_trace_context(message) is None


# ---------------------------------------------------------------------------
# Real-socket propagation


def wait_for(predicate, timeout=5.0, interval=0.01):
    deadline = time.time() + timeout
    while time.time() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


@pytest.fixture
def socket_pipeline():
    """DB -> real loopback socket -> mirror, with a view attached."""
    db = Database("ediflow")
    db.create_table(
        "nodes",
        [Column("id", INTEGER, nullable=False), Column("label", TEXT)],
    )
    server = SyncServer(db, use_sockets=True, heartbeat_interval=None)
    client = SyncClient(server)
    mirror = client.mirror("nodes")
    registry = ViewRegistry(db)
    registry.register(SelectProjectView("all_nodes", "nodes"))
    yield db, client, mirror
    client.close()
    server.close()


def drive_socket_update(db, client, mirror, base=0, rows=5):
    before = client.notify_received
    db.insert_many(
        "nodes", [{"id": base + i, "label": f"n{base + i}"} for i in range(rows)]
    )
    assert wait_for(lambda: client.notify_received > before), "NOTIFY never arrived"
    client.refresh("nodes")
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


def clear_link_registry():
    """Drop the in-process link registry, leaving frames as the only
    bridge -- exactly the situation of a true remote client."""
    tracer = obs.tracer()
    with tracer._lock:
        tracer._links.clear()


class TestSocketPropagation:
    def test_refresh_parents_via_frame_context(self, socket_pipeline, enabled_obs):
        db, client, mirror = socket_pipeline
        before = client.notify_received
        db.insert_many("nodes", [{"id": i, "label": f"n{i}"} for i in range(5)])
        assert wait_for(lambda: client.notify_received > before)
        clear_link_registry()  # frames must carry the context on their own
        client.refresh("nodes")

        (refresh,) = obs.tracer().spans_named("sync.mirror_refresh")
        assert refresh.tags["ctx_source"] == "frame"
        assert refresh.parent_id is not None
        # The adopted parent is the server-side notify span of this trace.
        notifies = obs.tracer().spans_named("sync.notify")
        assert refresh.trace_id in {s.trace_id for s in notifies}

    def test_every_stage_stitches_across_the_socket(self, socket_pipeline, enabled_obs):
        db, client, mirror = socket_pipeline
        drive_socket_update(db, client, mirror)
        report = propagation_report()
        assert report.missing_stages() == []
        assert set(report.stages) == set(STAGES)
        assert len({span.trace_id for span in report.spans}) == 1

    def test_notify_to_applied_latency_recorded(self, socket_pipeline, enabled_obs):
        db, client, mirror = socket_pipeline
        drive_socket_update(db, client, mirror)
        histograms = obs.metrics().snapshot()["histograms"]
        series = histograms["sync.notify_to_applied_ms{table=nodes}"]
        assert series["count"] >= 1
        assert series["p50"] is not None

    def test_frames_carry_ctx_only_while_tracing(self, socket_pipeline):
        db, client, mirror = socket_pipeline
        # Tracing off: every peer gets plain frames.
        before = client.notify_received
        db.insert("nodes", {"id": 1, "label": "a"})
        assert wait_for(lambda: client.notify_received > before)
        assert client._frame_contexts == {}
        client.refresh("nodes")
        assert len(mirror.all_rows()) == 1


class TestLegacyPeer:
    @pytest.fixture
    def legacy_handshake(self, monkeypatch):
        """A client whose HELLO still advertises an old ``caps`` list
        without ``trace``: the server reads nothing from it."""

        def handshake(stream, timeout=5.0):
            stream.send(dict(protocol.hello(), caps=["batch"]))
            assert stream.receive(timeout)["type"] == protocol.REPLY

        monkeypatch.setattr(
            "repro.sync.client.protocol.client_handshake", handshake
        )

    def test_legacy_peer_gets_ctx_and_still_syncs(
        self, legacy_handshake, socket_pipeline, enabled_obs
    ):
        db, client, mirror = socket_pipeline
        before = client.notify_received
        db.insert_many("nodes", [{"id": i, "label": f"n{i}"} for i in range(4)])
        assert wait_for(lambda: client.notify_received > before)
        # The frame carried the context like any other peer's...
        assert set(client._frame_contexts) == {"nodes"}
        clear_link_registry()
        # ...so the refresh joins the trace through it, and syncs.
        client.refresh("nodes")
        assert len(mirror.all_rows()) == 4
        (refresh,) = obs.tracer().spans_named("sync.mirror_refresh")
        assert refresh.tags["ctx_source"] == "frame"
