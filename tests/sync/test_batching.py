"""Propagation policies, delta coalescing, and batched NOTIFY frames."""

import time

import pytest

from repro.db import Column
from repro.db.schema import TID
from repro.db.table import ChangeSet
from repro.db.types import INTEGER, TEXT
from repro.errors import ProtocolError, SyncError
from repro.sync import (
    DeltaCoalescer,
    IMMEDIATE,
    Immediate,
    MANUAL,
    Manual,
    NotificationCenter,
    SyncClient,
    SyncServer,
    Threshold,
)
from repro.sync import protocol


def wait_until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.005)
    return False


def make_change(table="t", inserted=(), updated=(), deleted=()):
    change = ChangeSet(table)
    change.inserted.extend(inserted)
    change.updated.extend(updated)
    change.deleted.extend(deleted)
    return change


def row(tid, **cols):
    image = {TID: tid}
    image.update(cols)
    return image


# ----------------------------------------------------------------------
class TestPolicies:
    def test_immediate_always_flushes(self):
        assert Immediate().should_flush(1, 0.0)
        assert not IMMEDIATE.buffers

    def test_threshold_flushes_on_count_or_age(self):
        policy = Threshold(max_changes=3, max_delay_ms=50.0)
        assert policy.buffers
        assert not policy.should_flush(2, 10.0)
        assert policy.should_flush(3, 0.0)
        assert policy.should_flush(1, 50.0)

    def test_threshold_without_time_bound(self):
        policy = Threshold(max_changes=10, max_delay_ms=None)
        assert not policy.should_flush(9, 1e9)
        assert policy.should_flush(10, 0.0)

    def test_threshold_validation(self):
        with pytest.raises(SyncError):
            Threshold(max_changes=0)
        with pytest.raises(SyncError):
            Threshold(max_delay_ms=-1.0)

    def test_manual_never_auto_flushes(self):
        assert not Manual().should_flush(10**9, 1e9)
        assert MANUAL.buffers


class TestDeltaCoalescer:
    def test_insert_update_collapses_to_insert(self):
        c = DeltaCoalescer("t")
        c.add(make_change(inserted=[row(1, x=1)]))
        c.add(make_change(updated=[(row(1, x=1), row(1, x=2))]))
        net = c.net_changeset()
        assert [r["x"] for r in net.inserted] == [2]
        assert not net.updated and not net.deleted
        assert c.raw_ops == 2 and c.net_ops() == 1 and c.coalesced_away() == 1

    def test_insert_delete_is_a_noop(self):
        c = DeltaCoalescer("t")
        c.add(make_change(inserted=[row(1, x=1)]))
        c.add(make_change(deleted=[row(1, x=1)]))
        assert c.is_empty()
        assert c.coalesced_away() == 2

    def test_update_update_keeps_first_before_last_after(self):
        c = DeltaCoalescer("t")
        c.add(make_change(updated=[(row(1, x=1), row(1, x=2))]))
        c.add(make_change(updated=[(row(1, x=2), row(1, x=3))]))
        ((before, after),) = c.net_changeset().updated
        assert before["x"] == 1 and after["x"] == 3

    def test_update_delete_keeps_original_before_image(self):
        c = DeltaCoalescer("t")
        c.add(make_change(updated=[(row(1, x=1), row(1, x=2))]))
        c.add(make_change(deleted=[row(1, x=2)]))
        (tombstone,) = c.net_changeset().deleted
        assert tombstone["x"] == 1

    def test_delete_insert_becomes_update(self):
        c = DeltaCoalescer("t")
        c.add(make_change(deleted=[row(1, x=1)]))
        c.add(make_change(inserted=[row(1, x=9)]))
        ((before, after),) = c.net_changeset().updated
        assert before["x"] == 1 and after["x"] == 9

    def test_distinct_tids_do_not_interact(self):
        c = DeltaCoalescer("t")
        c.add(make_change(inserted=[row(1, x=1), row(2, x=2)]))
        c.add(make_change(deleted=[row(2, x=2)]))
        net = c.net_changeset()
        assert [r[TID] for r in net.inserted] == [1]
        assert not net.deleted  # insert+delete annihilated tid 2

    def test_table_mismatch_rejected(self):
        c = DeltaCoalescer("t")
        with pytest.raises(SyncError):
            c.add(make_change(table="other", inserted=[row(1)]))

    def test_burst_insert_then_delete_flushes_to_nothing(self):
        c = DeltaCoalescer("t")
        c.add(make_change(inserted=[row(i) for i in range(1000)]))
        c.add(make_change(deleted=[row(i) for i in range(1000)]))
        assert c.is_empty() and c.coalesced_away() == 2000


# ----------------------------------------------------------------------
class TestProtocolFrames:
    def test_notify_batch_round_trip(self):
        frame = protocol.notify_batch(
            "t", [("insert", 3), ("update", 4), ("delete", 7)]
        )
        decoded = protocol.decode(protocol.encode(frame))
        assert decoded["type"] == protocol.NOTIFY_BATCH
        assert decoded["lo"] == 3 and decoded["hi"] == 7
        assert protocol.batch_events(decoded) == [
            ("insert", 3),
            ("update", 4),
            ("delete", 7),
        ]

    def test_empty_batch_rejected(self):
        with pytest.raises(ProtocolError):
            protocol.notify_batch("t", [])

    def test_malformed_events_rejected(self):
        with pytest.raises(ProtocolError):
            protocol.batch_events({"type": protocol.NOTIFY_BATCH, "events": []})
        with pytest.raises(ProtocolError):
            protocol.batch_events(
                {"type": protocol.NOTIFY_BATCH, "events": [["insert"]]}
            )


# ----------------------------------------------------------------------
@pytest.fixture
def stack(db):
    db.create_table(
        "pts",
        [Column("id", INTEGER, nullable=False), Column("x", INTEGER)],
        primary_key="id",
    )
    server = SyncServer(db, NotificationCenter(db), use_sockets=True)
    client = SyncClient(server)
    mirror = client.mirror("pts")
    yield db, server, client, mirror
    client.close()
    server.close()
    server.center.close()


class TestCenterPolicies:
    def test_threshold_buffers_then_flushes_net_delta(self, db):
        db.create_table("t", [Column("id", INTEGER), Column("v", TEXT)])
        center = NotificationCenter(db)
        center.watch("t")
        batches = []
        center.add_batch_listener(lambda table, events: batches.append(events))
        edge = center.subscriptions["t"]
        edge.set_policy(Threshold(max_changes=100, max_delay_ms=None))
        for i in range(10):
            db.insert("t", {"id": i, "v": str(i)})
        assert center.subscriptions["t"].pending_ops() == 10
        assert batches == []
        shipped = center.subscriptions["t"].flush()
        assert shipped == 10
        # 10 coalesced inserts become ONE seq-no (one op kind), one call.
        assert len(batches) == 1 and len(batches[0]) == 1
        assert center.subscriptions["t"].pending_ops() == 0
        center.close()

    def test_insert_delete_burst_flushes_to_zero(self, db):
        db.create_table("t", [Column("id", INTEGER)])
        center = NotificationCenter(db)
        center.watch("t")
        center.subscriptions["t"].set_policy(MANUAL)
        rows = [db.insert("t", {"id": i}) for i in range(50)]
        for r in rows:
            db.delete_by_tids("t", [r[TID]])
        assert center.subscriptions["t"].flush() == 0  # everything coalesced away
        assert center.subscriptions["t"].coalesced_ops == 100
        center.close()

    def test_timer_flushes_aged_batches(self, db):
        db.create_table("t", [Column("id", INTEGER)])
        center = NotificationCenter(db)
        center.watch("t")
        center.watch("t").set_policy(Threshold(max_changes=10**6, max_delay_ms=20.0))
        db.insert("t", {"id": 1})
        assert wait_until(lambda: center.subscriptions["t"].pending_ops() == 0, timeout=2.0)
        _newest, changes = center.changes_since("t", 0)
        assert len(changes) == 1
        center.close()

    def test_close_flushes_everything(self, db):
        db.create_table("t", [Column("id", INTEGER)])
        center = NotificationCenter(db)
        center.watch("t")
        center.subscriptions["t"].set_policy(MANUAL)
        db.insert("t", {"id": 1})
        center.close()
        _newest, changes = center.changes_since("t", 0)
        assert len(changes) == 1


# ----------------------------------------------------------------------
class TestBatchedNotifyEndToEnd:
    def test_batch_capable_client_gets_one_frame(self, stack):
        db, server, client, mirror = stack
        # One row exists before batching starts, so updating it inside
        # the batch window nets an *update* (not a coalesced insert) and
        # the flush carries two op kinds -> two seqs -> one NOTIFYB.
        seed = db.insert("pts", {"id": 100, "x": -1})
        edge = server.center.subscriptions["pts"]
        edge.set_policy(Threshold(max_changes=64, max_delay_ms=None))
        for i in range(10):
            db.insert("pts", {"id": i + 1, "x": i})
        db.update_by_tid("pts", seed[TID], {"x": 99})
        server.center.subscriptions["pts"].flush()
        assert wait_until(lambda: client.batch_notifies_received >= 1)
        assert client.wait_dirty("pts")
        client.refresh("pts")
        rows = {r["id"]: r["x"] for r in mirror.all_rows()}
        assert rows[100] == 99
        assert {i + 1 for i in range(10)} <= set(rows)

    def test_single_event_flush_uses_plain_notify(self, stack):
        db, server, client, mirror = stack
        server.center.subscriptions["pts"].set_policy(MANUAL)
        db.insert("pts", {"id": 1, "x": 1})
        server.center.subscriptions["pts"].flush()
        assert wait_until(lambda: client.notify_received >= 1)
        assert client.batch_notifies_received == 0  # one event, one NOTIFY

    def test_reconnect_mid_batch_replays_without_double_apply(self, stack):
        """A client detached across a flush must converge exactly once."""
        db, server, client, mirror = stack
        edge = server.center.subscriptions["pts"]
        edge.set_policy(Threshold(max_changes=10**6, max_delay_ms=None))
        for i in range(20):
            db.insert("pts", {"id": i + 1, "x": i})
        # Kill the transport while the batch is still buffered server-side.
        endpoint = server._endpoints[(client.host, client.port)]
        endpoint.conn.transport.close()
        server.center.subscriptions["pts"].flush()  # delivery fails; the log keeps it
        assert wait_until(lambda: client.status == "connected" and client.reconnects >= 1)
        assert client.wait_dirty("pts")
        client.refresh("pts")
        assert wait_until(lambda: len(mirror) == 20)
        # Replay must not double-apply: every row arrived as one insert.
        assert mirror.applied_inserts == 20
        assert mirror.applied_updates == 0
        rows = {r["id"]: r["x"] for r in mirror.all_rows()}
        assert rows == {i + 1: i for i in range(20)}

    def test_evict_detached_with_buffered_batches(self, stack):
        db, server, client, mirror = stack
        server.center.subscriptions["pts"].set_policy(MANUAL)
        endpoint = server._endpoints[(client.host, client.port)]
        # Stop the client from auto-reconnecting so the link stays down.
        client.auto_reconnect = False
        endpoint.conn.transport.close()
        for i in range(5):
            db.insert("pts", {"id": i + 1, "x": i})
        server.center.subscriptions["pts"].flush()
        assert wait_until(lambda: server.detached_count() >= 1)
        assert server.evict_detached(max_age=0.0) == 1
        assert server.client_count() == 0
        # With the dead registration gone, the purge horizon advances and
        # the batched notifications can be reclaimed.
        assert server.purge_notifications() > 0
