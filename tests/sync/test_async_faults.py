"""Fault injection through the async event loop.

The same :class:`FaultPlan` schedules that drive the handshake's
blocking sends act on the bytes the event loop writes from the send
logs: the socket under a :class:`FaultyTransport` rewrites each frame.
Truncated frames flush their partial bytes before the sever, delays hold
the socket back without blocking the notifying thread, kernel push-back
strands no frame in the wrapper, a slow reader skips to the newest
frame, and every failure converges back to byte-identical mirrors via a
refresh or the ordinary reconnect/replay machinery."""

import selectors
import time

import pytest

from repro.db import Column, Database
from repro.db.types import FLOAT, INTEGER
from repro.retry import RetryPolicy
from repro.sync import (
    FaultPlan,
    FaultyTransport,
    NotificationCenter,
    SyncClient,
    SyncServer,
    protocol,
)
from repro.sync import server as server_module

from .test_send_log_model import Valve


def wait_until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.005)
    return predicate()


def fast_reconnect(max_attempts=10):
    return RetryPolicy(
        max_attempts=max_attempts,
        base_delay=0.01,
        multiplier=1.5,
        max_delay=0.1,
        jitter=0.5,
        retryable=(OSError, Exception),
    )


def make_db():
    db = Database()
    db.create_table(
        "pts",
        [Column("id", INTEGER, nullable=False), Column("x", FLOAT)],
        primary_key="id",
    )
    return db


def faulted_stack(plans, heartbeat=0.05, **server_kwargs):
    """Socket stack whose Nth callback connection runs
    plans[N]; later connections (after a reconnect) run clean."""
    db = make_db()
    center = NotificationCenter(db)
    queue = list(plans)
    transports = []

    def factory(stream):
        plan = queue.pop(0) if queue else None
        transport = FaultyTransport(stream, plan)
        transports.append(transport)
        return transport

    server = SyncServer(
        db,
        center,
        use_sockets=True,
        heartbeat_interval=heartbeat,
        transport_factory=factory,
        **server_kwargs,
    )
    client = SyncClient(
        server, reconnect=fast_reconnect(), heartbeat_timeout=0.25
    )
    return db, server, client, transports


def contents(client):
    return sorted((r["id"], r["x"]) for r in client.table("pts").all_rows())


def source_contents(db):
    return sorted((r["id"], r["x"]) for r in db.table("pts").scan())


class TestAsyncFaultInjection:
    def test_truncated_frame_flushes_partial_bytes_then_converges(self):
        """Index 0 is the handshake REPLY (sent on the blocking path);
        index 1 -- the first NOTIFY -- is cut mid-frame by the event
        loop, which must still flush the partial bytes before killing
        the connection."""
        db, server, client, transports = faulted_stack(
            [FaultPlan(truncate_at=1)]
        )
        try:
            client.mirror("pts")
            db.insert("pts", {"id": 0, "x": 0.0})
            assert wait_until(lambda: transports[0].truncated == 1)
            assert wait_until(lambda: client.reconnects >= 1)
            # The sever shut the socket down; retiring the link closed it.
            assert wait_until(lambda: transports[0]._sock.fileno() == -1)
            # The cut frame never reached the client as a NOTIFY: what it
            # took in, it took from the log's replay.
            assert wait_until(lambda: client.replayed_notifications >= 1)
            assert client.notify_received == client.replayed_notifications
            for i in range(1, 5):
                db.insert("pts", {"id": i, "x": float(i)})
            assert wait_until(
                lambda: client.refresh("pts") is not None
                and contents(client) == source_contents(db)
            )
        finally:
            client.close()
            server.close()

    def test_disconnect_mid_stream_evicts_and_replays(self):
        db, server, client, transports = faulted_stack(
            [FaultPlan(disconnect_at=2)]
        )
        try:
            client.mirror("pts")
            for i in range(8):
                db.insert("pts", {"id": i, "x": float(i)})
            assert transports[0].disconnected >= 1
            assert wait_until(lambda: client.reconnects >= 1)
            assert wait_until(
                lambda: client.refresh("pts") is not None
                and contents(client) == source_contents(db)
            )
            assert server.detaches >= 1
            assert server.reattaches >= 1
        finally:
            client.close()
            server.close()

    def test_delayed_frame_defers_credit_without_blocking_writers(self):
        """A fault-injected delay holds the frame back at the socket; the
        insert returns immediately and the client hears the NOTIFY only
        when the loop's timer services the link after the deadline."""
        db, server, client, transports = faulted_stack(
            [FaultPlan(delay={1: 0.2})], heartbeat=None
        )
        try:
            client.mirror("pts")
            started = time.monotonic()
            db.insert("pts", {"id": 0, "x": 0.0})
            insert_latency = time.monotonic() - started
            # The notifying thread never slept the 200ms.
            assert insert_latency < 0.15
            assert server.queued_frames() == 1
            assert transports[0].delayed == 1
            assert wait_until(lambda: client.notify_received == 1)
            assert time.monotonic() - started >= 0.2
            client.refresh("pts")
            assert contents(client) == [(0, 0.0)]
        finally:
            client.close()
            server.close()

    def test_dropped_notify_recovered_by_later_refresh(self):
        """A dropped NOTIFY costs no link (the wire ate it, not us); the
        client recovers the change when the next NOTIFY triggers a
        cumulative refresh from its last_seq_no."""
        db, server, client, transports = faulted_stack(
            [FaultPlan(drop={1})], heartbeat=None
        )
        try:
            client.mirror("pts")
            db.insert("pts", {"id": 0, "x": 0.0})
            assert transports[0].dropped == 1
            assert server.queued_frames() == 0
            assert server.detaches == 0
            db.insert("pts", {"id": 1, "x": 1.0})
            assert wait_until(lambda: client.notify_received >= 1)
            client.refresh("pts")
            assert contents(client) == [(0, 0.0), (1, 1.0)]
        finally:
            client.close()
            server.close()

    def test_duplicate_and_reorder_ride_the_queue(self):
        """Duplicated and held/reordered frames pass through the queue
        byte-for-byte; the client's seq-cursor refresh absorbs both."""
        db, server, client, transports = faulted_stack(
            [FaultPlan(duplicate={1}, hold={2: 3})], heartbeat=None
        )
        try:
            client.mirror("pts")
            for i in range(4):
                db.insert("pts", {"id": i, "x": float(i)})
            assert transports[0].duplicated == 1
            assert wait_until(lambda: transports[0].reordered == 1)
            assert wait_until(
                lambda: client.refresh("pts") is not None
                and contents(client) == source_contents(db)
            )
        finally:
            client.close()
            server.close()

    def test_slow_reader_collapse_leaves_mirror_byte_identical(self):
        """The collapse path under a fault plan: a slow reader trips the
        bound, skips to the newest frame on the same connection, and the
        mirror converges to the source bytes after one refresh."""
        db, server, client, transports = faulted_stack(
            [FaultPlan()], heartbeat=None, max_queue_frames=8
        )
        heard = []
        client.on_notify(lambda _table, _op, seq: heard.append(seq))
        try:
            client.mirror("pts")
            endpoint = server._endpoints[(client.host, client.port)]
            conn = endpoint.conn

            class Stub:
                def __init__(self, real):
                    self._real = real
                    self.blocked = True

                def send(self, data):
                    if self.blocked:
                        raise BlockingIOError("stubbed full buffer")
                    return self._real.send(data)

                def __getattr__(self, name):
                    return getattr(self._real, name)

            conn.sock = Stub(conn.sock)
            for i in range(20):
                db.insert("pts", {"id": i, "x": float(i)})
            assert server.evictions >= 1
            assert server.queued_frames() <= 9
            assert endpoint.conn is conn and not conn.closing
            assert server.detaches == 0
            assert client.reconnects == 0
            assert client.replayed_notifications == 0
            newest = server.center.events_since("pts", 0)[-1][0]
            conn.sock.blocked = False
            server._loop.submit(lambda: server._loop.service_conn(conn))
            assert wait_until(lambda: heard[-1:] == [newest])
            assert heard == sorted(heard)
            client.refresh("pts")
            assert contents(client) == source_contents(db)
            assert contents(client) == [(i, float(i)) for i in range(20)]
        finally:
            client.close()
            server.close()

    def test_rate_based_faults_converge_under_load(self):
        """Seeded probabilistic drops/duplicates through the event loop:
        deterministic schedule, eventual convergence."""
        db, server, client, transports = faulted_stack(
            [FaultPlan(drop_rate=0.2, duplicate_rate=0.2)], heartbeat=None
        )
        try:
            client.mirror("pts")
            for i in range(30):
                db.insert("pts", {"id": i, "x": float(i)})
            # Inserts faster than the burst window leave their frames to
            # the loop: the schedule is read once it has planned all 30.
            assert wait_until(lambda: transports[0].sent >= 30)
            assert transports[0].dropped >= 1
            assert transports[0].duplicated >= 1
            # One clean closing NOTIFY guarantees a fresh refresh trigger.
            db.insert("pts", {"id": 1000, "x": 0.5})
            assert wait_until(
                lambda: client.refresh("pts") is not None
                and contents(client) == source_contents(db)
            )
        finally:
            client.close()
            server.close()


#: A NOTIFY frame of the test below (every one is this long).
FRAME = len(protocol.encode(protocol.notify("pts", 1, "insert")))


@pytest.mark.parametrize("budget", [0, 5, FRAME + 5, 2 * FRAME, 4 * FRAME - 5])
def test_kernel_push_back_strands_no_frame_in_the_fault_wrapper(
    monkeypatch, budget
):
    """Heartbeats off, a faulted link whose real socket takes ``budget``
    bytes of a three-frame write (four frames on the wire: the plan
    duplicates the second), up to a few bytes short of the end, and then
    refuses.  The loop waits for writability, and one service of the
    writable socket puts every frame on the wire: none sits in the
    wrapper until some later frame or PING happens to push it out."""
    db = make_db()
    server = SyncServer(
        db,
        NotificationCenter(db),
        use_sockets=True,
        heartbeat_interval=None,
        transport_factory=lambda s: FaultyTransport(s, FaultPlan(duplicate={2})),
    )
    loop = server_module._EventLoop(server)  # held still: stepped below
    server._loop = loop
    client = SyncClient(server, auto_reconnect=False)
    try:
        client.mirror("pts")
        conn = server._endpoints[(client.host, client.port)].conn
        wrapper = conn.sock
        valve = wrapper._sock = Valve(wrapper._sock)
        valve.mode, valve.budget = "metered", budget
        monkeypatch.setattr(server_module, "BURST_COST_PER_LINK_S", 3600.0)
        for seq in (1, 2, 3):
            server.broadcast("pts", [("insert", seq)])
        for _ in range(3):  # attach, the drain, the loop's first service
            while loop._commands:
                loop._commands.popleft()[0]()
        assert conn.want_write and conn.lag()[0] > 0
        assert conn.events == selectors.EVENT_READ | selectors.EVENT_WRITE
        assert conn not in loop._delayed
        valve.mode = "open"  # the socket is writable again
        loop.service_conn(conn)
        assert conn.lag() == (0, 0) and wrapper._out == b""
        assert not conn.want_write and conn.events == selectors.EVENT_READ
        # Frame 2 (send index 2) is duplicated by the plan.
        assert wait_until(lambda: client.notify_received == 4)
    finally:
        client.close()
        server.close()
        loop._selector.close()
        loop._rwake.close()
        loop._wwake.close()
