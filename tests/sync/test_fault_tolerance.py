"""Fault tolerance acceptance: heartbeats, reconnect + catch-up, polling
fallback.  Every scenario compares a faulted run against what an
uninterrupted run would have produced -- the mirrors must converge to
identical contents."""

import threading
import time


from repro.core import datamodel
from repro.db import Column, Database
from repro.db.types import FLOAT, INTEGER
from repro.retry import RetryPolicy
from repro.sync import (
    FaultPlan,
    FaultyTransport,
    NotificationCenter,
    SyncClient,
    SyncServer,
)
from repro.sync import client as client_mod

HB = 0.05  # heartbeat interval used throughout


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


def faulted_stack(plans, heartbeat_interval=HB, **client_kwargs):
    """Socket stack whose Nth callback connection runs plans[N]; later
    connections (i.e. after a reconnect) run clean."""
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
        heartbeat_interval=heartbeat_interval,
        transport_factory=factory,
    )
    client_kwargs.setdefault("reconnect", fast_reconnect())
    client_kwargs.setdefault("heartbeat_timeout", HB * 5)
    client = SyncClient(server, **client_kwargs)
    return db, server, client, transports


def hold_status(client, status):
    """Park the client in ``status`` until the returned event is set.

    A status hook runs on the thread that made the change, before that
    thread moves on (the lost link's reader reconnects after the
    RECONNECTING hooks), so ``wait_status`` on a transient state cannot
    miss it.
    """
    release = threading.Event()
    client.on_status(lambda new, _reason: new == status and release.wait(10.0))
    return release


def await_reconnect(client, release):
    """Wait for the loss, let recovery go on, wait for it to land."""
    assert client.wait_status(client_mod.RECONNECTING, timeout=10.0), "loss never seen"
    release.set()
    assert client.wait_status(client_mod.CONNECTED, timeout=10.0), "never reconnected"


def client_threads(before):
    """Threads started since ``before``, other than the server's loop."""
    return [
        t
        for t in threading.enumerate()
        if t not in before and t.name != "ediflow-sync-loop"
    ]


def wait_until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.005)
    return True


def contents(client):
    return sorted((r["id"], r["x"]) for r in client.table("pts").all_rows())


def uninterrupted_contents(n_rows):
    """What a run with a perfect network produces for the same inserts."""
    db = make_db()
    server = SyncServer(db, NotificationCenter(db), use_sockets=False)
    client = SyncClient(server)
    client.mirror("pts")
    for i in range(n_rows):
        db.insert("pts", {"id": i, "x": float(i)})
    client.refresh("pts")
    result = contents(client)
    client.close()
    server.close()
    return result


class TestReconnectAndCatchUp:
    def test_mid_session_kill_reconnect_replay_converge(self):
        """The acceptance scenario: FaultyTransport severs the server-side
        stream mid-session; the client must notice within the heartbeat
        window, reconnect under backoff, replay every missed notification
        from last_seq_no, and converge to the uninterrupted contents."""
        # Message 0 is the handshake REPLY; the connection dies on the
        # 4th send (NOTIFY or PING, whichever comes 4th).
        db, server, client, transports = faulted_stack(
            [FaultPlan(disconnect_at=3)]
        )
        events = []
        statuses = []
        client.on_notify(lambda table, op, seq: events.append((table, op, seq)))
        client.on_status(lambda status, reason: statuses.append((status, time.monotonic())))
        release = hold_status(client, client_mod.RECONNECTING)
        try:
            client.mirror("pts")
            lost_at = time.monotonic()
            for i in range(6):
                db.insert("pts", {"id": i, "x": float(i)})
            # Detection + reconnection: the client must come back as
            # CONNECTED (the second callback connection runs clean).
            await_reconnect(client, release)
            assert client.reconnects >= 1
            assert client.connection_lost_reason is not None
            # Detection happened within a few heartbeat windows, not on
            # some unrelated slow path.
            lost_events = [t for s, t in statuses if s == client_mod.RECONNECTING]
            assert lost_events, "loss was never surfaced via status hooks"
            assert lost_events[0] - lost_at < HB * 5 * 4 + 2.0
            # Replay: notifications fired while the link was down arrive
            # via the catch-up path, strictly ordered by seq_no.
            assert client.replayed_notifications >= 1
            seqs = [seq for _t, _op, seq in events]
            assert seqs == sorted(seqs) or client.notify_received > len(set(seqs))
            # Convergence: identical to a run that never faulted.
            client.refresh("pts")
            assert contents(client) == uninterrupted_contents(6)
            # The restored push path works for new changes too.
            db.insert("pts", {"id": 100, "x": 100.0})
            assert client.wait_dirty("pts", timeout=5.0)
            client.refresh("pts")
            assert (100, 100.0) in contents(client)
            assert transports[0].disconnected >= 1
        finally:
            client.close()
            server.close()

    def test_wait_status_is_woken_by_the_change(self):
        """``wait_status`` returns once the reconnect after a transport
        kill lands, and a status never reached times out on schedule."""
        db, server, client, _transports = faulted_stack([FaultPlan(disconnect_at=2)])
        release = hold_status(client, client_mod.RECONNECTING)
        try:
            client.mirror("pts")
            for i in range(3):
                db.insert("pts", {"id": i, "x": float(i)})
            await_reconnect(client, release)
            assert client.reconnects == 1
            started = time.monotonic()
            assert not client.wait_status("nope", timeout=0.2)
            assert 0.19 <= time.monotonic() - started < 1.0
        finally:
            client.close()
            server.close()

    def test_silent_link_detected_by_heartbeat_timeout(self):
        """A link that stays open but delivers nothing (every message
        dropped) must be declared dead by liveness monitoring alone."""
        db, server, client, transports = faulted_stack(
            [FaultPlan(drop=frozenset(range(1, 100000)))]
        )
        release = hold_status(client, client_mod.RECONNECTING)
        try:
            client.mirror("pts")
            lost_at = time.monotonic()
            for i in range(4):
                db.insert("pts", {"id": i, "x": float(i)})
            await_reconnect(client, release)
            detected_after = time.monotonic() - lost_at
            # Generous CI bound; nominal detection is one timeout (~0.3 s).
            assert detected_after < 8.0
            client.refresh("pts")
            assert contents(client) == uninterrupted_contents(4)
        finally:
            client.close()
            server.close()

    def test_client_deadline_alone_detects_a_silent_link(self):
        """The server never pings, so it never detaches a silent peer
        either: the client's reader deadline alone declares the link dead,
        and recovery reconnects, replays and converges."""
        db, server, client, _transports = faulted_stack(
            [FaultPlan(drop=frozenset(range(1, 100000)))],  # all but the REPLY
            heartbeat_interval=None,
            heartbeat_timeout=0.3,
        )
        lost = []
        client.on_status(
            lambda status, reason: status == client_mod.RECONNECTING
            and lost.append((reason, time.monotonic()))
        )
        release = hold_status(client, client_mod.RECONNECTING)
        try:
            started = time.monotonic()
            client.mirror("pts")
            for i in range(4):
                db.insert("pts", {"id": i, "x": float(i)})
            await_reconnect(client, release)
            reason, at = lost[0]
            assert reason == "heartbeat timeout"
            # Nominal detection is one deadline (0.3 s) after the REPLY.
            assert 0.3 <= at - started < 1.5
            assert client.reconnects >= 1
            assert client.replayed_notifications >= 4
            client.refresh("pts")
            table = sorted((r["id"], r["x"]) for r in db.table("pts").rows())
            assert contents(client) == table == uninterrupted_contents(4)
        finally:
            client.close()
            server.close()

    def test_reconnect_preserves_purge_invariant(self):
        """last_seq_no keeps protecting unconsumed notifications through
        the outage; after catch-up the purge horizon advances again."""
        db, server, client, _transports = faulted_stack([FaultPlan(disconnect_at=2)])
        release = hold_status(client, client_mod.RECONNECTING)
        try:
            client.mirror("pts")
            for i in range(5):
                db.insert("pts", {"id": i, "x": float(i)})
            await_reconnect(client, release)
            # Before the client consumed, nothing may purge past it.
            assert db.query(f"SELECT * FROM {datamodel.T_NOTIFICATION}") != []
            client.refresh("pts")
            assert server.purge_notifications() >= 1
            assert db.query(f"SELECT * FROM {datamodel.T_NOTIFICATION}") == []
        finally:
            client.close()
            server.close()


class TestPollingFallback:
    def test_degrades_to_polling_when_reconnect_impossible(self):
        """Second acceptance scenario: reconnection cannot succeed (the
        client's listener is gone), so after the retry budget the client
        flags the condition and keeps refreshing via the in-process
        polling path -- views degrade to stale-but-consistent, never
        frozen."""
        db, server, client, _transports = faulted_stack(
            [], reconnect=fast_reconnect(max_attempts=2)
        )
        statuses = []
        client.on_status(lambda status, reason: statuses.append(status))
        try:
            client.mirror("pts")
            # Make reconnection impossible, then sever the live stream.
            client._listener.close()
            server._endpoints[(client.host, client.port)].conn.transport.close()
            assert client.wait_status(client_mod.DEGRADED, timeout=10.0)
            assert client.connection_lost
            assert client.status == client_mod.DEGRADED
            assert client_mod.RECONNECTING in statuses
            # All mirrors were flagged dirty on loss: consumers re-pull
            # instead of trusting a silent link.
            assert "pts" in client.dirty_tables()
            # The polling path keeps the full notify -> dirty -> refresh
            # cycle alive.
            client.refresh("pts")
            for i in range(3):
                db.insert("pts", {"id": i, "x": float(i)})
            assert client.wait_dirty("pts", timeout=5.0)
            client.refresh("pts")
            assert contents(client) == uninterrupted_contents(3)
        finally:
            client.close()
            server.close()

    def test_degraded_client_closes_cleanly(self):
        db, server, client, _transports = faulted_stack(
            [], reconnect=fast_reconnect(max_attempts=1)
        )
        client.mirror("pts")
        client._listener.close()
        server._endpoints[(client.host, client.port)].conn.transport.close()
        assert client.wait_status(client_mod.DEGRADED, timeout=10.0)
        client.close()
        assert client.status == client_mod.CLOSED
        # The degraded-mode center listener is gone: new changes must not
        # touch the closed client.
        before = client.notify_received
        db.insert("pts", {"id": 9, "x": 9.0})
        assert client.notify_received == before
        server.close()


class TestHeartbeats:
    def test_pings_and_pongs_flow_on_a_healthy_link(self):
        db, server, client, _transports = faulted_stack([])
        try:
            client.mirror("pts")
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline and server.pongs_received < 2:
                time.sleep(0.01)
            assert server.pings_sent >= 2
            assert client.pongs_sent >= 2
            assert server.pongs_received >= 2
            assert client.status == client_mod.CONNECTED
            assert client.reconnects == 0
            assert server.connected_count() == 1
        finally:
            client.close()
            server.close()

    def test_heartbeats_disabled_means_no_liveness_threads(self):
        before = set(threading.enumerate())
        db = make_db()
        server = SyncServer(
            db, NotificationCenter(db), use_sockets=True, heartbeat_interval=None
        )
        client = SyncClient(server)
        try:
            client.mirror("pts")
            assert client.heartbeat_timeout is None
            # The client runs one thread, its reader; the server its loop.
            assert client_threads(before) == [client._reader]
            started = [t.name for t in threading.enumerate() if t not in before]
            assert len(started) == 2 and "ediflow-sync-loop" in started
            db.insert("pts", {"id": 1, "x": 1.0})
            assert client.wait_dirty("pts", timeout=5.0)
        finally:
            client.close()
            server.close()

    def test_a_link_is_one_thread_and_two_while_reconnecting(self):
        """Heartbeats on: the reader alone watches the deadline.  During a
        reconnect the lost link's reader runs beside the rendezvous helper,
        then beside its successor, and exits."""
        before = set(threading.enumerate())
        db, server, client, _transports = faulted_stack([FaultPlan(disconnect_at=2)])
        counts = {}

        def sample(point):
            counts.setdefault(point, []).append(len(client_threads(before)))

        reconnect_client = server.reconnect_client

        def counted_reconnect(host, port):
            sample("rendezvous")
            return reconnect_client(host, port)

        server.reconnect_client = counted_reconnect
        client.on_status(lambda status, _reason: sample(status))
        release = hold_status(client, client_mod.RECONNECTING)
        try:
            client.mirror("pts")
            assert client_threads(before) == [client._reader]
            for i in range(3):
                db.insert("pts", {"id": i, "x": float(i)})
            await_reconnect(client, release)
            assert wait_until(lambda: client_threads(before) == [client._reader])
            assert counts[client_mod.RECONNECTING] == [1]
            assert max(counts["rendezvous"]) == 2
            assert counts[client_mod.CONNECTED] == [2]
            assert client.reconnects == 1
        finally:
            client.close()
            server.close()


class TestServerBookkeepingUnderFaults:
    def test_unregister_is_idempotent_under_concurrency(self):
        db = make_db()
        server = SyncServer(db, NotificationCenter(db), use_sockets=False)
        cu_id = server.register_client("pts", "127.0.0.1", 1)
        results = []
        barrier = threading.Barrier(8)

        def racer():
            barrier.wait()
            results.append(server.unregister_client(cu_id))

        threads = [threading.Thread(target=racer) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert results.count(True) == 1
        assert results.count(False) == 7
        assert db.query(f"SELECT * FROM {datamodel.T_CONNECTED_USER}") == []
        server.close()

    def test_two_servers_on_one_database_hand_out_distinct_ids(self):
        """ConnectedUser ids come from the database's one set of id
        counters, not from a counter per server."""
        db = make_db()
        center = NotificationCenter(db)
        first = SyncServer(db, center, use_sockets=False)
        second = SyncServer(db, center, use_sockets=False)
        ids = [
            server.register_client("pts", "127.0.0.1", port)
            for port, server in enumerate([first, second, first], 1)
        ]
        assert ids == [1, 2, 3]
        rows = db.table(datamodel.T_CONNECTED_USER).rows()
        assert sorted(row["id"] for row in rows) == ids
        first.close()
        second.close()

    def test_notify_count_increments_only_after_successful_send(self):
        """The server counts no deliveries: the client counts what it
        heard, and the log plus its ``last_seq_no`` is the record of what
        it consumed."""
        db = make_db()
        server = SyncServer(
            db, NotificationCenter(db), use_sockets=True, heartbeat_interval=None
        )
        client = SyncClient(server, auto_reconnect=False)
        try:
            client.mirror("pts")
            db.insert("pts", {"id": 0, "x": 0.0})
            assert client.wait_dirty("pts", timeout=5.0)
            assert client.notify_received == 1
            # Sever the transport behind the server's back: the next
            # notify fails to send and detaches the endpoint.
            server._endpoints[(client.host, client.port)].conn.transport.close()
            db.insert("pts", {"id": 1, "x": 1.0})
            db.insert("pts", {"id": 2, "x": 2.0})
            assert server.detached_count() == 1
            # Nothing was lost: the log holds what the frames did not
            # carry, and the client's cursor says how far it consumed.
            client.refresh("pts")
            assert contents(client) == [(0, 0.0), (1, 1.0), (2, 2.0)]
            (cursor,) = db.table(datamodel.T_CONNECTED_USER).scan()
            newest = server.center.notifications_since("pts", 0)[-1][0]
            assert cursor["last_seq_no"] == client.table("pts").last_seq_no == newest
        finally:
            client.close()
            server.close()

    def test_evict_detached_drops_stale_registrations(self):
        db = make_db()
        server = SyncServer(
            db, NotificationCenter(db), use_sockets=True, heartbeat_interval=None
        )
        client = SyncClient(server, auto_reconnect=False)
        try:
            client.mirror("pts")
            server._endpoints[(client.host, client.port)].conn.transport.close()
            db.insert("pts", {"id": 0, "x": 0.0})  # detaches on failed send
            assert server.detached_count() == 1
            assert server.evict_detached(max_age=3600.0) == 0  # too young
            assert server.evict_detached(max_age=0.0) == 1
            assert server.client_count() == 0
            assert db.query(f"SELECT * FROM {datamodel.T_CONNECTED_USER}") == []
        finally:
            client.close()
            server.close()
