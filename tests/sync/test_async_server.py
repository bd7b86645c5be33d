"""The event-loop server engine: encode-once fan-out, bounded send
logs where a slow client skips to the newest frame, and graceful drain
on shutdown.

The protocol-level behavior (reconnect, replay, batching, traces) is
covered by the rest of the suite; this file pins the contracts of the
delivery engine itself."""

import socket
import threading
import time

import pytest

from repro.core import datamodel
from repro.db import Column, Database
from repro.db.schema import TID
from repro.db.types import FLOAT, INTEGER
from repro.errors import SyncError
from repro.retry import RetryPolicy
from repro.sync import MANUAL, NotificationCenter, SyncClient, SyncServer, protocol


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


def make_stack(**server_kwargs):
    db = make_db()
    center = NotificationCenter(db)
    server_kwargs.setdefault("use_sockets", True)
    server_kwargs.setdefault("heartbeat_interval", None)
    server = SyncServer(db, center, **server_kwargs)
    client = SyncClient(server, reconnect=fast_reconnect())
    return db, center, server, client


def contents(client):
    return sorted((r["id"], r["x"]) for r in client.table("pts").all_rows())


class _StubSock:
    """Wraps a real socket but refuses writes: the kernel-buffer-full
    condition, made deterministic."""

    def __init__(self, real):
        self._real = real
        self.blocked = True

    def send(self, data):
        if self.blocked:
            raise BlockingIOError("stubbed: kernel buffer full")
        return self._real.send(data)

    def __getattr__(self, name):
        return getattr(self._real, name)


def attach_raw_peers(server, n, caps):
    """Register ``n`` hand-rolled callback peers (no SyncClient); returns
    their connected sockets.  Each sends the fleet's bare HELLO, plus --
    when ``caps`` is non-empty -- the ``caps`` list older peers put in
    theirs, which the server reads nothing from."""
    hello = protocol.hello()
    if caps:
        hello["caps"] = caps
    connected = server.connected_count()
    listeners = []
    for _ in range(n):
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        listener.settimeout(5.0)
        listeners.append(listener)

    def register_all():
        for listener in listeners:
            server.register_client("pts", "127.0.0.1", listener.getsockname()[1])

    # register_client blocks on the peer's HELLO, so it runs beside the
    # accept loop.
    registrar = threading.Thread(target=register_all, daemon=True)
    registrar.start()
    socks = []
    for listener in listeners:
        sock, _ = listener.accept()
        sock.sendall(protocol.encode(hello))
        socks.append(sock)
        listener.close()
    registrar.join(timeout=10.0)
    assert server.connected_count() == connected + n
    return socks


def read_lines(sock, n):
    """The first ``n`` newline-framed lines a raw peer received, each
    with its newline: byte for byte what the server wrote."""
    sock.settimeout(5.0)
    data = b""
    while data.count(b"\n") < n:
        chunk = sock.recv(65536)
        if not chunk:
            break
        data += chunk
    return [line + b"\n" for line in data.split(b"\n")[:n]]


class TestAsyncEngine:
    def test_no_liveness_threads_even_with_heartbeats_on(self):
        """Heartbeats ride the event loop on the server, and the reader's
        receive deadline on the client: two threads in all, the loop and
        the client's reader."""
        before = set(threading.enumerate())
        db, _center, server, client = make_stack(heartbeat_interval=0.05)
        try:
            client.mirror("pts")
            started = [t for t in threading.enumerate() if t not in before]
            assert len(started) == 2
            assert client._reader in started
            (loop,) = [t for t in started if t is not client._reader]
            assert loop.name == "ediflow-sync-loop"
            # Liveness still works: pings flow and PONGs come back.
            assert wait_until(
                lambda: server.pings_sent >= 2 and server.pongs_received >= 2
            )
            assert server.connected_count() == 1
        finally:
            client.close()
            server.close()

    def test_notify_accounting_is_synchronous_on_healthy_links(self):
        db, _center, server, client = make_stack()
        try:
            client.mirror("pts")
            db.insert("pts", {"id": 1, "x": 1.0})
            # No sleeping: the idle-queue inline write put the frame on
            # the wire before insert() returned, nothing is left queued.
            assert server.queued_frames() == 0
            assert wait_until(lambda: client.notify_received == 1)
        finally:
            client.close()
            server.close()

    @pytest.mark.parametrize(
        "caps, with_client", [([], False), (["batch", "trace"], False), ([], True)]
    )
    def test_broadcast_encodes_per_variant_not_per_client(
        self, monkeypatch, caps, with_client
    ):
        """Encode-once is a count: one ``protocol.encode`` per broadcast,
        whose bytes every peer gets -- the fleet's bare HELLO, an older
        peer's ``caps`` list and a ``SyncClient`` among raw peers alike.
        A ``MANUAL`` flush of a two-op-kind delta is one NOTIFYB."""
        db = make_db()
        center = NotificationCenter(db)
        server = SyncServer(db, center, use_sockets=True, heartbeat_interval=None)
        seed = db.insert("pts", {"id": 100, "x": -1.0})  # unwatched: no frame
        client = SyncClient(server) if with_client else None
        if client is not None:
            client.mirror("pts")
        socks = attach_raw_peers(server, 1 if with_client else 8, caps)
        center.subscriptions["pts"].set_policy(MANUAL)
        for i in range(5):
            db.insert("pts", {"id": i, "x": float(i)})
        db.update_by_tid("pts", seed[TID], {"x": 99.0})
        real_encode, real_decode = protocol.encode, protocol.decode
        encoded, client_lines = [], []

        def counting_encode(message):
            encoded.append(real_encode(message))
            return encoded[-1]

        def recording_decode(line):
            client_lines.append(line + b"\n")
            return real_decode(line)

        monkeypatch.setattr(protocol, "encode", counting_encode)
        monkeypatch.setattr(protocol, "decode", recording_decode)
        try:
            center.subscriptions["pts"].flush()
            (frame,) = encoded
            message = real_decode(frame)
            assert message["type"] == protocol.NOTIFY_BATCH
            assert [op for op, _seq in protocol.batch_events(message)] == [
                "insert",
                "update",
            ]
            for sock in socks:
                assert read_lines(sock, 2)[1] == frame  # after the REPLY
            if client is not None:
                assert wait_until(lambda: client.batch_notifies_received == 1)
                assert client_lines == [frame]
        finally:
            if client is not None:
                client.close()
            server.close()
            for sock in socks:
                sock.close()

    def test_slow_client_collapses_at_queue_bound(self):
        db, _center, server, client = make_stack(max_queue_frames=16)
        heard = []
        client.on_notify(lambda _table, _op, seq: heard.append(seq))
        try:
            client.mirror("pts")
            endpoint = server._endpoints[(client.host, client.port)]
            conn = endpoint.conn
            assert conn is not None
            conn.sock = _StubSock(conn.sock)
            # Frames pile up in the send log...
            for i in range(10):
                db.insert("pts", {"id": i, "x": float(i)})
            assert server.queued_frames() == 10
            assert client.notify_received == 0
            # ...until the bound trips: the slow client skips to the
            # newest frame, on the same connection.
            for i in range(10, 30):
                db.insert("pts", {"id": i, "x": float(i)})
            assert server.evictions >= 1
            assert server.queued_frames() <= 17
            assert endpoint.conn is conn and not conn.closing
            assert server.detaches == 0
            assert client.reconnects == 0
            assert client.replayed_notifications == 0
            # Unstubbed, the newest frame arrives, and its seq-no makes one
            # refresh pull every skipped change, by last_seq_no.
            newest = server.center.events_since("pts", 0)[-1][0]
            conn.sock.blocked = False
            server._loop.submit(lambda: server._loop.service_conn(conn))
            assert wait_until(lambda: heard[-1:] == [newest])
            assert heard == sorted(heard)
            client.refresh("pts")
            assert contents(client) == [(i, float(i)) for i in range(30)]
            (cursor,) = db.table(datamodel.T_CONNECTED_USER).scan()
            assert cursor["last_seq_no"] == client.table("pts").last_seq_no > 0
        finally:
            client.close()
            server.close()

    def test_a_client_stalled_through_50000_broadcasts_is_never_detached(self):
        """50,000 commits to a client whose socket refuses every byte: it
        keeps its connection, its log holds at most the bound between
        broadcasts (one frame more inside one), and once it resumes one
        refresh converges."""
        from repro.sync import server as server_module

        db, _center, server, client = make_stack(max_queue_frames=16)
        loop = server._loop = server_module._EventLoop(server)  # held still
        heard = []
        client.on_notify(lambda _table, _op, seq: heard.append(seq))
        try:
            client.mirror("pts")
            conn = server._endpoints[(client.host, client.port)].conn
            conn.sock = _StubSock(conn.sock)
            log = server._logs["pts"]
            longest = 0
            for i in range(50_000):
                db.insert("pts", {"id": i, "x": float(i)})
                longest = max(longest, len(log.ends))
            # Inside a broadcast the log holds one frame past the bound,
            # until the collapse trims it.
            assert longest == server.max_queue_frames
            assert server.evictions >= 50_000 // 17
            assert server.detaches == 0 and not conn.closing
            conn.sock.blocked = False
            while loop._commands:
                loop._commands.popleft()[0]()
            loop.service_conn(conn)
            assert not conn.lag()[0]
            newest = server.center.events_since("pts", 0)[-1][0]
            assert wait_until(lambda: heard[-1:] == [newest])
            assert heard == sorted(heard)
            client.refresh("pts")
            assert contents(client) == [(i, float(i)) for i in range(50_000)]
            assert client.reconnects == 0
        finally:
            client.close()
            server.close()
            loop._selector.close()
            loop._rwake.close()
            loop._wwake.close()

    def test_close_drains_queued_frames_before_shutdown(self):
        db, _center, server, client = make_stack()
        received = []
        client.on_notify(lambda table, op, seq: received.append(seq))
        try:
            client.mirror("pts")
            for i in range(50):
                db.insert("pts", {"id": i, "x": float(i)})
            server.close()
            # Everything queued at close() time reached the client before
            # the FIN: the drain is graceful, not a truncation.
            assert wait_until(lambda: len(received) >= 50)
        finally:
            client.close()

    def test_externally_closed_socket_detaches_via_loop(self):
        """The event loop notices a read EOF even with heartbeats off."""
        db = make_db()
        center = NotificationCenter(db)
        server = SyncServer(db, center, use_sockets=True, heartbeat_interval=None)
        # No auto-reconnect: the only detach path is the loop's read EOF.
        client = SyncClient(server, auto_reconnect=False)
        try:
            client.mirror("pts")
            # Client kills its end (shutdown, so the FIN goes out even
            # with its reader thread mid-recv); the loop is watching
            # readability and detaches without any NOTIFY traffic.
            client._stream._sock.shutdown(socket.SHUT_RDWR)
            assert wait_until(lambda: server.detaches >= 1)
            assert server.client_count() == 1  # registration survives
        finally:
            client.close()
            server.close()

    def test_shared_endpoint_two_tables_one_connection(self):
        db, _center, server, client = make_stack()
        db.create_table(
            "aux",
            [Column("id", INTEGER, nullable=False), Column("x", FLOAT)],
            primary_key="id",
        )
        try:
            client.mirror("pts")
            client.mirror("aux")
            assert len(server._endpoints) == 1
            db.insert("pts", {"id": 1, "x": 1.0})
            db.insert("aux", {"id": 2, "x": 2.0})
            assert client.wait_dirty("pts", timeout=5.0)
            assert client.wait_dirty("aux", timeout=5.0)
            client.refresh("pts")
            client.refresh("aux")
            assert contents(client) == [(1, 1.0)]
        finally:
            client.close()
            server.close()


class _CountingLock:
    """A connection lock that records which threads acquire it."""

    def __init__(self):
        self._lock = threading.Lock()
        self.by_thread = {}

    def acquire(self, *args, **kwargs):
        ident = threading.get_ident()
        self.by_thread[ident] = self.by_thread.get(ident, 0) + 1
        return self._lock.acquire(*args, **kwargs)

    def release(self):
        self._lock.release()

    __enter__ = acquire

    def __exit__(self, *exc):
        self.release()


class TestSendLog:
    def test_a_burst_broadcast_touches_no_conn(self, monkeypatch):
        """A burst appends its frame once to the table's send log: the
        broadcasting thread takes no connection's lock (it took all 64
        per broadcast when each connection had its own queue), and every
        peer still gets every frame, in order."""
        from repro.sync import server as server_module

        bursts = 200
        db = make_db()
        server = SyncServer(
            db, NotificationCenter(db), use_sockets=True, heartbeat_interval=None
        )
        socks = attach_raw_peers(server, 64, [])
        try:
            server.broadcast("pts", [("insert", 1)])  # idle plane: inline
            locks = []
            for endpoint in server._endpoints.values():
                with endpoint.conn.lock:
                    endpoint.conn.lock = _CountingLock()
                locks.append(endpoint.conn.lock)
            monkeypatch.setattr(server_module, "BURST_COST_PER_LINK_S", 3600.0)
            for seq in range(2, bursts + 2):
                server.broadcast("pts", [("insert", seq)])
            me = threading.get_ident()
            assert [lock.by_thread.get(me, 0) for lock in locks] == [0] * 64
            want = [
                protocol.encode(protocol.notify("pts", seq, "insert"))
                for seq in range(1, bursts + 2)
            ]
            for sock in socks:
                assert read_lines(sock, bursts + 2)[1:] == want
            assert server.evictions == 0
            assert any(lock.by_thread for lock in locks)  # the loop drained
        finally:
            server.close()
            for sock in socks:
                sock.close()


    def test_concurrent_writers_lose_no_frame(self):
        """Three writers append to one log while the loop and the inline
        drains read it, under a short switch interval: every peer gets
        every frame once, all peers in the one order the log holds, and
        the drained log keeps nothing."""
        import sys

        writers, per_writer = 3, 150
        db = make_db()
        server = SyncServer(
            db, NotificationCenter(db), use_sockets=True, heartbeat_interval=None
        )
        socks = attach_raw_peers(server, 8, [])
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:

            def write(first):
                for seq in range(first, first + per_writer):
                    server.broadcast("pts", [("insert", seq)])

            threads = [
                threading.Thread(target=write, args=(1 + w * per_writer,))
                for w in range(writers)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(switch)
        try:
            total = writers * per_writer
            received = [read_lines(sock, total + 1)[1:] for sock in socks]
            seqs = [protocol.decode(line)["seq_no"] for line in received[0]]
            assert sorted(seqs) == list(range(1, total + 1))
            assert all(lines == received[0] for lines in received)
            assert server.evictions == 0
            assert wait_until(lambda: server.queued_frames() == 0)
            log = server._logs["pts"]
            assert wait_until(lambda: log.base == log.end and not log.ends)
        finally:
            server.close()
            for sock in socks:
                sock.close()


class TestAcceptFailureAccounting:
    def test_shutdown_accept_stays_silent(self):
        db, _center, server, client = make_stack()
        try:
            client.mirror("pts")
            assert client.accept_failures == 0
        finally:
            client.close()
            server.close()
        # close() tears the listener down; no counter increment for that.
        assert client.accept_failures == 0

    def test_real_accept_failure_is_counted(self):
        db = make_db()
        center = NotificationCenter(db)
        server = SyncServer(db, center, use_sockets=True, heartbeat_interval=None)
        client = SyncClient(server)
        try:
            client._open_listener()
            # Break the listener while the client still believes it is
            # healthy: accept() now fails with a real OSError.
            client._listener.close()
            with pytest.raises(SyncError, match="listener unusable"):
                client._accept_callback_connection(timeout=0.2)
            assert client.accept_failures == 1
        finally:
            client.close()
            server.close()


class TestHealth:
    """SyncServer.health(): one saturation snapshot, published as gauges."""

    def test_burst_broadcasts_move_the_high_watermark(self, monkeypatch):
        """The burst path appends without the general submit call; the
        watermark used to be recorded only there, so it under-read exactly
        when a queue was deepest."""
        from repro.sync import server as server_module

        burst = 40
        db, _center, server, client = make_stack()
        try:
            client.mirror("pts")
            conn = server._endpoints[(client.host, client.port)].conn
            conn.sock = _StubSock(conn.sock)
            server.broadcast("pts", [("insert", 1)])  # idle plane: written inline
            monkeypatch.setattr(server_module, "BURST_COST_PER_LINK_S", 3600.0)
            for seq in range(2, burst + 2):
                server.broadcast("pts", [("insert", seq)])
            assert server.evictions == 0
            assert server.queue_depths()["hiwat_frames"] >= burst
            # Recorded at the drain, not only read off the standing queue.
            conn.sock.blocked = False
            assert wait_until(lambda: server.queued_frames() == 0)
            queues = server.queue_depths()
            assert queues["hiwat_frames"] >= burst
            assert queues["hiwat_bytes"] > 0
        finally:
            client.close()
            server.close()

    def test_async_snapshot_reports_loop_and_queues(self):
        db, center, server, client = make_stack()
        try:
            client.mirror("pts")
            for i in range(20):
                db.insert("pts", {"id": i, "x": float(i)})
            client.wait_dirty("pts", timeout=5.0)
            # Healthy links are written inline by this thread, so the loop
            # may still be inside its first iteration (attaching the conn).
            assert wait_until(lambda: server._loop.iterations > 0)
            health = server.health()
            assert health["connected"] == 1
            loop = health["loop"]
            assert loop is not None and loop["iterations"] > 0
            lag = loop["lag_ms"]
            assert lag["count"] > 0 and lag["p99"] is not None
            assert 0.0 <= loop["poll_idle_ratio"] <= 1.0
            queues = health["queues"]
            assert queues["connections"] == 1
            # Twenty notifies crossed the wire: the high watermark moved.
            assert 1 <= queues["hiwat_frames"] <= queues["limit_frames"]
            assert queues["hiwat_bytes"] > 0
            assert health["pending_ops"] == 0  # immediate: nothing buffered
            center.subscriptions["pts"].set_policy(MANUAL)
            db.insert("pts", {"id": 100, "x": 0.0})
            db.insert("pts", {"id": 101, "x": 0.0})
            assert server.health()["pending_ops"] == 2
        finally:
            client.close()
            server.close()

    def test_health_gauges_land_in_sys_metrics(self):
        """The acceptance path: health() -> sync.health.* gauges -> a
        running TelemetrySink persists them into sys_metrics."""
        import repro.obs as obs
        from repro.obs.store import SYS_METRICS, TelemetrySink

        obs.disable()
        obs.reset()
        obs.enable()
        sink = None
        db, _center, server, client = make_stack()
        try:
            client.mirror("pts")
            for i in range(10):
                db.insert("pts", {"id": i, "x": float(i)})
            client.wait_dirty("pts", timeout=5.0)
            server.health()
            sink = TelemetrySink()
            sink.collect_and_flush()
            rows = sink.database.query(f"SELECT * FROM {SYS_METRICS}")
            stored = {r["name"] for r in rows if r["name"].startswith("sync.health.")}
            assert "sync.health.loop_lag_p99_ms" in stored
            assert "sync.health.loop_poll_idle_ratio" in stored
            assert "sync.health.queue_hiwat_frames" in stored
            assert "sync.health.connected" in stored
            connected = [
                r for r in rows if r["name"] == "sync.health.connected"
            ]
            assert any(r["value"] == 1.0 for r in connected)
            assert "sync.health.pending_ops" in stored
        finally:
            client.close()
            server.close()
            if sink is not None:
                sink.close()
            obs.disable()
            obs.reset()
