"""C10k-style fan-out: the sync server under a client fleet.

The protocol's callback model (server connects back to each client's
listener, Section VI-C) means N clients = N server-side sockets.  The
server encodes each flush's frame once and appends it once to the
table's send log; every client reads that log through its own cursor,
drained inline on a quiet plane and by one event loop for a burst, and a
client whose lag in the log passes the bound collapses: it skips to the
newest frame (``SyncServer.evictions`` counts these collapses).  This
benchmark is the scale probe for that plane:

* **Connect ramp**: registering N mirror clients back-to-back (listener
  accept + HELLO/REPLY handshake each).
* **Broadcast throughput**: ``BENCH_FANOUT_ROWS`` notifications pushed
  through ``server.broadcast()`` (the exact entry point a center flush
  uses), each fanned out to every client; reported as *deliveries/s*
  (frames actually received by the fleet), measured from first push
  until the last client has every frame.  The storage engine's per-row
  cost is measured elsewhere, so it stays out of this loop.
* **NOTIFY latency**: end-to-end per-delivery time from just before
  ``insert()`` to frame receipt at the client, sampled over quiet-state
  probes; p50/p99 across (client, probe) pairs.

The fleet itself is a single ``selectors`` loop on one thread -- no
per-client threads on the receiving side either, so 1k+ clients fit in
one process and the fleet never becomes the bottleneck being measured.

Every arm asserts that each client received each frame and that no
client collapsed (``evictions`` is 0); ``run_gates.py --check fanout``
re-reads that count from ``BENCH_fanout.json``.  The 4.3x this engine measured over the
retired thread-per-client engine is frozen in EXPERIMENTS.md; its
mechanism (one encode per frame, not per client) is pinned by
``tests/sync/test_async_server.py``.

Scale with ``BENCH_FANOUT_CLIENTS`` (default 1024; CI smoke runs 256).
"""

import os
import selectors
import socket
import statistics
import time

import pytest

from benchmarks.support import SeriesTable, Timer
from repro.db import Column, Database
from repro.db.types import INTEGER
from repro.sync import NotificationCenter, SyncServer
from repro.sync import protocol

CLIENTS = int(os.environ.get("BENCH_FANOUT_CLIENTS", "1024"))
BASELINE_CLIENTS = int(os.environ.get("BENCH_FANOUT_BASELINE_CLIENTS", "256"))
ROWS = int(os.environ.get("BENCH_FANOUT_ROWS", "200"))
LATENCY_PROBES = int(os.environ.get("BENCH_FANOUT_PROBES", "30"))


def _raise_nofile_limit(need: int) -> None:
    """Lift the soft RLIMIT_NOFILE toward the hard limit; 3 fds/client."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return
    soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    want = need * 3 + 256
    if soft < want:
        resource.setrlimit(resource.RLIMIT_NOFILE, (min(want, hard), hard))


class _FleetClient:
    """One simulated mirror client: a listener pre-handshake, then a
    connected socket whose inbound NOTIFY frames are counted byte-level
    (newline framing) with only sampled JSON decodes."""

    __slots__ = ("listener", "sock", "frames", "mark", "mark_ns", "tail")

    def __init__(self) -> None:
        self.listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self.listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self.listener.bind(("127.0.0.1", 0))
        self.listener.listen(1)
        self.listener.setblocking(False)
        self.sock = None
        self.frames = 0  # NOTIFY frames received (REPLY excluded)
        self.mark = 0  # frame count snapshot for the armed probe
        self.mark_ns = 0  # receipt time of the first post-mark frame
        self.tail = b""

    @property
    def port(self) -> int:
        return self.listener.getsockname()[1]

    def on_readable(self, decode_every: int) -> bool:
        """Drain the socket; returns False on EOF."""
        try:
            chunk = self.sock.recv(1 << 16)
        except (BlockingIOError, InterruptedError):
            return True
        if not chunk:
            return False
        data = self.tail + chunk
        lines = data.split(b"\n")
        self.tail = lines.pop()
        got = 0
        for line in lines:
            if self.frames == 0:
                # First complete frame is the handshake REPLY.
                message = protocol.decode(line)
                assert message["type"] == protocol.REPLY
            elif decode_every and (self.frames % decode_every) == 0:
                message = protocol.decode(line)
                assert message["type"] in (protocol.NOTIFY, protocol.NOTIFY_BATCH)
            self.frames += 1
            got += 1
        if got and self.mark_ns == 0 and self.frames > self.mark:
            self.mark_ns = time.perf_counter_ns()
        return True


class Fleet:
    """N clients on one selector loop, driven inline (no threads): the
    bench calls :meth:`pump` / :meth:`wait_frames` between server acts."""

    def __init__(self, n: int, decode_every: int = 64) -> None:
        _raise_nofile_limit(n)
        self.selector = selectors.DefaultSelector()
        self.decode_every = decode_every
        self.clients = [_FleetClient() for _ in range(n)]
        for client in self.clients:
            self.selector.register(client.listener, selectors.EVENT_READ, client)
        self.hello = protocol.encode(protocol.hello())

    def pump(self, timeout: float = 0.0) -> None:
        for key, _events in self.selector.select(timeout):
            client = key.data
            if key.fileobj is client.listener:
                try:
                    sock, _addr = client.listener.accept()
                except (BlockingIOError, InterruptedError):
                    continue
                sock.setblocking(False)
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                # The client side speaks first: HELLO, answered by REPLY.
                sock.sendall(self.hello)
                client.sock = sock
                self.selector.register(sock, selectors.EVENT_READ, client)
            elif not client.on_readable(self.decode_every):
                self.selector.unregister(key.fileobj)

    def wait_frames(self, per_client: int, timeout: float = 60.0) -> bool:
        """Pump until every client has >= per_client NOTIFY frames
        (frame 0 is the REPLY, hence the +1)."""
        deadline = time.monotonic() + timeout
        want = per_client + 1
        while time.monotonic() < deadline:
            if all(c.frames >= want for c in self.clients):
                return True
            self.pump(timeout=0.05)
        return all(c.frames >= want for c in self.clients)

    def connected(self) -> int:
        return sum(1 for c in self.clients if c.sock is not None)

    def arm_probe(self) -> None:
        for client in self.clients:
            client.mark = client.frames
            client.mark_ns = 0

    def probe_latencies_ms(self, start_ns: int) -> list[float]:
        return [
            (c.mark_ns - start_ns) / 1e6 for c in self.clients if c.mark_ns
        ]

    def close(self) -> None:
        for client in self.clients:
            if client.sock is not None:
                try:
                    self.selector.unregister(client.sock)
                except KeyError:
                    pass
                client.sock.close()
            try:
                self.selector.unregister(client.listener)
            except KeyError:
                pass
            client.listener.close()
        self.selector.close()


def _make_db() -> Database:
    db = Database()
    db.create_table(
        "pts",
        [Column("id", INTEGER, nullable=False), Column("x", INTEGER)],
        primary_key="id",
    )
    return db


def _run_arm(n_clients: int, rows: int, probes: int) -> dict:
    """One fan-out measurement: ramp, broadcast, latency."""
    db = _make_db()
    center = NotificationCenter(db)
    server = SyncServer(db, center, use_sockets=True, heartbeat_interval=None)
    fleet = Fleet(n_clients)
    try:
        # --- connect ramp: register + connect-back + handshake, N times.
        # register_client blocks until the client's HELLO arrives, so the
        # registrations run on a helper thread while this thread pumps
        # the fleet's accept loop.
        import threading

        failures: list[Exception] = []

        def registrar() -> None:
            try:
                for client in fleet.clients:
                    server.register_client("pts", "127.0.0.1", client.port)
            except Exception as exc:  # pragma: no cover - diagnostic
                failures.append(exc)

        with Timer() as ramp:
            reg = threading.Thread(target=registrar)
            reg.start()
            while reg.is_alive():
                fleet.pump(timeout=0.01)
            reg.join()
            while fleet.connected() < n_clients:
                fleet.pump(timeout=0.05)
        assert not failures, failures[0]
        assert server.client_count() == n_clients

        # --- broadcast throughput: the notification plane in isolation.
        # server.broadcast() is exactly where a center flush lands; the
        # storage engine's per-row cost (WAL, lineage, triggers) is
        # measured elsewhere (bench_fig8), so it stays out of this loop.
        with Timer() as burst:
            for i in range(rows):
                server.broadcast("pts", [("insert", i + 1)])
            assert fleet.wait_frames(rows)
        deliveries = rows * n_clients
        assert sum(c.frames for c in fleet.clients) == deliveries + n_clients
        assert server.evictions == 0

        # --- per-delivery latency, quiet state (one in-flight insert).
        samples: list[float] = []
        for i in range(probes):
            fleet.arm_probe()
            start_ns = time.perf_counter_ns()
            db.insert("pts", {"id": rows + i + 1, "x": i})
            assert fleet.wait_frames(rows + i + 1)
            samples.extend(fleet.probe_latencies_ms(start_ns))

        # --- saturation snapshot, taken while everything is still up:
        # event-loop lag / idle headroom and send-queue high watermarks
        # accumulated across the ramp + burst + probes above.
        health = server.health()
        evictions = server.evictions
    finally:
        fleet.close()
        server.close()
        center.close()
    samples.sort()
    return {
        "clients": n_clients,
        "ramp_ms": ramp.ms,
        "ramp_clients_per_s": n_clients / (ramp.ms / 1000.0),
        "broadcast_ms": burst.ms,
        "deliveries_per_s": deliveries / (burst.ms / 1000.0),
        "latency_p50_ms": statistics.median(samples),
        "latency_p99_ms": samples[min(len(samples) - 1, int(0.99 * len(samples)))],
        "evictions": evictions,
        "health": {
            "loop": health["loop"],
            "queues": health["queues"],
            "pending_ops": health["pending_ops"],
        },
    }


@pytest.fixture(scope="module")
def fanout_result(emit, emit_json):
    # The gate fan-out and full scale (the C10k headline number).
    arms = {
        n_clients: _run_arm(n_clients, ROWS, LATENCY_PROBES)
        for n_clients in sorted({BASELINE_CLIENTS, CLIENTS})
    }
    table = SeriesTable(
        "clients",
        [
            "ramp_ms",
            "broadcast_ms",
            "deliveries_per_s",
            "latency_p50_ms",
            "latency_p99_ms",
        ],
    )
    for n_clients, arm in arms.items():
        table.add(n_clients, {name: arm[name] for name in table.series_names})
    headline = arms[CLIENTS]
    extra = {
        "rows": ROWS,
        "clients": CLIENTS,
        "baseline_clients": BASELINE_CLIENTS,
        "arms": list(arms.values()),
        "fanout_gate": {
            "clients": CLIENTS,
            "evictions": sum(arm["evictions"] for arm in arms.values()),
            "broadcast_ms": headline["broadcast_ms"],
            "deliveries_per_s": headline["deliveries_per_s"],
            "latency_p99_ms": headline["latency_p99_ms"],
        },
    }
    emit(f"\n== NOTIFY fan-out, {ROWS} rows/arm (socket sync) ==")
    emit(table.format(unit="ms; deliveries_per_s in frames/s", width=17))
    emit(
        f"{CLIENTS} clients: {headline['deliveries_per_s']:,.0f} deliveries/s, "
        f"p99 {headline['latency_p99_ms']:.2f} ms"
    )
    loop = headline["health"]["loop"]
    queues = headline["health"]["queues"]
    emit(
        f"{CLIENTS} clients loop health: "
        f"lag p50 {loop['lag_ms']['p50'] or 0:.2f} ms "
        f"p99 {loop['lag_ms']['p99'] or 0:.2f} ms, "
        f"poll idle {loop['poll_idle_ratio']:.1%}; "
        f"queue hiwat {queues['hiwat_frames']} frames "
        f"/ {queues['hiwat_bytes']:,} bytes "
        f"(limit {queues['limit_frames']})"
    )
    emit_json("fanout", table, extra=extra)
    return arms


def test_full_scale_fanout_sustains(fanout_result):
    """The headline arm held every client and delivered every frame
    (asserted inside the arm); p99 stays in single-digit milliseconds
    territory relative to the broadcast interval."""
    headline = fanout_result[CLIENTS]
    assert headline["latency_p99_ms"] > 0.0
    assert headline["deliveries_per_s"] > 0.0


def test_ramp_scales(fanout_result):
    for arm in fanout_result.values():
        assert arm["ramp_clients_per_s"] > 50.0


def test_arms_report_loop_health(fanout_result):
    """Every arm lands a saturation snapshot in the JSON: loop lag
    quantiles observed (the loop serviced cross-thread submits) and
    queue high watermarks inside the collapse limits (nothing skipped)."""
    for arm in fanout_result.values():
        loop = arm["health"]["loop"]
        assert loop is not None and loop["iterations"] > 0
        assert loop["lag_ms"]["count"] > 0
        assert loop["lag_ms"]["p99"] is not None
        queues = arm["health"]["queues"]
        assert 0 < queues["hiwat_frames"] <= queues["limit_frames"]
