"""Ablation A6: fault tolerance of the notification path.

Design choice under test: the Section VI-C protocol ships *compact*
notifications and lets clients pull changed rows from R_D keyed by
``last_seq_no``.  A lossy or dying transport therefore costs **latency,
never data**: dropped NOTIFYs are recovered by the next pull, a severed
connection by heartbeat detection + reconnect + seq-no replay, and an
unrecoverable one by degrading to in-process polling.

We drive the full register -> NOTIFY -> refresh cycle over a seeded
:class:`~repro.sync.faults.FaultyTransport` at increasing drop rates and
under repeated forced disconnects, and check the shape that matters:
delivery degrades with the fault rate, convergence never does.
"""

import time

import pytest

from benchmarks.support import SeriesTable, Timer
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

DROP_RATES = (0.0, 0.1, 0.3)
N_ROWS = 200
HB = 0.05


def fresh_stack(plans, seed=7, heartbeat=HB):
    db = Database()
    db.create_table(
        "pts",
        [Column("id", INTEGER, nullable=False), Column("x", FLOAT)],
        primary_key="id",
    )
    center = NotificationCenter(db)
    queue = list(plans)
    transports = []

    def factory(stream):
        plan = queue.pop(0) if queue else None
        transport = FaultyTransport(stream, plan, seed=seed)
        transports.append(transport)
        return transport

    server = SyncServer(
        db,
        center,
        use_sockets=True,
        heartbeat_interval=heartbeat,
        transport_factory=factory,
    )
    client = SyncClient(
        server,
        reconnect=RetryPolicy(
            max_attempts=20,
            base_delay=0.01,
            multiplier=1.5,
            max_delay=0.1,
            retryable=(OSError, Exception),
        ),
        heartbeat_timeout=HB * 5 if heartbeat is not None else None,
    )
    client.mirror("pts")
    return db, server, client, transports


def mirrored(client):
    return sorted(r["id"] for r in client.table("pts").all_rows())


@pytest.fixture(scope="module")
def faults_table(emit, emit_json):
    table = SeriesTable(
        "drop_pct", ["insert_ms", "converge_ms", "delivered", "dropped", "converged"]
    )
    for rate in DROP_RATES:
        plans = [FaultPlan(drop_rate=rate)] if rate > 0 else [None]
        # Liveness off for the sweep: heartbeat PINGs would consume RNG
        # draws (schedule becomes timing-dependent) and reconnect replay
        # would inflate the delivery count we are measuring.
        db, server, client, transports = fresh_stack(plans, heartbeat=None)
        with Timer() as t_insert:
            for i in range(N_ROWS):
                db.insert("pts", {"id": i, "x": float(i)})
        with Timer() as t_converge:
            client.refresh("pts")
        converged = mirrored(client) == list(range(N_ROWS))
        # The client's reader thread takes the frames in on its own time:
        # wait (bounded) until it holds every frame the wire did not drop.
        dropped = transports[0].dropped
        deadline = time.monotonic() + 10.0
        while (
            client.notify_received < N_ROWS - dropped
            and time.monotonic() < deadline
        ):
            time.sleep(0.005)
        table.add(
            rate * 100,
            {
                "insert_ms": t_insert.ms,
                "converge_ms": t_converge.ms,
                "delivered": float(client.notify_received),
                "dropped": float(dropped),
                "converged": 1.0 if converged else 0.0,
            },
        )
        client.close()
        server.close()
    emit(
        "\n== Ablation A6: notify->pull under a lossy wire "
        f"({N_ROWS} statements, seeded drop rates) =="
    )
    emit(table.format())
    emit_json("ablation_faults", table)
    return table


def test_a6_drops_cost_delivery_never_data(faults_table, benchmark):
    benchmark(lambda: None)
    delivered = faults_table.series("delivered")
    dropped = faults_table.series("dropped")
    converged = faults_table.series("converged")
    # Every frame the wire did not drop arrives, and no other...
    assert delivered == [N_ROWS - d for d in dropped]
    # ...so delivery shrinks as the wire gets worse...
    assert delivered[0] >= delivered[-1]
    # ...but every run converged to the exact table contents.
    assert converged == [1.0] * len(DROP_RATES)


def test_a6_reconnect_storm_recovers_every_row(faults_table, benchmark):
    """Three consecutive forced disconnects mid-burst: the client must
    reconnect each time and still converge via seq-no replay."""
    plans = [FaultPlan(disconnect_at=5)] * 3
    db, server, client, transports = fresh_stack(plans)
    with Timer() as t_total:
        for i in range(60):
            db.insert("pts", {"id": i, "x": float(i)})
            time.sleep(0.002)  # let NOTIFYs (and deaths) interleave
        deadline = time.monotonic() + 15.0
        while time.monotonic() < deadline and client.reconnects < 3:
            time.sleep(0.01)
        client.refresh("pts")
    assert client.reconnects >= 3, f"expected 3+ reconnects, got {client.reconnects}"
    assert mirrored(client) == list(range(60))
    assert sum(t.disconnected for t in transports) >= 3

    def kernel():
        db.insert("pts", {"id": kernel.n, "x": 0.0})
        kernel.n += 1
        client.refresh("pts")

    kernel.n = 1000
    benchmark(kernel)
    client.close()
    server.close()


def test_a6_heartbeat_overhead_is_bounded(faults_table, benchmark):
    """Liveness costs a few tiny messages per second, not throughput:
    the notify->refresh hot path is unchanged by heartbeats."""
    db, server, client, _transports = fresh_stack([None])
    benchmark(lambda: None)
    start = time.monotonic()
    pings_before = server.pings_sent
    n = 0
    with Timer() as t_busy:
        while time.monotonic() - start < 0.5:
            db.insert("pts", {"id": n, "x": 0.0})
            n += 1
            if n % 50 == 0:
                client.refresh("pts")
    client.refresh("pts")
    pings_during = server.pings_sent - pings_before
    assert mirrored(client) == list(range(n))
    # Ping traffic stays proportional to elapsed time (~1/HB per second),
    # independent of the thousands of NOTIFYs that flowed meanwhile.
    assert pings_during <= (t_busy.ms / 1000.0) / HB + 10
    client.close()
    server.close()
