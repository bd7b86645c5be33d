"""``wall_fanout``: the WILD wall -- one writer, 64 mirror clients.

In-memory database, IMMEDIATE propagation.  ``sync.server`` (encode-once
broadcast, per-client send queues, the event loop) does most of the work;
``db`` does one tiny insert per statement; ``vis``, ``ivm`` and the WAL do
none.  The 64 sockets are the workload's input size and live on the
writer's thread (see :mod:`fleet`).

Phase A (throughput, closed loop, window 256): single-row inserts with at
most 256 statements un-received by the slowest client.  Phase B (latency,
one in flight): quiet probes, insert -> frame received by the *last* of
the 64 clients -- a wall shows a frame when its slowest tile has it.
"""

from __future__ import annotations

import random
import time
from pathlib import Path
from typing import Any

from repro.db import INTEGER, Column, Database
from repro.sync import NotificationCenter

import oracle
from fleet import Fleet
from harness import Rep, calibrate, server_health, traced_server
from spans import Tracer

TABLE = "pts"
CLIENTS = 64
WINDOW = 256
INSERTS = 20_000
PROBES = 200
QUIET_GAP_S = 0.006
CALIBRATE_EVERY = 64  # inserts between calibration slices in phase A


def make_inputs(seed: int, scale: float) -> dict[str, Any]:
    rng = random.Random(seed)
    inserts = max(WINDOW * 2, round(INSERTS * scale))
    probes = max(10, round(PROBES * scale))
    rows = [
        {"id": i + 1, "x": rng.randrange(1 << 20)} for i in range(inserts + probes)
    ]
    return {"rows": rows, "inserts": inserts}


def run_rep(inputs: dict[str, Any], tracer: Tracer, workdir: Path) -> Rep:
    rep = Rep()
    rows = inputs["rows"]
    inserts = inputs["inserts"]

    built = time.perf_counter()
    db = Database("wall")
    db.create_table(
        TABLE,
        [Column("id", INTEGER, nullable=False), Column("x", INTEGER)],
        primary_key="id",
    )
    center = NotificationCenter(db)
    # The fleet's tiles do not answer PINGs; liveness is not under test.
    server = traced_server(tracer, db, center, heartbeat_interval=None)
    fleet = Fleet(CLIENTS, window=WINDOW)
    connected = fleet.connect(server, TABLE)
    rep.setup_s = time.perf_counter() - built

    tracer.wrap(db, "insert", "db.write", "db")
    tracer.wrap(db, "insert_many", "db.write", "db")
    tracer.wrap(fleet, "throttle", "sync.wire.fleet_window", "sync")
    tracer.wrap(fleet, "wait_frames", "sync.wire.fleet_wait", "sync")

    try:
        rep.attempted = len(rows)
        sent = 0
        if connected:
            rep.mark(0)
            with tracer.span("bench.rep", "bench"):
                for row in rows[:inserts]:
                    tracer.set_op(sent)
                    with tracer.span("bench.op", "bench"):
                        t0 = time.perf_counter()
                        db.insert(TABLE, row)
                        rep.sample("write_ms", (time.perf_counter() - t0) * 1e3)
                        sent += 1
                        if not fleet.throttle(sent):
                            break
                    if fleet.floor != rep.progress["main"][-1][1]:
                        rep.mark(fleet.floor)
                    if sent % CALIBRATE_EVERY == 0:
                        calibrate(rep, tracer, 1)
                delivered = sent == inserts and fleet.wait_frames(sent)
                rep.tuples = fleet.slowest()
                rep.counts["deliveries"] = sum(c.frames for c in fleet.clients)
                rep.counts["wire_bytes"] = sum(c.bytes for c in fleet.clients)

                for row in rows[inserts:] if delivered else ():
                    tracer.set_op(sent)
                    # Quiet means quiet: spaced past the server's burst window
                    # (50 us x clients since the last broadcast), or probes
                    # alternate between its inline and its queued delivery.
                    with tracer.span("bench.pace", "bench"):
                        time.sleep(QUIET_GAP_S)
                    with tracer.span("bench.op", "bench"):
                        fleet.arm_probe()
                        t0 = time.perf_counter_ns()
                        db.insert(TABLE, row)
                        sent += 1
                        if not fleet.wait_frames(sent):
                            break
                        rep.sample(
                            "frame_ms", (fleet.slowest_receipt_ns() - t0) / 1e6
                        )
                    calibrate(rep, tracer, 1)
        rep.failed = len(rows) - fleet.slowest()
        rep.counts["statements"] = sent
        rep.counts["write_tuples"] = sent
        server_health(rep, server)
        rep.problems += oracle.fleet_counts(fleet, len(rows), server.evictions)
    finally:
        fleet.close()
        server.close()
        center.close()
    return rep
