"""``fig8_bulk``: the paper's two-machine Figure-8 deployment, closed loop.

In-memory database, IMMEDIATE propagation, loopback sockets, one batch in
flight.  Machine 1 mirrors the nodes table and computes visual
attributes; machine 2 mirrors VisualAttributes and feeds the display.
Per-*row* costs dominate (1,000 tuples per statement, two statements and
two clients per batch, no WAL), so per-statement, fan-out and WAL
optimisations must show no change here.
"""

from __future__ import annotations

import random
import time
from pathlib import Path
from typing import Any

from repro.core import datamodel
from repro.db import INTEGER, TEXT, Column, Database
from repro.sync import NotificationCenter, SyncClient
from repro.vis import Display, VisualAttributesStore, VisualItem

import oracle
from harness import (
    WAIT_TIMEOUT_S,
    Rep,
    WireProbe,
    calibrate,
    pull_changed,
    server_health,
    traced_server,
)
from spans import Tracer

T_NODES = "nodes"
T_ATTRS = datamodel.T_VISUAL_ATTRIBUTES
BATCHES = 150
BATCH_ROWS = 1000
COMPONENT = 1


def make_inputs(seed: int, scale: float) -> dict[str, Any]:
    rng = random.Random(seed)
    batches = max(2, round(BATCHES * scale))
    node_batches, item_batches, positions = [], [], {}
    next_id = 1
    for _ in range(batches):
        rows, items = [], []
        for _ in range(BATCH_ROWS):
            name = f"node-{rng.randrange(10**6)}"
            x, y = rng.uniform(0, 800), rng.uniform(0, 600)
            rows.append({"id": next_id, "name": name})
            items.append(
                VisualItem(obj_id=next_id, x=x, y=y, color="#4e79a7", label=name)
            )
            positions[next_id] = (x, y)
            next_id += 1
        node_batches.append(rows)
        item_batches.append(items)
    return {"nodes": node_batches, "items": item_batches, "positions": positions}


def run_rep(inputs: dict[str, Any], tracer: Tracer, workdir: Path) -> Rep:
    rep = Rep()
    probe = WireProbe(rep)

    built = time.perf_counter()
    db = Database("fig8")
    datamodel.install_core_schema(db)
    db.create_table(
        T_NODES,
        [Column("id", INTEGER, nullable=False), Column("name", TEXT, nullable=False)],
        primary_key="id",
    )
    center = NotificationCenter(db)
    server = traced_server(tracer, db, center)
    store = VisualAttributesStore(db)
    machine1 = SyncClient(server)
    nodes_mirror = machine1.mirror(T_NODES)
    machine2 = SyncClient(server)
    attrs_mirror = machine2.mirror(T_ATTRS)
    display = Display("machine2")
    rep.setup_s = time.perf_counter() - built

    machine1.on_notify(probe.hook)
    machine2.on_notify(probe.hook)
    tracer.wrap(db, "insert_many", "db.write", "db")
    tracer.wrap(db, "insert", "db.write", "db")
    tracer.wrap(server, "purge_notifications", "sync.center.purge", "sync")
    tracer.wrap(center, "changes_since", "sync.center.changes_since", "sync")
    for machine in (machine1, machine2):
        tracer.wrap(
            machine, "refresh", "sync.client.refresh", "sync", probe.refresh_entry
        )
    tracer.wrap(store, "write", "vis.attributes.write", "vis")
    tracer.wrap(display, "apply_rows", "vis.display.apply", "vis")
    tracer.wrap(display, "refresh", "vis.display.refresh", "vis")

    def wait_dirty(client: SyncClient, table: str) -> bool:
        with tracer.span("sync.wire.wait_dirty", "sync"):
            return client.wait_dirty(table, timeout=WAIT_TIMEOUT_S)

    try:
        rep.mark(0)
        with tracer.span("bench.rep", "bench"):
            for op, (rows, items) in enumerate(zip(inputs["nodes"], inputs["items"])):
                tracer.set_op(op)
                rep.attempted += 1
                with tracer.span("bench.op", "bench"):
                    probe.writing(T_NODES)
                    t0 = time.perf_counter()
                    db.insert_many(T_NODES, rows)
                    probe.wrote(T_NODES)
                    rep.sample("write_ms", (time.perf_counter() - t0) * 1e3)
                    if not wait_dirty(machine1, T_NODES):
                        rep.failed += 1
                        continue
                    stats = machine1.refresh(T_NODES)
                    probe.writing(T_ATTRS)
                    store.write(COMPONENT, items)
                    probe.wrote(T_ATTRS)
                    if not wait_dirty(machine2, T_ATTRS):
                        rep.failed += 1
                        continue
                    _newest, changed = center.changes_since(
                        T_ATTRS, attrs_mirror.last_seq_no
                    )
                    stats2 = machine2.refresh(T_ATTRS)
                    fresh = pull_changed(tracer, attrs_mirror, changed)
                    display.apply_rows(fresh)
                    display.refresh()
                    rep.sample("frame_ms", (time.perf_counter() - t0) * 1e3)
                    server.purge_notifications()
                rep.count("refresh_calls", 2)
                rep.count("refresh_rows", stats["upserts"] + stats2["upserts"])
                rep.count("display_tuples", len(fresh))
                rep.mark(rep.counts["display_tuples"])
                calibrate(rep, tracer, 3)
        rep.tuples = rep.counts.get("display_tuples", 0)
        rep.counts["statements"] = 2 * rep.attempted
        rep.counts["write_tuples"] = 2 * BATCH_ROWS * rep.attempted
        rep.counts["vis_tuples"] = BATCH_ROWS * rep.attempted
        rep.counts["frames"] = display.refreshes
        server_health(rep, server)

        rep.problems += oracle.mirror_equals_table(nodes_mirror, db.table(T_NODES))
        rep.problems += oracle.mirror_equals_table(attrs_mirror, db.table(T_ATTRS))
        rep.problems += oracle.display_equals(display, inputs["positions"])
    finally:
        machine1.close()
        machine2.close()
        server.close()
        center.close()
    return rep
