"""``dashboard_mixed``: reads beside writes on one durable database.

Exercises ``db`` the other way from ``fig8_bulk``: SQL text -> statement
and plan caches -> row engine (point, range) and vectorized aggregate over
a table that is being written, and it is the only workload where ``ivm``
and bulk WAL records work.  No sockets, no ``vis``.  A read-side cache
that taxes writes, or a write fast path that invalidates columnar chunks,
shows as one metric up and another down.

One cycle (closed loop, one in flight): ``insert_many`` 200 rows, read the
live ``by_grp`` view (the dashboard's *frame*: commit -> fresh aggregate),
then 20 point queries, 2 range queries of 500 rows and one full GROUP BY,
which must equal the view.
"""

from __future__ import annotations

import random
import time
from itertools import accumulate
from pathlib import Path
from typing import Any

from repro.db import FSYNC_INTERVAL, INTEGER, AggSpec, Column, col, open_durable
from repro.ivm import AggregateView, ViewRegistry

import oracle
from harness import Rep, calibrate, wal_stats
from spans import Tracer

TABLE = "edits"
VIEW = "by_grp"
PRELOAD = 100_000
PRELOAD_CHUNK = 5_000
CYCLES = 420
BATCH_ROWS = 200
POINTS_PER_CYCLE = 20
RANGES_PER_CYCLE = 2
RANGE_ROWS = 500
GROUPS = 50

POINT_SQL = f"SELECT delta FROM {TABLE} WHERE id = ?"
RANGE_SQL = f"SELECT id, delta FROM {TABLE} WHERE ts >= ? AND ts < ?"
AGG_SQL = f"SELECT grp, COUNT(*), SUM(delta) FROM {TABLE} GROUP BY grp"


def make_inputs(seed: int, scale: float) -> dict[str, Any]:
    rng = random.Random(seed)
    preload = max(RANGE_ROWS * 2, round(PRELOAD * scale))
    cycles = max(2, round(CYCLES * scale))
    total = preload + cycles * BATCH_ROWS
    # id == ts == position, so expected answers are index arithmetic.
    rows = [
        {
            "id": i, "ts": i, "page": rng.randrange(5000),
            "grp": rng.randrange(GROUPS), "delta": rng.randrange(-500, 500),
        }
        for i in range(total)
    ]
    deltas = [row["delta"] for row in rows]
    plan = []
    for cycle in range(cycles):
        visible = preload + (cycle + 1) * BATCH_ROWS
        plan.append(
            {
                "points": [rng.randrange(visible) for _ in range(POINTS_PER_CYCLE)],
                "ranges": [
                    rng.randrange(visible - RANGE_ROWS) for _ in range(RANGES_PER_CYCLE)
                ],
            }
        )
    groups: dict[int, tuple[int, int]] = {}
    for row in rows:
        count, total_delta = groups.get(row["grp"], (0, 0))
        groups[row["grp"]] = (count + 1, total_delta + row["delta"])
    return {
        "rows": rows, "preload": preload, "plan": plan, "deltas": deltas,
        "prefix": [0, *accumulate(deltas)], "groups": groups,
    }


def run_rep(inputs: dict[str, Any], tracer: Tracer, workdir: Path) -> Rep:
    rep = Rep()
    rows, preload = inputs["rows"], inputs["preload"]
    deltas, prefix = inputs["deltas"], inputs["prefix"]

    built = time.perf_counter()
    db, manager = open_durable(workdir, fsync=FSYNC_INTERVAL)
    db.create_table(
        TABLE,
        [
            Column("id", INTEGER, nullable=False),
            Column("ts", INTEGER, nullable=False),
            Column("page", INTEGER),
            Column("grp", INTEGER),
            Column("delta", INTEGER),
        ],
        primary_key="id",
    )
    db.table(TABLE).create_index(f"ix_{TABLE}_ts", ("ts",), sorted=True)
    for at in range(0, preload, PRELOAD_CHUNK):
        db.insert_many(TABLE, rows[at : min(at + PRELOAD_CHUNK, preload)])
    registry = ViewRegistry(db)
    view = registry.register(
        AggregateView(
            VIEW, TABLE, ["grp"],
            [AggSpec("COUNT", None, "n"), AggSpec("SUM", col("delta"), "total")],
        )
    )
    rep.setup_s = time.perf_counter() - built

    tracer.wrap(db, "insert_many", "db.write", "db")
    tracer.wrap(db, "query", "db.query", "db")
    tracer.wrap(manager.wal, "append", "db.wal.append", "db")
    tracer.wrap(manager.wal, "commit_point", "db.wal.commit_point", "db")
    tracer.wrap(view, "apply_row", "ivm.delta_apply", "ivm")
    tracer.wrap(view, "apply_group_rows", "ivm.delta_apply", "ivm")
    tracer.wrap(registry, "rows", "ivm.view_read", "ivm")

    wal_before = manager.stats()
    ivm_before = registry.stats(VIEW).delta_rows
    cache_before = db.cache_info()
    try:
        rep.mark(0)
        with tracer.span("bench.rep", "bench"):
            for cycle, reads in enumerate(inputs["plan"]):
                tracer.set_op(cycle)
                at = preload + cycle * BATCH_ROWS
                ok = True
                with tracer.span("bench.op", "bench"):
                    t0 = time.perf_counter()
                    db.insert_many(TABLE, rows[at : at + BATCH_ROWS])
                    t1 = time.perf_counter()
                    shown = registry.rows(VIEW)
                    t2 = time.perf_counter()
                    rep.sample("write_ms", (t1 - t0) * 1e3)
                    rep.sample("frame_ms", (t2 - t0) * 1e3)
                    for key in reads["points"]:
                        t0 = time.perf_counter()
                        found = db.query(POINT_SQL, [key])
                        rep.sample("point_us", (time.perf_counter() - t0) * 1e6)
                        ok &= len(found) == 1 and found[0]["delta"] == deltas[key]
                    for low in reads["ranges"]:
                        t0 = time.perf_counter()
                        found = db.query(RANGE_SQL, [low, low + RANGE_ROWS])
                        rep.sample("range_ms", (time.perf_counter() - t0) * 1e3)
                        ok &= len(found) == RANGE_ROWS and sum(
                            r["delta"] for r in found
                        ) == prefix[low + RANGE_ROWS] - prefix[low]
                    t0 = time.perf_counter()
                    grouped = db.query(AGG_SQL)
                    rep.sample("agg_ms", (time.perf_counter() - t0) * 1e3)
                    ok &= not oracle.groups_equal(
                        "view vs GROUP BY", shown,
                        {r["grp"]: tuple(r.values())[1:] for r in grouped},
                    )
                rep.attempted += 1
                rep.failed += not ok
                rep.mark(rep.attempted * BATCH_ROWS)
                calibrate(rep, tracer)
        rep.tuples = rep.attempted * BATCH_ROWS
        rep.counts["statements"] = rep.attempted
        rep.counts["write_tuples"] = rep.tuples
        rep.counts["queries"] = rep.attempted * (
            POINTS_PER_CYCLE + RANGES_PER_CYCLE + 1
        )
        rep.counts["ivm_delta_rows"] = registry.stats(VIEW).delta_rows - ivm_before
        cache = db.cache_info()
        for section, key in (("statements", "stmt"), ("plans", "plan")):
            for field in ("hits", "misses"):
                rep.counts[f"{key}_{field}"] = (
                    cache[section][field] - cache_before[section][field]
                )
        wal_stats(rep, manager, since=wal_before)

        # Independent reference: group aggregates folded from the inputs.
        rep.problems += oracle.groups_equal(
            "by_grp view vs inputs", registry.rows(VIEW), inputs["groups"]
        )
        rep.problems += oracle.groups_equal(
            "GROUP BY vs inputs", db.query(AGG_SQL), inputs["groups"]
        )
    finally:
        manager.close()
    return rep
