"""Ablation A1: incremental view maintenance vs full recomputation.

Design choice under test (DESIGN.md #3): EdiFlow propagates deltas into
query-typed activities with IVM instead of recomputing.  The Wikipedia
rationale: "a total recomputation of the aggregation is out of reach,
because change frequency is too high... updates received at a given
moment only affect a tiny part of the database."

Sweep the base-table size; apply a fixed-size delta; compare IVM delta
application against full recomputation.  Expected shape: recompute cost
grows with the base size, IVM cost stays flat -> the speedup widens.
"""

import random

import pytest

from benchmarks.support import SeriesTable, Timer
from repro.db import AggSpec, Column, Database, col
from repro.db.types import INTEGER, TEXT
from repro.ivm import AggregateView, Delta

BASE_SIZES = (1_000, 5_000, 20_000, 50_000)
DELTA_SIZE = 50


def build(base_size, seed=3):
    rng = random.Random(seed)
    db = Database()
    db.create_table(
        "votes", [Column("state", TEXT), Column("n", INTEGER)]
    )
    rows = [
        {"state": f"s{rng.randrange(51)}", "n": rng.randrange(100)}
        for _ in range(base_size)
    ]
    db.insert_many("votes", rows)
    view = AggregateView(
        "agg",
        "votes",
        group_by=["state"],
        aggregates=[
            AggSpec("SUM", col("n"), "total"),
            AggSpec("COUNT", None, "cnt"),
        ],
    )
    view.recompute(db)
    return db, view, rng


@pytest.fixture(scope="module")
def ivm_table(emit, emit_json):
    table = SeriesTable("base_rows", ["ivm_ms", "recompute_ms", "speedup"])
    for size in BASE_SIZES:
        db, view, rng = build(size)
        delta_rows = [
            {"state": f"s{rng.randrange(51)}", "n": rng.randrange(100)}
            for _ in range(DELTA_SIZE)
        ]
        with Timer() as t_ivm:
            view.apply(Delta.insertions("votes", delta_rows))
        with Timer() as t_re:
            view.recompute(db)
        table.add(
            size,
            {
                "ivm_ms": t_ivm.ms,
                "recompute_ms": t_re.ms,
                "speedup": t_re.ms / max(t_ivm.ms, 1e-6),
            },
        )
    emit("\n== Ablation A1: IVM delta application vs full recomputation "
         f"(delta = {DELTA_SIZE} rows) ==")
    emit(table.format())
    emit_json("ablation_ivm", table)
    return table


def test_a1_ivm_always_beats_recompute(ivm_table, benchmark):
    db, view, rng = build(5_000)
    delta_rows = [{"state": "s1", "n": 1} for _ in range(DELTA_SIZE)]
    benchmark(view.apply, Delta.insertions("votes", delta_rows))
    assert all(s > 1.0 for s in ivm_table.series("speedup"))


def test_a1_speedup_grows_with_base_size(ivm_table, benchmark):
    db, view, _rng = build(2_000)
    benchmark(view.recompute, db)
    speedups = ivm_table.series("speedup")
    assert speedups[-1] > speedups[0], (
        "IVM advantage should widen as the base table grows"
    )


def test_a1_ivm_cost_independent_of_base_size(ivm_table, benchmark):
    def kernel():
        view = AggregateView(
            "x", "votes", ["state"], [AggSpec("COUNT", None, "c")]
        )
        view.apply(Delta.insertions("votes", [{"state": "a", "n": 1}] * 100))

    benchmark(kernel)
    costs = ivm_table.series("ivm_ms")
    # Flat within generous noise: the largest base must not cost 10x the smallest.
    assert costs[-1] < max(costs[0], 0.5) * 10
