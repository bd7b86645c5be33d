"""Ablation A3: isolation query-rewriting overhead.

Design choice under test (DESIGN.md #2): deferred deletes via deletion
tables ``R_deleted`` plus anti-join query rewriting, instead of physical
deletes (which would break running readers) or full MVCC (which the
paper judges unnecessary).

We measure scan cost through the isolation layer as the fraction of
logically-deleted tuples grows, against a raw scan of the same data.
Expected shape: overhead is a modest constant factor and does not blow
up with the deleted fraction.
"""

import pytest

from benchmarks.support import SeriesTable, Timer
from repro.db import Column, Database, col
from repro.db.types import INTEGER
from repro.workflow import WorkflowEngine
from repro.workflow.isolation import IsolationContext

TABLE_ROWS = 20_000
DELETED_FRACTIONS = (0.0, 0.1, 0.3, 0.5)


def build(deleted_fraction):
    db = Database()
    engine = WorkflowEngine(db)
    db.create_table(
        "items", [Column("id", INTEGER, nullable=False), Column("v", INTEGER)],
        primary_key="id",
    )
    db.insert_many(
        "items", [{"id": i, "v": i % 97} for i in range(TABLE_ROWS)]
    )
    engine.isolation.manage("items")
    # A long-lived witness blocks garbage collection, so deletions stay
    # logical (in R_deleted) instead of becoming physical removals.
    witness = IsolationContext(6, db.now(), None)
    engine.isolation.process_started(6, witness.start_time)
    deleter = IsolationContext(7, db.tick(), None)
    engine.isolation.process_started(7, deleter.start_time)
    cutoff = int(TABLE_ROWS * deleted_fraction)
    if cutoff:
        engine.isolation.logical_delete("items", col("id") < cutoff, deleter)
    engine.isolation.process_ended(7)  # deletions stamped; GC blocked
    # The reader starts after the deleter ended -> must not see deleted rows.
    reader = IsolationContext(8, db.tick(), None)
    return db, engine, reader, cutoff


@pytest.fixture(scope="module")
def isolation_table(emit, emit_json):
    table = SeriesTable(
        "deleted_pct", ["raw_scan_ms", "isolated_scan_ms", "overhead_x"]
    )
    for fraction in DELETED_FRACTIONS:
        db, engine, reader, cutoff = build(fraction)
        with Timer() as t_raw:
            raw = sum(1 for _ in db.table("items").rows())
        with Timer() as t_iso:
            visible = len(engine.isolation.visible_rows("items", reader))
        assert raw == TABLE_ROWS
        assert visible == TABLE_ROWS - cutoff or fraction == 0.0
        table.add(
            fraction * 100,
            {
                "raw_scan_ms": t_raw.ms,
                "isolated_scan_ms": t_iso.ms,
                "overhead_x": t_iso.ms / max(t_raw.ms, 1e-6),
            },
        )
    emit(f"\n== Ablation A3: isolated scan vs raw scan ({TABLE_ROWS} rows) ==")
    emit(table.format())
    emit_json("ablation_isolation", table)
    return table


def test_a3_isolated_scan_correct_under_deletions(isolation_table, benchmark):
    db, engine, reader, cutoff = build(0.3)
    result = benchmark(engine.isolation.visible_rows, "items", reader)
    assert len(result) == TABLE_ROWS - cutoff


def test_a3_overhead_bounded(isolation_table, benchmark):
    db, engine, reader, _cutoff = build(0.0)
    benchmark(engine.isolation.visible_rows, "items", reader)
    overheads = isolation_table.series("overhead_x")
    # The rewriting (hidden-tid set + filter) costs a constant factor;
    # it must not explode as more tuples are logically deleted.
    assert max(overheads) < 30


def test_a3_deleting_process_sees_its_own_deletes(isolation_table, benchmark):
    db = Database()
    engine = WorkflowEngine(db)
    db.create_table("items", [Column("id", INTEGER)], )
    db.insert_many("items", [{"id": i} for i in range(1000)])
    engine.isolation.manage("items")
    ctx = IsolationContext(9, db.now(), None)
    engine.isolation.process_started(9, ctx.start_time)
    engine.isolation.logical_delete("items", col("id") < 500, ctx)

    def kernel():
        return engine.isolation.query("SELECT COUNT(*) AS n FROM items", (), ctx)

    rows = benchmark(kernel)
    assert rows[0]["n"] == 500
