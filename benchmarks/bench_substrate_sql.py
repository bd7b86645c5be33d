"""Substrate micro-benchmarks: the embedded SQL engine.

Not a paper experiment -- these pin down the cost of the substrate every
EdiFlow mechanism sits on, so regressions in the engine show up here
before they muddy the Figure-8 numbers.  Includes the ablations for the
index-routing optimizations (IndexScan / RangeIndexScan vs full scan)
and the statement/plan cache.

Scale with ``BENCH_SQL_ROWS`` (default 100k; CI smoke runs small).
"""

import os
import random

import pytest

from benchmarks.support import Timer, speedup
from repro.db import Column, Database
from repro.db.types import INTEGER, TEXT

ROWS = int(os.environ.get("BENCH_SQL_ROWS", "100000"))
#: Ablation repetitions -- enough for stable numbers without letting the
#: forced-full-scan arm dominate wall clock at large ROWS.
REPS = max(20, min(200, 2_000_000 // ROWS))


@pytest.fixture(scope="module")
def loaded_db():
    rng = random.Random(1)
    db = Database()
    db.create_table(
        "emp",
        [
            Column("id", INTEGER, nullable=False),
            Column("dept", TEXT),
            Column("salary", INTEGER),
            Column("ts", INTEGER),
        ],
        primary_key="id",
    )
    db.insert_many(
        "emp",
        [
            {
                "id": i,
                "dept": f"d{rng.randrange(20)}",
                "salary": rng.randrange(100_000),
                # Monotonic event time: the range-scan ablation column.
                "ts": i * 10,
            }
            for i in range(ROWS)
        ],
    )
    # salary stays unindexed on purpose: the full-scan benchmarks below
    # measure genuine scans, not routed plans.
    db.table("emp").create_index("ix_emp_ts", ("ts",), sorted=True)
    return db


def test_insert_throughput(benchmark):
    db = Database()
    db.create_table(
        "t", [Column("id", INTEGER, nullable=False), Column("v", INTEGER)],
        primary_key="id",
    )
    state = {"next": 0}

    def kernel():
        base = state["next"]
        db.insert_many("t", [{"id": base + i, "v": i} for i in range(1000)])
        state["next"] = base + 1000

    benchmark(kernel)


def test_point_lookup_via_index(loaded_db, benchmark):
    rows = benchmark(loaded_db.query, "SELECT * FROM emp WHERE id = 12345")
    assert len(rows) == (1 if ROWS > 12345 else 0)


def test_full_scan_filter(loaded_db, benchmark):
    rows = benchmark(loaded_db.query, "SELECT * FROM emp WHERE salary > 90000")
    assert rows


def test_group_by_aggregate(loaded_db, benchmark):
    rows = benchmark(
        loaded_db.query,
        "SELECT dept, COUNT(*) AS n, AVG(salary) AS mean FROM emp GROUP BY dept",
    )
    assert len(rows) == 20


def test_join(loaded_db, benchmark):
    if not loaded_db.has_table("dept"):
        loaded_db.create_table("dept", [Column("dept", TEXT), Column("city", TEXT)])
        loaded_db.insert_many(
            "dept", [{"dept": f"d{i}", "city": f"c{i}"} for i in range(20)]
        )
    rows = benchmark(
        loaded_db.query,
        "SELECT e.id, d.city FROM emp e JOIN dept d ON e.dept = d.dept "
        "WHERE e.salary > 95000",
    )
    assert rows


def _ablate(db, routed_sql, scan_sql, reps=REPS):
    """Time ``routed_sql`` against its routing-defeated twin.

    Returns ``(speedup, routed_rows, scanned_rows)``.  The two result
    lists must be verified identical by the caller -- routing is a pure
    cost transformation.
    """
    routed_rows = db.query(routed_sql)
    scanned_rows = db.query(scan_sql)
    with Timer() as t_probe:
        for _ in range(reps):
            db.query(routed_sql)
    with Timer() as t_scan:
        for _ in range(reps):
            db.query(scan_sql)
    return speedup(t_scan.ms, t_probe.ms), t_probe, t_scan, routed_rows, scanned_rows


def test_index_probe_ablation(loaded_db, benchmark, emit, emit_json):
    """IndexScan vs forced full scan on the same point predicate."""
    target = ROWS // 2
    factor, t_probe, t_scan, probed, scanned = _ablate(
        loaded_db,
        f"SELECT * FROM emp WHERE id = {target}",
        # `id + 0` defeats routing, forcing the full scan.
        f"SELECT * FROM emp WHERE id + 0 = {target}",
    )
    assert probed == scanned  # identical rows, identical order
    assert len(probed) == 1
    emit(
        f"\n== Substrate: point lookup via index vs full scan ({ROWS} rows) ==\n"
        f"index probe: {t_probe.ms / REPS:.3f} ms/query, "
        f"full scan: {t_scan.ms / REPS:.3f} ms/query, speedup {factor:.0f}x"
    )
    emit_json(
        "substrate_point_lookup",
        {
            "rows": ROWS,
            "index_probe_ms": t_probe.ms / REPS,
            "full_scan_ms": t_scan.ms / REPS,
            "speedup": factor,
        },
    )
    assert factor > 5
    benchmark(loaded_db.query, f"SELECT * FROM emp WHERE id = {target}")


def test_range_scan_ablation(loaded_db, benchmark, emit):
    """RangeIndexScan vs forced full scan over a narrow ts window."""
    low, high = (ROWS // 2) * 10, (ROWS // 2 + 100) * 10
    factor, t_probe, t_scan, probed, scanned = _ablate(
        loaded_db,
        f"SELECT * FROM emp WHERE ts >= {low} AND ts < {high}",
        f"SELECT * FROM emp WHERE ts + 0 >= {low} AND ts + 0 < {high}",
    )
    assert probed == scanned
    assert len(probed) == 100
    emit(
        f"\n== Substrate: range scan via sorted index vs full scan ({ROWS} rows) ==\n"
        f"range scan: {t_probe.ms / REPS:.3f} ms/query, "
        f"full scan: {t_scan.ms / REPS:.3f} ms/query, speedup {factor:.0f}x"
    )
    assert factor > 5
    benchmark(
        loaded_db.query, f"SELECT * FROM emp WHERE ts >= {low} AND ts < {high}"
    )


def test_vectorized_engine_ablation(loaded_db, benchmark, emit, emit_json):
    """Row vs vectorized engine on the substrate's group-by aggregate.

    The same ablation discipline as the index tests: both engines must
    return identical rows before the timings mean anything.  The full
    scan/filter/aggregate grid lives in ``bench_columnar.py``; this arm
    keeps one vectorization number in the substrate suite so engine
    regressions surface alongside the routing ablations.
    """
    sql = "SELECT dept, COUNT(*) AS n, AVG(salary) AS mean FROM emp GROUP BY dept"
    # The database picks the engine from table size at run time; time
    # both sides of that choice directly.
    plan = loaded_db.plan(sql)
    assert plan.chosen(loaded_db) is plan, "table too small to vectorize"
    row_rows = plan.row_plan.to_list(loaded_db)
    with Timer() as t_row:
        for _ in range(REPS):
            plan.row_plan.to_list(loaded_db)
    vec_rows = plan.to_list(loaded_db)  # warm: builds the column store
    with Timer() as t_vec:
        for _ in range(REPS):
            plan.to_list(loaded_db)
    assert sorted(map(repr, row_rows)) == sorted(map(repr, vec_rows))
    factor = speedup(t_row.ms, t_vec.ms)
    emit(
        f"\n== Substrate: vectorized vs row group-by aggregate ({ROWS} rows) ==\n"
        f"vectorized: {t_vec.ms / REPS:.3f} ms/query, "
        f"row: {t_row.ms / REPS:.3f} ms/query, speedup {factor:.1f}x"
    )
    emit_json(
        "substrate_vectorized",
        {
            "rows": ROWS,
            "row_ms": t_row.ms / REPS,
            "vector_ms": t_vec.ms / REPS,
            "speedup": factor,
        },
    )
    assert factor > 2
    benchmark(loaded_db.query, sql)


def test_plan_cache_ablation(loaded_db, benchmark, emit, emit_json):
    """Repeated identical statement: cached plan vs parse+plan each time."""
    sql = "SELECT * FROM emp WHERE id = 4242"
    loaded_db.query(sql)  # warm both caches
    with Timer() as t_cached:
        for _ in range(500):
            loaded_db.query(sql)
    with Timer() as t_cold:
        for i in range(500):
            # A fresh literal each iteration defeats both caches while
            # keeping the plan shape (single point probe) identical.
            loaded_db.query(f"SELECT * FROM emp WHERE id = {i}")
    factor = speedup(t_cold.ms, t_cached.ms)
    info = loaded_db.cache_info()
    emit(
        f"\n== Substrate: plan cache on repeated statements ==\n"
        f"cached: {t_cached.ms / 500 * 1000:.1f} us/query, "
        f"uncached: {t_cold.ms / 500 * 1000:.1f} us/query, speedup {factor:.1f}x\n"
        f"statement cache: {info['statements']['hits']} hits / "
        f"{info['statements']['misses']} misses; "
        f"plan cache: {info['plans']['hits']} hits / {info['plans']['misses']} misses"
    )
    emit_json(
        "substrate_plan_cache",
        {
            "cached_us": t_cached.ms / 500 * 1000,
            "uncached_us": t_cold.ms / 500 * 1000,
            "speedup": factor,
            "cache_info": info,
        },
    )
    assert factor > 1
    benchmark(loaded_db.query, sql)
