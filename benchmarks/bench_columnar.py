"""Columnar engine benchmarks: row vs vectorized execution.

The vectorized engine (``repro.db.vector``) executes scans, filters, and
group-by aggregates over column chunks (``repro.db.columnar``) instead
of per-row dicts; list comprehensions and builtins over parallel arrays
run at C speed.  These benchmarks measure the win on the three query
shapes the paper's visual-analytics workloads lean on:

* **scan_count**: ``COUNT(*)`` over the whole table -- the vectorized
  plan counts chunk lengths without touching a single value.
* **filter**: a selective predicate (``val > 99``, ~1% selectivity)
  projecting one column.
* **aggregate**: ``GROUP BY`` with COUNT/SUM/AVG over a 50-group key.
* **memo_aggregate** (informational): the same key with COUNT/MIN/MAX,
  whose per-chunk partials merge exactly, so a re-run is served from
  what the aggregate kept.

Each arm runs at every scale in ``SCALES``, both engines, median of
``REPS``; results are asserted identical between engines before any
timing is trusted.  Every vectorized rep runs a freshly translated plan
(built outside the timer): a re-run plan merges the per-chunk partials
its aggregate kept instead of folding the chunks, which is what the
informational ``repeat_ms`` column times.  The regression gate
(vectorized aggregate at the largest scale at least
``AGGREGATE_GATE``x faster than the row engine) is asserted here and
re-checked by CI from ``BENCH_columnar.json`` via ``run_gates.py
--check columnar``.  At the largest scale a ``memo_aggregate`` re-run
must also cost at most ``MEMO_REPEAT_MAX`` of a fresh vectorized run: it
starts from the merged state of the unchanged chunks and folds none.

Scale with ``BENCH_COLUMNAR_ROWS`` (default 1M; CI smoke can run small,
but the gate is only meaningful at the default scale).
"""

import os
import statistics
import time
from typing import Callable

import pytest

from benchmarks.support import AGGREGATE_SQL, GROUPS, SeriesTable, grouped_db, speedup
from repro.db import Database, Vectorized, vectorize_plan
from repro.db.algebra import Plan

MAX_ROWS = int(os.environ.get("BENCH_COLUMNAR_ROWS", "1000000"))
SCALES = tuple(
    sorted({min(100_000, MAX_ROWS), MAX_ROWS})
)
REPS = 3
#: The regression gate: the vectorized aggregate must beat the row
#: engine by this factor at the largest scale.  CI re-checks the same
#: number from the emitted JSON.
AGGREGATE_GATE = 10.0
#: A memo-served re-run (``repeat_ms``) costs at most this share of a
#: fresh vectorized run (``vector_ms``) of ``memo_aggregate``.
MEMO_REPEAT_MAX = 0.03

#: ``repeat_ms`` is informational: the same vectorized plan re-run on the
#: unchanged table, which its aggregate serves from the partials it kept.
COLUMNS = ("row_ms", "vector_ms", "speedup_x", "repeat_ms")

QUERIES = {
    "scan_count": "SELECT COUNT(*) AS n FROM big",
    "filter": "SELECT id FROM big WHERE val > 99",
    "aggregate": AGGREGATE_SQL,
    "memo_aggregate": (
        "SELECT grp, COUNT(*) AS n, MIN(val) AS lo, MAX(val) AS hi "
        "FROM big GROUP BY grp"
    ),
}


def _median_ms(db: Database, make_plan: Callable[[], Plan]) -> tuple[float, list]:
    """Median-of-REPS wall time for executing the plan ``make_plan()``
    returns, each rep's plan made before its timer starts."""
    result = make_plan().to_list(db)  # warm: builds the column store
    samples = []
    for _ in range(REPS):
        plan = make_plan()
        start = time.perf_counter()
        result = plan.to_list(db)
        samples.append((time.perf_counter() - start) * 1000.0)
    return statistics.median(samples), result


@pytest.fixture(scope="module")
def columnar_result(emit, emit_json):
    tables = {
        name: SeriesTable("rows", list(COLUMNS))
        for name in QUERIES
    }
    grid: dict[tuple[str, int], dict[str, float]] = {}
    for rows in SCALES:
        db = grouped_db(rows)
        for name, sql in QUERIES.items():
            # The database picks the engine from table size at run time;
            # the bench times both sides of that choice directly.
            plan = db.plan(sql)
            assert isinstance(plan, Vectorized) and plan.chosen(db) is plan
            row_ms, row_result = _median_ms(db, lambda: plan.row_plan)
            vec_ms, vec_result = _median_ms(
                db, lambda: vectorize_plan(plan.row_plan)
            )
            repeat_ms, _ = _median_ms(db, lambda: plan)
            # Identical results are a precondition for trusting the
            # timings: same rows, same key order, same rounding.
            assert sorted(map(repr, row_result)) == sorted(
                map(repr, vec_result)
            ), f"{name} diverged at {rows} rows"
            cell = {
                "row_ms": row_ms,
                "vector_ms": vec_ms,
                "speedup_x": speedup(row_ms, vec_ms),
                "repeat_ms": repeat_ms,
            }
            grid[(name, rows)] = cell
            tables[name].add(rows, cell)

    top = SCALES[-1]
    gate_cell = grid[("aggregate", top)]
    extra = {
        "scales": list(SCALES),
        "groups": GROUPS,
        "reps": REPS,
        "queries": QUERIES,
        "columnar_gate": {
            "query": "aggregate",
            "rows": top,
            "row_ms": gate_cell["row_ms"],
            "vector_ms": gate_cell["vector_ms"],
            "speedup": gate_cell["speedup_x"],
            "repeat_ms": gate_cell["repeat_ms"],
            "required": AGGREGATE_GATE,
        },
    }
    for name, table in tables.items():
        emit(f"\n== {name}: row vs vectorized engine ==")
        emit(table.format(unit="ms"))
    emit(
        f"aggregate at {top} rows: {gate_cell['speedup_x']:.1f}x "
        f"(gate {AGGREGATE_GATE:.0f}x)"
    )
    merged = SeriesTable(
        "rows",
        [f"{name}_{col}" for name in QUERIES for col in COLUMNS],
    )
    for rows in SCALES:
        merged.add(
            rows,
            {
                f"{name}_{col}": grid[(name, rows)][col]
                for name in QUERIES
                for col in COLUMNS
            },
        )
    emit_json("columnar", merged, extra=extra)
    return grid


def test_aggregate_clears_gate(columnar_result):
    """Vectorized group-by aggregate clears the 10x gate at full scale."""
    cell = columnar_result[("aggregate", SCALES[-1])]
    assert cell["speedup_x"] >= AGGREGATE_GATE


def test_a_memo_served_re_run_folds_nothing(columnar_result):
    """A re-run of the cached plan copies the unchanged chunks' merged
    groups instead of folding or merging them."""
    cell = columnar_result[("memo_aggregate", SCALES[-1])]
    assert cell["repeat_ms"] <= MEMO_REPEAT_MAX * cell["vector_ms"]


def test_scan_count_wins_big(columnar_result):
    """COUNT(*) never touches values: the win should be enormous."""
    cell = columnar_result[("scan_count", SCALES[-1])]
    assert cell["speedup_x"] >= AGGREGATE_GATE


def test_filter_beats_row_engine(columnar_result):
    """A selective filter still wins despite result materialization."""
    cell = columnar_result[("filter", SCALES[-1])]
    assert cell["speedup_x"] >= 2.0


def test_speedup_grows_with_scale(columnar_result):
    """The vectorized win should not erode as tables grow."""
    if len(SCALES) < 2:
        pytest.skip("single-scale run")
    small, large = SCALES[0], SCALES[-1]
    agg_small = columnar_result[("aggregate", small)]["speedup_x"]
    agg_large = columnar_result[("aggregate", large)]["speedup_x"]
    assert agg_large >= agg_small * 0.5  # scale never erases the win
