"""Tests for the vectorized execution engine and its router integration.

Covers the run-time engine choice (table size, access path, cached plans
following their tables), EXPLAIN labels and per-operator row counters,
graceful fallback to the row engine at execution time, and the
translation gate (which plans vectorize at all).
"""

import pytest

from repro.db import Database, Vectorized, vectorize_plan
from repro.db.algebra import (
    Aggregate,
    AggSpec,
    Distinct,
    HashJoin,
    Limit,
    Project,
    RowSource,
    Scan,
    Select,
    Sort,
    plan_access_kind,
)
from repro.db.expression import Binding, Lambda, col
from repro.db.sql.parser import parse
from repro.db.sql.planner import plan_select
from repro.db.vector import VECTOR_MIN_ROWS, running_plan

from tests.db.engines import assert_engines_agree, forced_engine


@pytest.fixture
def db():
    database = Database()
    database.execute(
        "CREATE TABLE emp (id INTEGER PRIMARY KEY, dept TEXT, salary INTEGER)"
    )
    for i in range(200):
        database.execute(
            "INSERT INTO emp (id, dept, salary) VALUES (?, ?, ?)",
            [i, f"d{i % 5}", 1000 + i],
        )
    return database


AGG_SQL = (
    "SELECT dept, COUNT(*) AS n, SUM(salary) AS s FROM emp GROUP BY dept"
)
PARAM_AGG_SQL = (
    "SELECT dept, COUNT(*) AS n, SUM(salary) AS s FROM emp "
    "WHERE salary > ? GROUP BY dept"
)


class TestEngineAgreement:
    def test_row_and_vector_agree(self, db):
        with forced_engine("row"):
            expected = db.query(AGG_SQL)
        with forced_engine("vector"):
            assert db.query(AGG_SQL) == expected

    def test_oracle_runs_both(self, db):
        assert len(assert_engines_agree(db, AGG_SQL)) == 5

    def test_results_match_row_with_a_filter(self, db):
        rows = assert_engines_agree(
            db, "SELECT id, salary FROM emp WHERE salary > 1100"
        )
        assert len(rows) == 99


def grow(db, rows):
    """Append ``rows`` employees, ids from 10,000 up."""
    db.insert_many(
        "emp",
        [
            {"id": 10_000 + i, "dept": f"d{i % 5}", "salary": i}
            for i in range(rows)
        ],
    )


def access_of_last_select(traced):
    return traced.tracer().spans_named("db.execute")[-1].tags["access"]


class TestRunTimeChoice:
    def test_small_table_stays_row(self, db):
        assert "Vectorized" not in db.explain(AGG_SQL)

    def test_crossing_threshold_vectorizes(self, db):
        grow(db, VECTOR_MIN_ROWS)
        assert "Vectorized" in db.explain(AGG_SQL)

    def test_point_lookup_never_vectorizes(self, db):
        with forced_engine("vector"):
            text = db.explain("SELECT * FROM emp WHERE id = 5")
        assert "IndexScan" in text
        assert "Vectorized" not in text

    def test_cached_plan_follows_table_size(self, traced):
        """A GROUP BY first issued while its table is empty -- the
        dashboard registered before the data streams in -- must not stay
        on the row engine for ever: the cached plan runs vectorized once
        the table has grown, and on rows again once it has shrunk."""
        db = Database()
        db.execute(
            "CREATE TABLE emp (id INTEGER PRIMARY KEY, dept TEXT, salary INTEGER)"
        )
        assert db.query(AGG_SQL) == []
        assert access_of_last_select(traced) == "scan"

        grow(db, 20_000)
        assert len(db.query(AGG_SQL)) == 5
        assert access_of_last_select(traced) == "vectorized"
        assert rebind_param_agg(db, traced, "vectorized") == [20_000, 15_909, 9, 0]
        analyzed = db.explain(AGG_SQL, analyze=True)
        assert "VScan emp (rows=20000)" in analyzed
        # EXPLAIN through SQL, the method and execute share one plan.
        assert analyzed.splitlines() == [
            r["plan"] for r in db.query(f"EXPLAIN ANALYZE {AGG_SQL}")
        ]

        db.delete("emp", col("id") >= 10_000 + VECTOR_MIN_ROWS - 1)
        assert len(db.query(AGG_SQL)) == 5
        assert access_of_last_select(traced) == "scan"
        assert "Vectorized" not in db.explain(AGG_SQL)
        assert "Scan emp (rows=4095)" in db.explain(AGG_SQL, analyze=True)
        assert rebind_param_agg(db, traced, "scan") == [4095, 4, 0, 0]
        # All of it on one plan per SQL text, cached while the table was
        # empty (AGG_SQL) or at its largest (PARAM_AGG_SQL).
        assert db.cache_info()["plans"]["misses"] == 2


def rebind_param_agg(db, traced, access):
    """One cached parametric aggregate, re-bound across values keeping
    all rows, most, a few or none, equals a plan made for each value;
    returns how many rows each value kept."""
    kept = []
    for floor in (-1, 4090, 19_990, 10**9):
        plan = plan_select(parse(PARAM_AGG_SQL), db, [floor])
        with Binding([floor]):
            expected = plan.to_list(db)
        assert db.query(PARAM_AGG_SQL, [floor]) == expected
        assert access_of_last_select(traced) == access
        kept.append(sum(row["n"] for row in expected))
    return kept


class TestExplainIntegration:
    def test_explain_labels(self, db):
        with forced_engine("vector"):
            text = db.explain(AGG_SQL)
        assert "Vectorized" in text
        assert "VAggregate" in text
        assert "VScan emp" in text

    def test_explain_analyze_row_counters(self, db):
        with forced_engine("vector"):
            rows = db.query(
                "EXPLAIN ANALYZE SELECT id FROM emp WHERE salary > 1100"
            )
        text = "\n".join(r["plan"] for r in rows)
        assert "VScan emp (rows=200)" in text
        assert "VFilter" in text and "(rows=99)" in text

    def test_plan_access_kind(self, db):
        plan = vectorize_plan(Scan("emp"))
        assert plan is not None
        assert plan_access_kind(plan) == "vectorized"
        # ... which is the engine on offer; 200 rows run on the row plan.
        assert plan_access_kind(running_plan(plan, db)) == "scan"

    def test_union_keeps_row_combinator_vectorized_branches(self, db):
        # UNION itself has no vectorized translation, but each branch
        # plans independently and may vectorize under the row combinator.
        sql = "SELECT dept FROM emp UNION ALL SELECT dept FROM emp"
        with forced_engine("vector"):
            rows = db.query(sql)
            text = db.explain(sql)
        assert len(rows) == 400
        assert text.startswith("Union ALL")
        assert "Vectorized" in text
        # The nested choice is made at run time too.
        assert "Vectorized" not in db.explain(sql)


class TestTranslationGate:
    def test_scan_select_project_vectorizes(self, db):
        plan = Project(
            Select(Scan("emp"), col("salary") > 1100), [("id", col("id"))]
        )
        assert isinstance(vectorize_plan(plan), Vectorized)

    def test_rowsource_does_not(self, db):
        plan = Select(RowSource("r", [{"x": 1}]), col("x") > 0)
        assert vectorize_plan(plan) is None

    def test_lambda_predicate_does_not(self, db):
        plan = Select(Scan("emp"), Lambda(lambda row: True, "always"))
        assert vectorize_plan(plan) is None

    def test_join_sort_limit_distinct_vectorize(self, db):
        plan = Limit(
            Sort(
                Distinct(
                    HashJoin(
                        Scan("emp", alias="a"),
                        Scan("emp", alias="b"),
                        left_on="dept",
                        right_on="dept",
                    )
                ),
                [("id", False)],
            ),
            10,
        )
        vec = vectorize_plan(plan)
        assert isinstance(vec, Vectorized)
        with forced_engine("vector"):
            assert vec.to_list(db) == plan.to_list(db)

    def test_aggregate_distinct_vectorizes(self, db):
        plan = Aggregate(
            Scan("emp"),
            group_by=["dept"],
            aggregates=[AggSpec("COUNT", col("salary"), "n", distinct=True)],
        )
        vec = vectorize_plan(plan)
        assert isinstance(vec, Vectorized)
        with forced_engine("vector"):
            got = vec.to_list(db)
        assert sorted(map(repr, got)) == sorted(map(repr, plan.to_list(db)))


class _DelegatingTable:
    """Not a Table: forces the vectorized scan to fall back at runtime."""

    def __init__(self, table):
        self._table = table

    def __getattr__(self, name):
        return getattr(self._table, name)


class _WrappedSource:
    def __init__(self, database):
        self._database = database

    def table(self, name):
        return _DelegatingTable(self._database.table(name))


class TestRuntimeFallback:
    def test_non_table_source_falls_back(self, db):
        plan = Select(Scan("emp"), col("salary") > 1100)
        vec = vectorize_plan(plan)
        assert vec is not None
        source = _WrappedSource(db)
        with forced_engine("vector"):
            rows = vec.to_list(source)
        assert rows == plan.to_list(source)
        assert len(rows) == 99

    def test_fallback_leaves_no_phantom_counters(self, db):
        from repro.db.algebra import instrument_plan

        plan = Select(Scan("emp"), col("salary") > 1100)
        vec = vectorize_plan(plan)
        counted, counters = instrument_plan(vec)
        with forced_engine("vector"):
            counted.to_list(_WrappedSource(db))
        # The vectorized ops never ran to completion: their counters must
        # not survive into EXPLAIN ANALYZE output.
        from repro.db.vector import _walk

        assert not set(counters) & {id(op) for op in _walk(vec.root)}


@pytest.fixture
def vector_engine():
    with forced_engine("vector"):
        yield


class TestMutationVisibility:
    def test_vector_engine_sees_fresh_writes(self, db, vector_engine):
        before = db.query("SELECT COUNT(*) AS n FROM emp")[0]["n"]
        db.execute(
            "INSERT INTO emp (id, dept, salary) VALUES (?, ?, ?)",
            [999, "d9", 1],
        )
        assert db.query("SELECT COUNT(*) AS n FROM emp")[0]["n"] == before + 1
        db.execute("DELETE FROM emp WHERE id = 999")
        assert db.query("SELECT COUNT(*) AS n FROM emp")[0]["n"] == before

    def test_update_visible_through_store(self, db, vector_engine):
        db.query(AGG_SQL)  # builds the store
        db.execute("UPDATE emp SET salary = 0 WHERE id = 0")
        rows = db.query("SELECT salary FROM emp WHERE id = 0")
        assert rows == [{"salary": 0}]
