"""Regression tests for operator correctness fixes.

Covers three defects fixed together with the planner work:

1. HashJoin LEFT-join null padding when the right child is a derived
   plan (subquery/projection) rather than a base table -- padding must
   come from the right plan's actual output columns, not the catalog.
2. The row engine's aggregate state (now ``repro.db.aggstate.AggState``,
   shared by both engines and IVM views) silently treating non-numeric
   SUM/AVG input as zero -- it now yields NULL for the whole group
   instead of a partial total.
3. ``HashIndex.add`` leaving an empty bucket behind when a unique
   violation aborted the insert.

And three more fixed with the columnar-engine work:

4. ``Distinct`` / ``COUNT(DISTINCT x)`` raising a bare ``TypeError``
   on unhashable cell values (lists, dicts) -- they now fall back to
   linear-scan dedup.
5. ``Sort`` crashing on mixed-type keys -- ordering is now total and
   deterministic via type-tagged keys.
6. ``_scan_columns`` / ``HashJoin._schema_columns`` swallowing *all*
   exceptions; they now only catch ``UnknownTableError``.
"""

import pytest

from repro.db import Column, Database
from repro.db.algebra import (
    Aggregate,
    AggSpec,
    Distinct,
    HashJoin,
    Project,
    Scan,
    Select,
    Sort,
    _scan_columns,
    sort_key_total,
)
from repro.db.expression import col
from repro.db.index import HashIndex
from repro.db.types import ANY, INTEGER, TEXT
from repro.errors import ConstraintViolation


@pytest.fixture
def db():
    database = Database()
    database.create_table(
        "emp",
        [
            Column("id", INTEGER, nullable=False),
            Column("dept", TEXT),
            Column("bonus", ANY),
        ],
        primary_key="id",
    )
    rows = [
        (1, "eng", 100),
        (2, "eng", 50),
        (3, "ops", None),
        (4, "ops", None),
        (5, "sales", "spot-award"),  # non-numeric bonus
        (6, "sales", 10),
    ]
    for id_, dept, bonus in rows:
        database.insert("emp", {"id": id_, "dept": dept, "bonus": bonus})
    return database


class TestLeftJoinDerivedPadding:
    """LEFT JOIN whose right child is a derived plan (projection,
    filtered subquery, aggregate) rather than a bare table scan.  When
    the right input produces NO rows, padding columns must come from the
    right plan's output shape -- the catalog knows nothing about derived
    column names like computed projections or aggregate outputs.

    (The SQL dialect has no derived tables in FROM, so these joins are
    built through the algebra API, which workflow operators use.)
    """

    def _depts(self, db, rows):
        db.execute("CREATE TABLE depts (dept TEXT, site TEXT)")
        for dept, site in rows:
            db.insert("depts", {"dept": dept, "site": site})

    def test_empty_projected_subquery_pads_derived_columns(self, db):
        self._depts(db, [("eng", "lyon")])
        # Right side: SELECT dept AS d, site AS location FROM depts
        # WHERE site = 'paris'  -> matches nothing, renamed columns.
        sub = Project(
            Select(Scan("depts"), col("site") == "paris"),
            [("d", col("dept")), ("location", col("site"))],
        )
        join = HashJoin(Scan("emp"), sub, left_on="dept", right_on="d", how="left")
        rows = join.to_list(db)
        assert len(rows) == 6
        for row in rows:
            # Derived names padded with NULL -- not dropped, not the
            # catalog's ("dept", "site").
            assert row["d"] is None and row["location"] is None
            assert "site" not in row

    def test_partially_empty_match_pads_derived_columns(self, db):
        self._depts(db, [("eng", "paris")])
        sub = Project(
            Scan("depts"), [("d", col("dept")), ("location", col("site"))]
        )
        join = HashJoin(Scan("emp"), sub, left_on="dept", right_on="d", how="left")
        rows = sorted(join.to_list(db), key=lambda r: r["id"])
        assert len(rows) == 6
        assert rows[0]["location"] == "paris"  # id 1 is eng: matched
        for row in rows[2:]:  # ops/sales: unmatched, padded
            assert row["d"] is None and row["location"] is None

    def test_empty_aggregate_subquery_pads_output_columns(self, db):
        # Right side: SELECT dept, COUNT(*) AS n FROM emp WHERE id > 100
        # GROUP BY dept -> empty; "n" exists only in the aggregate output.
        sub = Aggregate(
            Select(Scan("emp"), col("id") > 100),
            group_by=["dept"],
            aggregates=[AggSpec("COUNT", None, "n")],
        )
        join = HashJoin(
            Scan("emp"), sub, left_on="dept", right_on="dept", how="left"
        )
        rows = join.to_list(db)
        assert len(rows) == 6
        assert all(row["n"] is None for row in rows)

    def test_empty_base_table_still_pads_from_catalog(self, db):
        # The pre-existing catalog fallback keeps working for bare scans.
        self._depts(db, [])
        join = HashJoin(
            Scan("emp"), Scan("depts"), left_on="dept", right_on="dept", how="left"
        )
        rows = join.to_list(db)
        assert len(rows) == 6
        assert all(row["site"] is None for row in rows)

    def test_inner_join_unaffected(self, db):
        sub = Project(
            Select(Scan("emp"), col("id") == 1), [("d", col("dept"))]
        )
        join = HashJoin(Scan("emp"), sub, left_on="dept", right_on="d")
        rows = join.to_list(db)
        assert sorted(r["id"] for r in rows) == [1, 2]


class TestAggregateNonNumeric:
    def test_sum_with_non_numeric_value_is_null(self, db):
        rows = db.query(
            "SELECT dept, SUM(bonus) AS total FROM emp GROUP BY dept "
            "ORDER BY dept"
        )
        by_dept = {r["dept"]: r["total"] for r in rows}
        assert by_dept["eng"] == 150
        # 'sales' mixes 'spot-award' with 10: a partial total of 10 would
        # be silently wrong, so the group yields NULL.
        assert by_dept["sales"] is None

    def test_avg_with_non_numeric_value_is_null(self, db):
        rows = db.query(
            "SELECT dept, AVG(bonus) AS mean FROM emp GROUP BY dept"
        )
        by_dept = {r["dept"]: r["mean"] for r in rows}
        assert by_dept["eng"] == 75
        assert by_dept["sales"] is None

    def test_sum_all_null_group_is_null(self, db):
        rows = db.query(
            "SELECT dept, SUM(bonus) AS total FROM emp GROUP BY dept"
        )
        by_dept = {r["dept"]: r["total"] for r in rows}
        assert by_dept["ops"] is None

    def test_min_max_with_incomparable_values_is_null(self, db):
        rows = db.query(
            "SELECT MIN(bonus) AS lo, MAX(bonus) AS hi FROM emp "
            "WHERE dept = 'sales'"
        )
        # int vs str has no ordering: NULL, not a crash.
        assert rows[0]["lo"] is None and rows[0]["hi"] is None

    def test_min_max_on_comparable_group(self, db):
        rows = db.query(
            "SELECT MIN(bonus) AS lo, MAX(bonus) AS hi FROM emp "
            "WHERE dept = 'eng'"
        )
        assert rows[0]["lo"] == 50 and rows[0]["hi"] == 100

    def test_count_min_max_unaffected_by_poisoning(self, db):
        rows = db.query(
            "SELECT COUNT(bonus) AS c FROM emp WHERE dept = 'sales'"
        )
        assert rows[0]["c"] == 2  # COUNT still counts non-NULL values

    def test_nulls_skipped_within_numeric_group(self, db):
        db.insert("emp", {"id": 7, "dept": "eng", "bonus": None})
        rows = db.query(
            "SELECT SUM(bonus) AS total, AVG(bonus) AS mean FROM emp "
            "WHERE dept = 'eng'"
        )
        assert rows[0]["total"] == 150
        assert rows[0]["mean"] == 75  # NULL excluded from the denominator


class TestHashIndexViolationCleanup:
    def test_violation_leaves_no_empty_bucket(self):
        index = HashIndex("t", ("k",), unique=True)
        index.add(1, {"k": "a"})
        with pytest.raises(ConstraintViolation):
            index.add(2, {"k": "a"})
        # The failed add must not have disturbed the existing bucket.
        assert index.lookup("a") == {1}
        assert index.bucket_size(("a",)) == 1

    def test_violation_then_different_key_succeeds(self):
        index = HashIndex("t", ("k",), unique=True)
        index.add(1, {"k": "a"})
        with pytest.raises(ConstraintViolation):
            index.add(2, {"k": "a"})
        index.add(2, {"k": "b"})
        assert index.lookup("b") == {2}

    def test_remove_then_readd_same_key(self):
        index = HashIndex("t", ("k",), unique=True)
        index.add(1, {"k": "a"})
        index.remove(1, {"k": "a"})
        # After full removal the bucket is gone; re-adding must succeed.
        index.add(2, {"k": "a"})
        assert index.lookup("a") == {2}

    def test_unique_insert_retry_via_database(self, db):
        # End-to-end: a rejected duplicate PK must not corrupt the index.
        with pytest.raises(ConstraintViolation):
            db.insert("emp", {"id": 1, "dept": "x", "bonus": 0})
        db.insert("emp", {"id": 99, "dept": "x", "bonus": 0})
        assert db.query("SELECT dept FROM emp WHERE id = 1")[0]["dept"] == "eng"
        assert len(db.query("SELECT * FROM emp WHERE id = 99")) == 1


@pytest.fixture
def udb():
    """Table whose ANY column holds unhashable and mixed-type values."""
    database = Database()
    database.create_table(
        "t",
        [Column("id", INTEGER, nullable=False), Column("v", ANY)],
        primary_key="id",
    )
    values = [[1, 2], [1, 2], {"a": 1}, {"a": 1}, "x", "x", 3, None]
    for i, v in enumerate(values):
        database.insert("t", {"id": i, "v": v})
    return database


class TestUnhashableDistinct:
    """Distinct and COUNT(DISTINCT x) over unhashable cell values used to
    raise a bare TypeError from the dedup set; they now fall back to a
    linear-scan membership check."""

    def test_distinct_over_unhashable_values(self, udb):
        rows = Distinct(Project(Scan("t"), [("v", col("v"))])).to_list(udb)
        assert len(rows) == 5  # [1,2], {'a':1}, 'x', 3, None

    def test_sql_select_distinct(self, udb):
        rows = udb.query("SELECT DISTINCT v FROM t")
        assert len(rows) == 5

    def test_count_distinct_unhashable(self, udb):
        rows = udb.query("SELECT COUNT(DISTINCT v) AS d FROM t")
        assert rows[0]["d"] == 4  # NULL excluded from COUNT

    def test_hashable_rows_still_dedup_fast(self, udb):
        # Sanity: plain hashable values keep working through the set path.
        rows = udb.query("SELECT DISTINCT id FROM t")
        assert len(rows) == 8


class TestMixedTypeSort:
    """ORDER BY over a column holding ints, strings, lists and NULLs used
    to crash with TypeError; sort_key_total makes the ordering total."""

    def test_order_by_mixed_types_is_deterministic(self, udb):
        rows1 = udb.query("SELECT id, v FROM t ORDER BY v")
        rows2 = udb.query("SELECT id, v FROM t ORDER BY v")
        assert rows1 == rows2
        # NULLs sort first, numbers before strings before containers.
        assert rows1[0]["v"] is None
        assert rows1[1]["v"] == 3

    def test_sort_key_total_ranks(self):
        keys = [
            sort_key_total(None),
            sort_key_total(3),
            sort_key_total("x"),
            sort_key_total(b"x"),
            sort_key_total([1, 2]),
            sort_key_total({"a": 1}),
        ]
        assert keys == sorted(keys)

    def test_sort_key_total_numeric_interleave(self):
        values = [2, 1.5, True, 3]
        ordered = sorted(values, key=sort_key_total)
        assert ordered == [True, 1.5, 2, 3]

    def test_algebra_sort_node(self, udb):
        rows = Sort(Scan("t"), [("v", True)]).to_list(udb)
        assert len(rows) == 8
        assert rows[0]["v"] is None

    def test_stable_ties_preserve_input_order(self, udb):
        rows = udb.query("SELECT id FROM t ORDER BY v")
        # The two list cells (ids 0, 1) tie; stability keeps id order.
        list_ids = [r["id"] for r in rows if r["id"] in (0, 1)]
        assert list_ids == [0, 1]


class TestNarrowedScanColumnExcepts:
    def test_scan_columns_unknown_table_is_none(self, udb):
        assert _scan_columns(udb, "missing", None) is None

    def test_scan_columns_known_table(self, udb):
        cols = _scan_columns(udb, "t", None)
        assert cols is not None and "v" in cols

    def test_scan_columns_propagates_unexpected_errors(self):
        class Exploding:
            def table(self, name):
                raise RuntimeError("boom")

        with pytest.raises(RuntimeError):
            _scan_columns(Exploding(), "t", None)
