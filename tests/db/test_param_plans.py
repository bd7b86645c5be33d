"""Plan once, bind many: a cached ``?`` plan against re-planning.

A SELECT whose ``?``s sit in expressions is planned once per SQL text;
its ``?``s are slots each execution binds.  The differential oracle below
drives generated sequences of writes and re-executions of a set of
parameterized statements through ``db.query`` (the cached plan) and
requires, per execution, exactly what a freshly planned
``plan_select(stmt, db, params)`` gives for the same text and values:
the same rows in the same order, or an exception of the same type.
Whenever the fresh plan returns rows, the naive (unrouted) plan must
return them too where it runs at all -- the check that catches a slot
every plan would misread alike (a NULL range bound read as unbounded).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import Database
from repro.db.algebra import (
    Bound,
    HashJoin,
    IndexScan,
    RangeIndexScan,
    Scan,
    Select,
    plan_access_kind,
)
from repro.db.expression import Binding, Param, col
from repro.db.routing import optimize_plan
from repro.db.schema import TID
from repro.db.sql.parser import parse
from repro.db.sql.planner import plan_select
from repro.db.vector import VAggregate, VECTOR_MIN_ROWS, Vectorized, _walk
from repro.errors import UnknownTableError

#: ``(sql, number of ?)``: one statement per shape the router and the
#: planner treat differently.
STATEMENTS = [
    ("SELECT * FROM p WHERE id = ?", 1),  # PK point
    ("SELECT id, b FROM p WHERE a = ?", 1),  # non-unique hash
    ("SELECT id FROM p WHERE a = ? AND b = ?", 2),  # composite
    ("SELECT id, ts FROM p WHERE ts BETWEEN ? AND ?", 2),  # sorted range
    ("SELECT id FROM p WHERE ts >= ? AND ts > ?", 2),  # two slots, one column
    ("SELECT id FROM p WHERE a = ? AND ts >= ?", 2),  # hash vs sorted
    ("SELECT id, ? AS tag, delta * ? AS scaled FROM p", 2),  # select list
    ("SELECT id FROM p WHERE b LIKE ?", 1),
    ("SELECT id FROM p WHERE a IN (?, ?)", 2),
    ("SELECT id FROM p ORDER BY id LIMIT ?", 1),
    ("SELECT id FROM p WHERE a = ? UNION SELECT id FROM p WHERE ts < ?", 2),
    (
        "SELECT grp, COUNT(*) AS n, SUM(delta) AS s FROM big "
        "WHERE delta > ? GROUP BY grp",
        1,
    ),
]
AGG = len(STATEMENTS) - 1
BIG_ROWS = VECTOR_MIN_ROWS + 200  # a full column chunk and a partial one

values = st.one_of(
    st.integers(-3, 45),
    st.floats(-3, 45, allow_nan=False),
    st.booleans(),
    st.sampled_from(["x", "y", "%", "x%", "_"]),
    st.text(max_size=2),
    st.none(),
)
small_ints = st.one_of(st.integers(0, 5), st.none())
rows = st.fixed_dictionaries(
    {
        "a": small_ints,
        "b": st.sampled_from(["x", "y", "z", None]),
        "ts": st.one_of(st.integers(0, 40), st.none()),
        "delta": st.integers(-10, 10),
    }
)
ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("query"),
            st.integers(0, len(STATEMENTS) - 1),
            st.lists(values, min_size=2, max_size=2),
        ),
        st.tuples(st.just("insert"), rows),
        st.tuples(st.just("delete"), st.integers(0, 30)),
        st.tuples(st.just("update"), st.integers(0, 30), small_ints),
        st.tuples(st.just("big"), st.integers(0, BIG_ROWS - 1), st.integers(-10, 10)),
    ),
    min_size=4,
    max_size=30,
)


def make_db(initial):
    db = Database()
    db.execute(
        "CREATE TABLE p (id INTEGER PRIMARY KEY, a INTEGER, b TEXT, "
        "ts INTEGER, delta INTEGER)"
    )
    table = db.table("p")
    table.create_index("ix_p_a", ("a",))
    table.create_index("ix_p_ab", ("a", "b"))
    table.create_index("ix_p_ts", ("ts",), sorted=True)
    db.insert_many("p", [{"id": i, **row} for i, row in enumerate(initial)])
    db.execute("CREATE TABLE big (id INTEGER PRIMARY KEY, grp TEXT, delta INTEGER)")
    db.insert_many(
        "big",
        [{"id": i, "grp": f"g{i % 5}", "delta": i % 21 - 10} for i in range(BIG_ROWS)],
    )
    return db


def outcome(run):
    """``("rows", rows)`` or ``("raises", exception type)``."""
    try:
        return "rows", run()
    except Exception as exc:  # the oracle compares exception types
        return "raises", type(exc)


def fresh(db, sql, params, optimize=True):
    def run():
        plan = plan_select(parse(sql), db, params, optimize=optimize)
        with Binding(params):
            return plan.to_list(db)

    return outcome(run)


def check(db, index, params):
    sql, arity = STATEMENTS[index]
    params = params[:arity]
    got = outcome(lambda: db.query(sql, params))
    want = fresh(db, sql, params)
    assert got == want, (sql, params)
    if want[0] == "rows":
        naive = fresh(db, sql, params, optimize=False)
        if naive[0] == "rows":
            assert naive == want, (sql, params)


@given(st.lists(rows, min_size=5, max_size=25), ops)
@settings(max_examples=60, deadline=None)
def test_bind_equals_replan(initial, sequence):
    db = make_db(initial)
    next_id = len(initial)
    for op in sequence:
        kind = op[0]
        if kind == "query":
            check(db, op[1], op[2])
        elif kind == "insert":
            db.insert("p", {"id": next_id, **op[1]})
            next_id += 1
        elif kind == "delete":
            db.execute("DELETE FROM p WHERE id = ?", [op[1]])
        elif kind == "update":
            db.execute("UPDATE p SET a = ?, ts = ? WHERE id = ?", [op[2], op[2], op[1]])
        else:
            db.execute("UPDATE big SET delta = ? WHERE id = ?", [op[2], op[1]])
    # Every statement once more, with bindings in a row: each later one
    # runs on the plan (and the unchanged chunks) of the first, and some
    # bind values no index can be probed with, or NULL.
    for index in range(len(STATEMENTS)):
        for params in ([1, 7], [4, 2], [40, "x"], ["x", 40], [None, 3]):
            check(db, index, params)


# ----------------------------------------------------------------------
# The contract piece by piece
@pytest.fixture
def db():
    return make_db(
        [{"a": i % 3, "b": "xyz"[i % 3], "ts": i, "delta": i - 5} for i in range(12)]
    )


def test_one_plan_per_text_and_the_plan_holds_slots(db):
    sql = "SELECT id FROM p WHERE id = ?"
    for key in range(12):
        assert db.query(sql, [key]) == [{"id": key}]
    assert db.cache_info()["plans"]["misses"] == 1
    leaf = db.plan(sql, [3]).child.child
    assert isinstance(leaf, IndexScan) and isinstance(leaf.value, Param)
    assert "IndexScan p.id = $1" in db.explain(sql, [3])


def test_a_binding_never_writes_the_cached_plan(db):
    sql = "SELECT id FROM p WHERE ts >= ? AND ts < ?"
    plan = db.plan(sql, [2, 4]).child
    before = repr(plan)
    assert db.query(sql, [8, 10]) == [{"id": 8}, {"id": 9}]
    assert db.plan(sql, [0, 1]).to_list(db) == [{"id": 0}]
    assert repr(plan) == before
    assert "RangeIndexScan p.ts in [$1, $2)" in db.explain(sql, [1, 2])


def test_plan_explain_and_lineage_run_with_their_own_values(db):
    sql = "SELECT id FROM p WHERE a = ? AND ts > ?"
    bound = db.plan(sql, [1, 3])
    assert isinstance(bound, Bound)
    assert bound.to_list(db) == [{"id": 4}, {"id": 7}, {"id": 10}]
    assert list(bound.rows(db)) == bound.to_list(db)
    analyzed = db.explain(sql, [2, 6], analyze=True)
    assert "(rows=2)" in analyzed.splitlines()[0]
    db.enable_lineage()
    rows, lineage = db.query_lineage(sql, [0, 8])
    assert rows == [{"id": 9}]
    tid = next(row[TID] for row in db.table("p").rows() if row["id"] == 9)
    assert lineage == [(("p", tid),)]


def test_a_slot_bound_to_null_selects_nothing(db):
    for sql, params in [
        ("SELECT id FROM p WHERE ts >= ?", [None]),
        ("SELECT id FROM p WHERE ts BETWEEN ? AND ?", [2, None]),
        ("SELECT id FROM p WHERE id = ?", [None]),
        ("SELECT id FROM p WHERE a = ? AND b = ?", [None, "x"]),
    ]:
        db.query(sql, [1] * len(params))  # cache a plan with real values
        assert db.query(sql, params) == []


def test_two_slots_on_one_column_leave_the_second_residual(db):
    plan = db.plan("SELECT id FROM p WHERE ts >= ? AND ts > ?", [1, 2]).child.child
    assert isinstance(plan, Select)
    assert isinstance(plan.child, RangeIndexScan)
    assert isinstance(plan.child.low, Param) and plan.child.high is None
    assert repr(plan.predicate) == "(col('ts') > $2)"
    assert db.query("SELECT id FROM p WHERE ts >= ? AND ts > ?", [9, 3]) == [
        {"id": 9}, {"id": 10}, {"id": 11}
    ]


def test_an_uncomparable_value_raises_where_replanning_does(db):
    sql = "SELECT id FROM p WHERE a = ? AND ts >= ?"
    leaf = db.plan(sql, [1, 0]).child.child.child  # 4 rows by a, 12 by ts
    assert isinstance(leaf, IndexScan)
    assert [type(rival) for rival in leaf.rivals] == [RangeIndexScan]
    assert fresh(db, sql, [9, "x"]) == ("raises", TypeError)
    with pytest.raises(TypeError):
        db.query(sql, [9, "x"])  # no row has a = 9: only the rival raises


def test_a_parametric_aggregate_vectorizes_and_keeps_no_partials(db):
    sql = STATEMENTS[AGG][0]
    plan = db.plan(sql, [0]).child
    assert isinstance(plan, Vectorized)
    aggregate = next(op for op in _walk(plan.root) if isinstance(op, VAggregate))
    for bound_to in (0, 5, -20, 8):
        assert db.query(sql, [bound_to]) == fresh(db, sql, [bound_to])[1]
        assert aggregate._memo == {}
    # Every row the slot's filter keeps is folded, on every binding.
    assert "reused=0/2 chunks, folded=1428 rows" in db.explain(sql, [3], analyze=True)
    # A query with no slot keeps its memo (of both chunks).
    plain = "SELECT grp, COUNT(*) AS n, SUM(delta) AS s FROM big GROUP BY grp"
    db.query(plain)
    assert "reused=2/2 chunks, folded=0 rows" in db.explain(plain, analyze=True)


# ----------------------------------------------------------------------
# A broken catalog surfaces; a missing table still degrades to a scan
class _Catalog:
    def __init__(self, error):
        self.error = error

    def table(self, name):
        raise self.error


@pytest.mark.parametrize("error", [RuntimeError("catalog down"), UnknownTableError("p")])
def test_routing_lets_a_broken_catalog_raise(error):
    for plan in (
        Select(Scan("p"), col("id") == 3),
        HashJoin(Scan("p", alias="l"), Scan("p", alias="r"), "l.id", "r.id"),
    ):
        if isinstance(error, UnknownTableError):
            assert plan_access_kind(optimize_plan(plan, _Catalog(error))) != "routed"
        else:
            with pytest.raises(RuntimeError, match="catalog down"):
                optimize_plan(plan, _Catalog(error))
