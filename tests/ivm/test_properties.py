"""Property-based: incremental maintenance == full recomputation == SQL.

The core IVM invariant, checked under random interleavings of inserts,
bulk inserts, multi-row deletes and updates, and committed or rolled-back
transactions.  ``recompute`` runs the same fold as incremental
maintenance, so each view is also compared with the SQL engine's answer
over the base tables -- an oracle that shares no code with the fold.
Deltas of one row and of 64 or more rows both occur (the ``@example``
cases pin them).
"""

import contextlib

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.db import AggSpec, Column, Database, col
from repro.db.types import INTEGER, TEXT
from repro.ivm import AggregateView, JoinView, SelectProjectView, ViewRegistry

GROUPS = ["x", "y", "z"]
#: Rows per ``insert_many``: one, a few, and past 64.
BULK_SIZES = st.sampled_from([1, 2, 8, 64, 90])


class Rollback(Exception):
    """Raised inside a transaction block to roll it back."""


def bulk_rows(g, v, n):
    return [{"g": g, "v": None if i % 5 == 4 else (v + i) % 7 - 3} for i in range(n)]


# An operation is (kind, payload).
base_op = st.one_of(
    st.tuples(
        st.just("insert"),
        st.fixed_dictionaries(
            {
                "g": st.sampled_from(GROUPS),
                "v": st.one_of(st.integers(-3, 3), st.none()),
            }
        ),
    ),
    st.tuples(
        st.just("insert_many"),
        st.tuples(st.sampled_from(GROUPS), st.integers(-3, 3), BULK_SIZES),
    ),
    st.tuples(st.just("delete_v"), st.integers(-3, 3)),
    st.tuples(st.just("delete_g"), st.sampled_from(GROUPS)),
    st.tuples(st.just("update_v"), st.tuples(st.integers(-3, 3), st.integers(-3, 3))),
    st.tuples(st.just("move_g"), st.tuples(st.sampled_from(GROUPS), st.sampled_from(GROUPS))),
)
ops_strategy = st.lists(
    st.one_of(
        base_op,
        st.tuples(st.sampled_from(["commit", "rollback"]), st.lists(base_op, min_size=1, max_size=4)),
    ),
    max_size=25,
)

#: A 90-row insert, a 1-row insert, a 72-row (multi-row) DELETE, a
#: rolled-back 64-row insert, and 1-row and multi-row UPDATEs.
BIG_AND_SMALL = [
    ("insert_many", ("x", 1, 90)),
    ("insert", {"g": "y", "v": 2}),
    ("rollback", [("insert_many", ("y", 0, 64)), ("delete_g", "y")]),
    ("move_g", ("y", "x")),
    ("delete_g", "x"),
    ("insert_many", ("z", 3, 64)),
    ("commit", [("update_v", (0, 3)), ("insert", {"g": "x", "v": -1})]),
    ("update_v", (-1, 1)),
]


def run_ops(db, ops):
    for kind, payload in ops:
        if kind == "insert":
            db.insert("base", payload)
        elif kind == "insert_many":
            db.insert_many("base", bulk_rows(*payload))
        elif kind == "delete_v":
            db.delete("base", col("v") == payload)
        elif kind == "delete_g":
            db.delete("base", col("g") == payload)
        elif kind == "update_v":
            old, new = payload
            db.update("base", {"v": new}, col("v") == old)
        elif kind == "move_g":
            old, new = payload
            db.update("base", {"g": new}, col("g") == old)
        else:
            with contextlib.suppress(Rollback), db.transaction():
                run_ops(db, payload)
                if kind == "rollback":
                    raise Rollback


def fresh(views):
    db = Database()
    db.create_table("base", [Column("g", TEXT), Column("v", INTEGER)])
    registry = ViewRegistry(db)
    out = [registry.register(v) for v in views]
    return db, registry, out


@given(ops_strategy)
@example(BIG_AND_SMALL)
@settings(max_examples=60, deadline=None)
def test_select_project_view_equals_recompute(ops):
    db, _registry, (view,) = fresh(
        [SelectProjectView("v", "base", where=col("v") >= 0)]
    )
    run_ops(db, ops)

    def canon(rows):
        return sorted((r["g"], r["v"]) for r in rows)

    incremental = canon(view.rows())
    assert incremental == canon(db.query("SELECT g, v FROM base WHERE v >= 0"))
    view.recompute(db)
    assert incremental == canon(view.rows())


@given(ops_strategy)
@example(BIG_AND_SMALL)
@settings(max_examples=60, deadline=None)
def test_aggregate_view_equals_recompute(ops):
    view_def = AggregateView(
        "agg",
        "base",
        group_by=["g"],
        aggregates=[
            AggSpec("COUNT", None, "n"),
            AggSpec("SUM", col("v"), "s"),
            AggSpec("MIN", col("v"), "lo"),
            AggSpec("MAX", col("v"), "hi"),
        ],
    )
    db, _registry, (view,) = fresh([view_def])
    run_ops(db, ops)

    def canon(rows):
        return sorted((r["g"], r["n"], r["s"], r["lo"], r["hi"]) for r in rows)

    incremental = canon(view.rows())
    assert incremental == canon(
        db.query(
            "SELECT g, COUNT(*) AS n, SUM(v) AS s, MIN(v) AS lo, MAX(v) AS hi "
            "FROM base GROUP BY g"
        )
    )
    view.recompute(db)
    assert incremental == canon(view.rows())


join_side = st.sampled_from(["l", "r"])
join_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("insert"),
            st.tuples(join_side, st.one_of(st.integers(0, 3), st.none()), st.integers(0, 5)),
        ),
        st.tuples(st.just("insert_many"), st.tuples(join_side, st.integers(0, 3), BULK_SIZES)),
        st.tuples(st.just("delete_k"), st.tuples(join_side, st.integers(0, 3))),
        st.tuples(st.just("delete_val"), st.tuples(join_side, st.integers(0, 5))),
        st.tuples(st.just("rollback"), st.tuples(join_side, st.integers(0, 3), BULK_SIZES)),
    ),
    max_size=20,
)

#: 64 and 90 rows on each side, 1-row inserts with a NULL key, a
#: rolled-back 64-row insert, and multi-row deletes on both sides.
JOIN_BIG_AND_SMALL = [
    ("insert_many", ("l", 1, 90)),
    ("insert_many", ("r", 2, 64)),
    ("insert", ("l", None, 1)),
    ("insert", ("r", None, 1)),
    ("insert", ("r", 1, 3)),
    ("rollback", ("r", 1, 64)),
    ("delete_k", ("l", 2)),
    ("delete_val", ("r", 2)),
]


@given(join_ops)
@example(JOIN_BIG_AND_SMALL)
@settings(max_examples=60, deadline=None)
def test_join_view_equals_recompute(ops):
    db = Database()
    db.create_table("l", [Column("k", INTEGER), Column("a", INTEGER)])
    db.create_table("r", [Column("k", INTEGER), Column("b", INTEGER)])
    registry = ViewRegistry(db)
    view = registry.register(JoinView("j", "l", "r", "k", "k"))
    value = {"l": "a", "r": "b"}
    for kind, payload in ops:
        if kind == "insert":
            side, k, x = payload
            db.insert(side, {"k": k, value[side]: x})
        elif kind == "delete_k":
            side, k = payload
            db.delete(side, col("k") == k)
        elif kind == "delete_val":
            side, x = payload
            db.delete(side, col(value[side]) == x)
        else:
            side, k, n = payload
            rows = [{"k": (k + i) % 4, value[side]: i % 6} for i in range(n)]
            with contextlib.suppress(Rollback), db.transaction():
                db.insert_many(side, rows)
                if kind == "rollback":
                    raise Rollback

    def canon(rows):
        return sorted(((r["k"], r["a"], r["b"]) for r in rows), key=repr)

    incremental = canon(view.rows())
    assert incremental == canon(
        db.query("SELECT l.k AS k, l.a AS a, r.b AS b FROM l JOIN r ON l.k = r.k")
    )
    view.recompute(db)
    assert incremental == canon(view.rows())
