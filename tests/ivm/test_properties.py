"""Property-based: incremental maintenance == full recomputation == SQL.

The core IVM invariant, checked under random interleavings of inserts,
bulk inserts, multi-row deletes and updates, and committed or rolled-back
transactions.  ``recompute`` runs the same fold as incremental
maintenance, so each view is also compared with the SQL engine's answer
over the base tables -- an oracle that shares no code with the fold.
Deltas of one row and of 64 or more rows both occur (the ``@example``
cases pin them).  A share of rows carries an ANY column ``w`` of small
ints and a few strs, so the aggregate views' SUM/MIN/MAX over it are
poisoned to NULL and un-poisoned as rows come and go, and DISTINCT specs
fold each value once.  One more property runs a random GROUP BY through
the row engine, the batch engine, a memo-served re-run and a view.
"""

import contextlib
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.db import AggSpec, Column, Database, col, columnar
from repro.db.types import ANY, INTEGER, TEXT
from repro.db.vector import VAggregate, _walk
from repro.ivm import AggregateView, JoinView, SelectProjectView, ViewRegistry
from tests.db.engines import forced_engine

GROUPS = ["x", "y", "z"]
#: Rows per ``insert_many``: one, a few, and past 64.
BULK_SIZES = st.sampled_from([1, 2, 8, 64, 90])
#: The ANY column's values: NULL, small ints, a float and a bool equal to
#: one of them, and a few strs that no numeric SUM or MIN/MAX can fold.
W_VALUES = [None, None, -2, -1, 0, 1, 1, 2, "s", "t", 1.0, True]


class Rollback(Exception):
    """Raised inside a transaction block to roll it back."""


def bulk_rows(g, v, n):
    return [
        {
            "g": g,
            "v": None if i % 5 == 4 else (v + i) % 7 - 3,
            "w": W_VALUES[(v + 3 * i) % len(W_VALUES)],
        }
        for i in range(n)
    ]


# An operation is (kind, payload).
base_op = st.one_of(
    st.tuples(
        st.just("insert"),
        st.fixed_dictionaries(
            {
                "g": st.sampled_from(GROUPS),
                "v": st.one_of(st.integers(-3, 3), st.none()),
                "w": st.sampled_from(W_VALUES),
            }
        ),
    ),
    st.tuples(
        st.just("insert_many"),
        st.tuples(st.sampled_from(GROUPS), st.integers(-3, 3), BULK_SIZES),
    ),
    st.tuples(st.just("delete_v"), st.integers(-3, 3)),
    st.tuples(st.just("delete_g"), st.sampled_from(GROUPS)),
    st.tuples(st.just("delete_w"), st.sampled_from(["s", "t"])),
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
        elif kind == "delete_w":
            db.delete("base", col("w") == payload)
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
    db.create_table("base", [Column("g", TEXT), Column("v", INTEGER), Column("w", ANY)])
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
            AggSpec("COUNT", col("v"), "dn", distinct=True),
            AggSpec("SUM", col("v"), "ds", distinct=True),
            AggSpec("SUM", col("w"), "ws"),
            AggSpec("MIN", col("w"), "wlo"),
            AggSpec("MAX", col("w"), "whi"),
            AggSpec("COUNT", col("w"), "wdn", distinct=True),
            AggSpec("AVG", col("w"), "wda", distinct=True),
        ],
    )
    db, _registry, (view,) = fresh([view_def])
    run_ops(db, ops)

    def canon(rows):
        return sorted(tuple(r.values()) for r in rows)

    incremental = canon(view.rows())
    assert incremental == canon(
        db.query(
            "SELECT g, COUNT(*) AS n, SUM(v) AS s, MIN(v) AS lo, MAX(v) AS hi, "
            "COUNT(DISTINCT v) AS dn, SUM(DISTINCT v) AS ds, SUM(w) AS ws, "
            "MIN(w) AS wlo, MAX(w) AS whi, COUNT(DISTINCT w) AS wdn, "
            "AVG(DISTINCT w) AS wda FROM base GROUP BY g"
        )
    )
    view.recompute(db)
    assert incremental == canon(view.rows())


#: Rows per column chunk in the one-GROUP-BY property: small enough that a
#: few inserts fill several chunks, large enough that three groups per
#: chunk keep their partials (``MEMO_MAX_GROUPS_PER_ROW``).
SMALL_CHUNK = 16
any_spec = st.tuples(
    st.sampled_from(["COUNT", "SUM", "AVG", "MIN", "MAX"]),
    st.sampled_from(["v", "w"]),
    st.booleans(),
)
any_row = st.fixed_dictionaries(
    {
        "g": st.sampled_from(GROUPS),
        "v": st.one_of(st.integers(-3, 3), st.none()),
        "w": st.sampled_from(W_VALUES),
    }
)


def exact(rows):
    """Rows as comparable text: key order, value types, float bits."""
    return [[(k, type(v).__name__, repr(v)) for k, v in row.items()] for row in rows]


@given(
    st.lists(any_spec, min_size=1, max_size=4),
    st.lists(st.lists(any_row, min_size=1, max_size=40), max_size=4),
)
@example(
    # Specs whose partials the memo keeps, over two 40-row inserts.
    [("COUNT", "v", False), ("SUM", "v", False), ("MIN", "w", False)],
    [
        [{"g": GROUPS[i % 3], "v": i % 7 - 3, "w": W_VALUES[i % 10]} for i in range(40)]
        for _ in range(2)
    ],
)
@settings(max_examples=60, deadline=None)
def test_one_group_by_reads_the_same_on_every_path(specs, inserts):
    """Row engine, batch engine, the batch engine's memo-served re-run of
    its cached plan, and a view fed the same inserts: identical rows."""
    aggs = [AggSpec("COUNT", None, "n")] + [
        AggSpec(func, col(arg), f"a{i}", distinct) for i, (func, arg, distinct) in enumerate(specs)
    ]
    select = ", ".join(
        f"{a.func}({'DISTINCT ' if a.distinct else ''}{a.arg.name if a.arg else '*'}) AS {a.name}"
        for a in aggs
    )
    sql = f"SELECT g, {select} FROM base GROUP BY g"
    with mock.patch.object(columnar, "CHUNK_ROWS", SMALL_CHUNK):
        db, _registry, (view,) = fresh([AggregateView("agg", "base", ["g"], aggs)])
        for rows in inserts:
            db.insert_many("base", rows)
        plan = db.plan(sql)
        row_engine = plan.row_plan.to_list(db)
        with forced_engine("vector"):
            batch_engine = db.query(sql)
            memo_served = db.query(sql)
    assert exact(batch_engine) == exact(row_engine)
    assert exact(memo_served) == exact(row_engine)
    assert exact(view.rows()) == exact(row_engine)
    mergeable = all(
        not distinct and (func not in ("SUM", "AVG") or arg == "v")
        for func, arg, distinct in specs
    )
    if mergeable and sum(map(len, inserts)) >= SMALL_CHUNK:
        aggregate = next(op for op in _walk(plan.root) if isinstance(op, VAggregate))
        assert aggregate.reused[0] > 0


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
