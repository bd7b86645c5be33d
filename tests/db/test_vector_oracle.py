"""Row/vector equivalence oracle, property-based.

The vectorized engine must be *byte-identical* to the row engine: same
rows, same dict key order, same float rounding, same NULL semantics,
same trigger firings.  These tests drive both engines over randomized
schemas, data, and queries and assert equality three ways:

1. direct result comparison (the whole statement path, once with each
   engine forced);
2. :func:`tests.db.engines.assert_engines_agree`, which runs one plan's
   row form and its batch translation and requires identical lists;
3. EXPLAIN ANALYZE row counters vs actual result cardinality.

A mutation workload additionally asserts trigger ChangeSets are
identical whichever engine executes the reads in between.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import Column, Database
from repro.db.types import ANY, INTEGER, TEXT

from tests.db.engines import assert_engines_agree, forced_engine

# Small pools make collisions, ties, NULL groups and empty groups common.
ints = st.one_of(st.integers(min_value=-4, max_value=4), st.none())
floats = st.one_of(
    st.floats(min_value=-8, max_value=8, allow_nan=False), st.none()
)
tags = st.sampled_from(["a", "b", "c", None])

rows_strategy = st.lists(
    st.fixed_dictionaries(
        {"k": st.integers(0, 9), "v": ints, "f": floats, "tag": tags}
    ),
    max_size=40,
)

other_rows = st.lists(
    st.fixed_dictionaries({"k": st.integers(0, 9), "w": ints}),
    max_size=15,
)

QUERIES = [
    "SELECT * FROM t",
    "SELECT k, v FROM t WHERE v > 0",
    "SELECT k, v, f FROM t WHERE v IS NULL OR f > 1.5",
    "SELECT * FROM t WHERE k IN (1, 3, 5) AND tag = 'a'",
    "SELECT * FROM t WHERE NOT (v < 2)",
    "SELECT DISTINCT tag FROM t",
    "SELECT DISTINCT k, tag FROM t WHERE v >= -1",
    "SELECT tag, COUNT(*) AS n FROM t GROUP BY tag",
    "SELECT tag, COUNT(*) AS n, SUM(v) AS s, AVG(f) AS a FROM t GROUP BY tag",
    "SELECT tag, MIN(v) AS mn, MAX(f) AS mx FROM t GROUP BY tag",
    "SELECT tag, COUNT(DISTINCT v) AS d FROM t GROUP BY tag",
    "SELECT COUNT(*) AS n, SUM(f) AS s FROM t",
    "SELECT tag, COUNT(*) AS n FROM t GROUP BY tag HAVING COUNT(*) > 2",
    "SELECT k, v FROM t ORDER BY v, k LIMIT 7",
    "SELECT * FROM t ORDER BY tag DESC, k",
    "SELECT k + v AS kv FROM t WHERE v IS NOT NULL ORDER BY kv",
    "SELECT t.k, t.v, o.w FROM t JOIN o ON t.k = o.k WHERE o.w > 0",
    "SELECT t.k, o.w FROM t LEFT JOIN o ON t.k = o.k ORDER BY t.k LIMIT 20",
    "SELECT o.k, COUNT(*) AS n, SUM(t.v) AS s FROM t JOIN o ON t.k = o.k "
    "GROUP BY o.k",
]


def fresh_db(rows, orows=()):
    db = Database()
    db.create_table(
        "t",
        [
            Column("k", INTEGER),
            Column("v", INTEGER),
            Column("f", ANY),
            Column("tag", TEXT),
        ],
    )
    db.create_table("o", [Column("k", INTEGER), Column("w", INTEGER)])
    if rows:
        db.insert_many("t", rows)
    if orows:
        db.insert_many("o", list(orows))
    return db


def canon(rows):
    """Order-insensitive, order-of-keys-sensitive canonical form."""
    return sorted(repr(sorted(r.items(), key=lambda kv: kv[0])) for r in rows)


@given(rows_strategy, other_rows, st.integers(0, len(QUERIES) - 1))
@settings(max_examples=120, deadline=None)
def test_row_vector_equivalence(rows, orows, qi):
    sql = QUERIES[qi]
    db = fresh_db(rows, orows)
    with forced_engine("row"):
        expected = db.query(sql)
    with forced_engine("vector"):
        got = db.query(sql)
    # Unsorted queries may emit rows in either order; sorted queries must
    # match positionally.
    if "ORDER BY" in sql:
        assert got == expected
    else:
        assert canon(got) == canon(expected)


@given(rows_strategy, other_rows, st.integers(0, len(QUERIES) - 1))
@settings(max_examples=60, deadline=None)
def test_oracle_helper_verifies_each_query(rows, orows, qi):
    # Stricter than the comparison above: same rows in the same order,
    # sorted query or not.
    assert_engines_agree(fresh_db(rows, orows), QUERIES[qi])


@given(rows_strategy, st.sampled_from(
    [
        "SELECT k FROM t WHERE v > 0",
        "SELECT tag, COUNT(*) AS n FROM t GROUP BY tag",
        "SELECT DISTINCT k FROM t",
        "SELECT * FROM t ORDER BY k LIMIT 5",
    ]
))
@settings(max_examples=40, deadline=None)
def test_explain_analyze_counts_match_cardinality(rows, sql):
    db = fresh_db(rows)
    with forced_engine("vector"):
        result = db.query(sql)
        analyzed = db.query(f"EXPLAIN ANALYZE {sql}")
    root = analyzed[0]["plan"]
    assert root.startswith("Vectorized")
    assert f"(rows={len(result)})" in root


ops_strategy = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), st.integers(0, 9), ints),
        st.tuples(st.just("update"), st.integers(0, 9), ints),
        st.tuples(st.just("delete"), st.integers(0, 9), st.none()),
    ),
    max_size=25,
)


def run_workload(ops):
    db = fresh_db([])
    fired = []

    def hook(change):
        fired.append(
            (
                change.table,
                canon(change.inserted),
                canon(change.deleted),
                canon([b for b, _ in change.updated])
                + canon([a for _, a in change.updated]),
            )
        )

    db.on("t", ("insert", "update", "delete"), hook)
    next_id = [0]
    for kind, k, v in ops:
        if kind == "insert":
            db.execute(
                "INSERT INTO t (k, v, f, tag) VALUES (?, ?, ?, ?)",
                [k, v, float(k), "a" if k % 2 else "b"],
            )
        elif kind == "update":
            db.execute("UPDATE t SET v = ? WHERE k = ?", [v, k])
        else:
            db.execute("DELETE FROM t WHERE k = ?", [k])
        # Interleave reads so the engine under test actually executes.
        db.query("SELECT tag, COUNT(*) AS n, SUM(v) AS s FROM t GROUP BY tag")
    final = canon(db.query("SELECT * FROM t"))
    return fired, final


@given(ops_strategy)
@settings(max_examples=30, deadline=None)
def test_trigger_changesets_identical_across_engines(ops):
    with forced_engine("row"):
        row_fired, row_final = run_workload(ops)
    with forced_engine("vector"):
        vec_fired, vec_final = run_workload(ops)
    assert row_fired == vec_fired
    assert row_final == vec_final
