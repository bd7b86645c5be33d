"""Lineage capture equivalence oracle, property-based.

Backward lineage captured inside the vectorized operators must match the
row operators' lineage mode **byte-for-byte** -- same ``(table, tid)``
pairs behind every output row, in the canonical order
:func:`~repro.lineage.capture.canon_lineage` defines.  Reuses the PR-7
row/vector harness (schemas, data strategies, query pool).

Shapes only the row engine runs (set operations, index probes) have no
second engine to be compared with; they are held to a reference that
needs none -- lineage is *sufficient*: the tuples it names are enough to
produce the row again.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db.algebra import LIN
from repro.lineage.capture import capture_plan

from tests.db.engines import forced_engine
from tests.db.test_vector_oracle import (
    QUERIES,
    canon,
    fresh_db,
    other_rows,
    rows_strategy,
)

#: Statements with no batch form, run on :func:`indexed_db`.
ROW_ONLY = [
    "SELECT k FROM t UNION SELECT k FROM o",
    "SELECT k FROM t UNION ALL SELECT k FROM o",
    "SELECT k FROM t EXCEPT SELECT k FROM o",
    "SELECT k, v FROM t UNION SELECT k, w AS v FROM o ORDER BY k, v LIMIT 9",
    "SELECT * FROM t WHERE k = 3",
    "SELECT k, v FROM t WHERE k = 3 AND tag = 'a'",
    "SELECT k, v FROM t WHERE v >= 0 AND v <= 2",
    "SELECT t.k, t.v, o.w FROM t JOIN o ON t.k = o.k WHERE t.k = 3",
    "SELECT t.k, o.w FROM t LEFT JOIN o ON t.k = o.k WHERE t.v >= 1",
    "SELECT t.k, o.w FROM t LEFT JOIN o ON t.k = o.k "
    "WHERE t.k = 3 AND t.tag = 'a'",
]


def indexed_db(rows, orows=()):
    """:func:`fresh_db` plus the indexes that route ``ROW_ONLY``'s probes."""
    db = fresh_db(rows, orows)
    t, o = db.table("t"), db.table("o")
    t.create_index("t_k", ["k"])
    t.create_index("t_k_tag", ["k", "tag"])
    t.create_index("t_v", ["v"], sorted=True)
    o.create_index("o_k", ["k"])
    return db


#: ``(statement, fixture)``: the shared pool on the plain fixture, so the
#: batch engine still gets it, and the row-only shapes on the indexed one.
CASES = [(sql, fresh_db) for sql in QUERIES] + [
    (sql, indexed_db) for sql in ROW_ONLY
]


def test_row_only_probes_are_index_routed():
    db = indexed_db(
        [{"k": i % 10, "v": i % 5 - 2, "f": float(i), "tag": "abc"[i % 3]} for i in range(30)],
        [{"k": i % 10, "w": i % 4 - 1} for i in range(12)],
    )
    plans = "\n".join(db.explain(sql) for sql in ROW_ONLY)
    for operator in (
        "IndexScan t.k",
        "CompositeIndexScan t:",
        "RangeIndexScan t.v",
        "IndexNestedLoopJoin",
        "HashJoin t.k = o.k (left)",
        "Union",
        "Difference",
    ):
        assert operator in plans


def capture(db, engine, sql):
    with forced_engine(engine):
        return capture_plan(db.plan(sql), db)


def canon_pairs(rows, lins):
    """Order-insensitive canonical form of (row, lineage) pairs."""
    return sorted(
        repr((sorted(r.items(), key=lambda kv: kv[0]), lin))
        for r, lin in zip(rows, lins)
    )


@given(rows_strategy, other_rows, st.integers(0, len(QUERIES) - 1))
@settings(max_examples=120, deadline=None)
def test_lineage_byte_identical_across_engines(rows, orows, qi):
    sql = QUERIES[qi]
    db = fresh_db(rows, orows)
    rrows, rlins = capture(db, "row", sql)
    vrows, vlins = capture(db, "vector", sql)
    if "ORDER BY" in sql:
        assert vrows == rrows
        assert vlins == rlins
    else:
        assert canon_pairs(vrows, vlins) == canon_pairs(rrows, rlins)


@given(rows_strategy, other_rows, st.sampled_from(CASES))
@settings(max_examples=60, deadline=None)
def test_capture_rows_match_normal_execution(rows, orows, case):
    """Capture must be a pure observer: the rows it returns are exactly
    what executing the query without capture produces."""
    sql, build = case
    db = build(rows, orows)
    for engine in ("row", "vector"):
        with forced_engine(engine):
            expected = db.query(sql)
            got, lins = capture_plan(db.plan(sql), db)
        assert len(got) == len(lins)
        assert not any(LIN in row for row in got)
        if "ORDER BY" in sql:
            assert got == expected
        else:
            assert canon(got) == canon(expected)


@given(rows_strategy, other_rows, st.sampled_from(CASES))
@settings(max_examples=60, deadline=None)
def test_lineage_pairs_reference_live_tuples(rows, orows, case):
    """Every captured (table, tid) pair points at an existing base row,
    and lineage is canonical: sorted, deduplicated."""
    sql, build = case
    db = build(rows, orows)
    _, lins = capture(db, "vector", sql)
    for lin in lins:
        assert lin == tuple(sorted(set(lin)))
        for table, tid in lin:
            assert table in ("t", "o")
            assert db.table(table).get(tid) is not None


@given(
    rows_strategy,
    other_rows,
    st.sampled_from(CASES),
    st.sampled_from(["row", "vector"]),
    st.integers(0, 10_000),
)
@settings(max_examples=320, deadline=None)
def test_lineage_is_sufficient(rows, orows, case, engine, pick):
    """Delete every tuple outside one output row's lineage and the
    statement still produces that row.

    Two shapes it does not hold for are left out of the pools by
    construction: ``OFFSET`` (a deletion moves other rows across the
    cut), and ``IN (SELECT ...)``, whose subquery set is bound into the
    plan as a constant -- the tuples that produced it are not lineage
    today.
    """
    sql, build = case
    db = build(rows, orows)
    got, lins = capture(db, engine, sql)
    if not got:
        return
    row, lin = got[pick % len(got)], lins[pick % len(got)]
    twin = build(rows, orows)  # same inserts in the same order: same tids
    keep = set(lin)
    for name in ("t", "o"):
        twin.delete_by_tids(
            name, [tid for tid in twin.table(name).tids() if (name, tid) not in keep]
        )
    with forced_engine(engine):
        again = twin.query(sql)
    assert canon([row])[0] in canon(again)
