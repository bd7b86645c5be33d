"""Lineage capture equivalence oracle, property-based.

Backward lineage captured inside the vectorized operators must match the
row engine's per-row capture interpreter **byte-for-byte** -- same
``(table, tid)`` pairs behind every output row, in the canonical order
:func:`~repro.lineage.capture.canon_lineage` defines.  Reuses the PR-7
row/vector harness (schemas, data strategies, query pool).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lineage.capture import capture_plan

from tests.db.engines import forced_engine
from tests.db.test_vector_oracle import (
    QUERIES,
    canon,
    fresh_db,
    other_rows,
    rows_strategy,
)


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


@given(rows_strategy, other_rows, st.integers(0, len(QUERIES) - 1))
@settings(max_examples=60, deadline=None)
def test_capture_rows_match_normal_execution(rows, orows, qi):
    """Capture must be a pure observer: the rows it returns are exactly
    what executing the query without capture produces."""
    sql = QUERIES[qi]
    db = fresh_db(rows, orows)
    for engine in ("row", "vector"):
        with forced_engine(engine):
            expected = db.query(sql)
            got, lins = capture_plan(db.plan(sql), db)
        assert len(got) == len(lins)
        if "ORDER BY" in sql:
            assert got == expected
        else:
            assert canon(got) == canon(expected)


@given(rows_strategy, other_rows, st.integers(0, len(QUERIES) - 1))
@settings(max_examples=60, deadline=None)
def test_lineage_pairs_reference_live_tuples(rows, orows, qi):
    """Every captured (table, tid) pair points at an existing base row,
    and lineage is canonical: sorted, deduplicated."""
    sql = QUERIES[qi]
    db = fresh_db(rows, orows)
    _, lins = capture(db, "vector", sql)
    for lin in lins:
        assert lin == tuple(sorted(set(lin)))
        for table, tid in lin:
            assert table in ("t", "o")
            assert db.table(table).get(tid) is not None
