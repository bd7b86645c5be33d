"""The row/vector equivalence oracle, as a test helper.

The database picks its query engine per execution from the size of the
tables a plan reads (``repro.db.vector.VECTOR_MIN_ROWS``); there is no
switch to force one.  Tests that must exercise a particular engine on
small fixtures move that one threshold for the duration of a block.
"""

from contextlib import contextmanager
from unittest import mock

from repro.db import vector
from repro.db.vector import vectorize_plan

_THRESHOLD = {"row": float("inf"), "vector": 0}


@contextmanager
def forced_engine(name):
    """Inside the block the ``"row"`` / ``"vector"`` engine serves every
    table, whatever its size (plans with no batch form stay on rows)."""
    with mock.patch.object(vector, "VECTOR_MIN_ROWS", _THRESHOLD[name]):
        yield


def assert_engines_agree(db, sql, params=()):
    """Run ``sql`` on the row engine and on the batch engine and require
    the same rows in the same order; returns them.

    A statement with no batch form (index-routed, set operations) has
    only the row engine to run on and passes trivially.
    """
    plan = db.plan(sql, params)
    row_plan = getattr(plan, "row_plan", plan)
    expected = row_plan.to_list(db)
    vectorized = vectorize_plan(row_plan)
    if vectorized is not None:
        with forced_engine("vector"):
            got = vectorized.to_list(db)
        assert got == expected, (
            f"row/vector mismatch on {sql!r}: "
            f"{len(got)} vectorized rows vs {len(expected)} row-engine rows"
        )
    return expected
