"""In-memory mirrors: upserts, deletes, partial mirrors, echo suppression."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db.schema import TID
from repro.errors import SyncError
from repro.sync import MemoryTable


def row(tid, **values):
    values[TID] = tid
    return values


class TestApply:
    def test_upsert_inserts_then_updates(self):
        rm = MemoryTable("t")
        rm.apply_upsert(row(1, x=1))
        assert rm.applied_inserts == 1
        rm.apply_upsert(row(1, x=2))
        assert rm.applied_updates == 1
        assert rm.get(1)["x"] == 2

    def test_delete(self):
        rm = MemoryTable("t")
        rm.apply_upsert(row(1, x=1))
        rm.apply_delete(1)
        assert rm.get(1) is None
        assert rm.applied_deletes == 1
        rm.apply_delete(1)  # idempotent
        assert rm.applied_deletes == 1

    def test_reads_are_copies(self):
        rm = MemoryTable("t")
        rm.apply_upsert(row(1, x=1))
        copy = rm.get(1)
        copy["x"] = 999
        assert rm.get(1)["x"] == 1

    def test_iteration_and_len(self):
        rm = MemoryTable("t")
        rm.apply_upsert(row(1, x=1))
        rm.apply_upsert(row(2, x=2))
        assert len(rm) == 2
        assert sorted(r["x"] for r in rm) == [1, 2]
        assert rm.tids() == [1, 2]


class TestPartialMirrors:
    def test_fraction_filters_deterministically(self):
        rm = MemoryTable("t", fraction=0.3)
        for tid in range(1, 201):
            rm.apply_upsert(row(tid, x=tid))
        kept_once = len(rm)
        # Same tids, same decision.
        rm2 = MemoryTable("t", fraction=0.3)
        for tid in range(1, 201):
            rm2.apply_upsert(row(tid, x=tid))
        assert len(rm2) == kept_once
        assert 0.15 < kept_once / 200 < 0.45  # roughly the fraction

    def test_invalid_fraction(self):
        with pytest.raises(SyncError):
            MemoryTable("t", fraction=0.0)
        with pytest.raises(SyncError):
            MemoryTable("t", fraction=1.5)

    def test_predicate_filter(self):
        rm = MemoryTable("t", predicate=lambda r: r["x"] > 10)
        rm.apply_upsert(row(1, x=5))
        rm.apply_upsert(row(2, x=15))
        assert rm.tids() == [2]

    def test_row_leaving_predicate_is_dropped(self):
        rm = MemoryTable("t", predicate=lambda r: r["x"] > 10)
        rm.apply_upsert(row(1, x=15))
        assert len(rm) == 1
        rm.apply_upsert(row(1, x=5))  # update moves it out of the mirror
        assert len(rm) == 0


class TestEchoSuppression:
    def test_own_write_echo_skipped(self):
        rm = MemoryTable("t")
        rm.apply_upsert(row(1, x=1, y="a"))
        rm.stage_write(1, "x", 42)
        # The DB echoes the row back with our own value.
        rm.apply_upsert(row(1, x=42, y="a"))
        assert rm.skipped_self_updates == 1
        assert rm.applied_updates == 0
        assert rm.get(1)["x"] == 42

    def test_concurrent_remote_change_wins(self):
        rm = MemoryTable("t")
        rm.apply_upsert(row(1, x=1, y="a"))
        rm.stage_write(1, "x", 42)
        # Echo carries a different value: remote overwrote ours.
        rm.apply_upsert(row(1, x=7, y="a"))
        assert rm.get(1)["x"] == 7
        assert rm.applied_updates == 1

    def test_other_column_changed_alongside(self):
        rm = MemoryTable("t")
        rm.apply_upsert(row(1, x=1, y="a"))
        rm.stage_write(1, "x", 42)
        rm.apply_upsert(row(1, x=42, y="b"))  # y changed remotely too
        assert rm.applied_updates == 1
        assert rm.get(1)["y"] == "b"

    def test_stage_write_unknown_tid(self):
        rm = MemoryTable("t")
        with pytest.raises(SyncError):
            rm.stage_write(99, "x", 1)


# ----------------------------------------------------------------------
# Batch apply == per-row apply: ``apply_batch`` is the one apply path and
# ``apply_upsert`` / ``apply_delete`` its one-row callers, so a batch must
# leave exactly what its rows, applied one call at a time, leave.
tids = st.integers(1, 12)
images = st.builds(
    lambda tid, x, y: row(tid, x=x, y=y), tids, st.integers(0, 2), st.integers(0, 1)
)
actions = st.lists(
    st.one_of(
        # A tid may repeat inside one batch, among upserts and deletes alike.
        st.tuples(
            st.just("batch"), st.lists(images, max_size=8), st.lists(tids, max_size=4)
        ),
        # A local edit: a later image confirms it, overrides it, or brings
        # a change of the other column along.
        st.tuples(
            st.just("stage"), tids, st.sampled_from(["x", "y"]), st.integers(0, 2)
        ),
    ),
    max_size=25,
)
mirrors = st.sampled_from(
    [
        {},
        {"fraction": 0.5},
        {"predicate": lambda r: r["x"] > 0},
        {"fraction": 0.7, "predicate": lambda r: r["y"] == 0},
    ]
)


def state(rm):
    return (
        rm.rows,
        rm.applied_inserts,
        rm.applied_updates,
        rm.applied_deletes,
        rm.skipped_self_updates,
        rm._pending_writes,
    )


@given(actions, mirrors)
@settings(max_examples=300, deadline=None)
def test_batch_apply_equals_per_row_apply(script, kind):
    batched, per_row = MemoryTable("t", **kind), MemoryTable("t", **kind)
    for action in script:
        if action[0] == "batch":
            _kind, upserts, deletes = action
            batched.apply_batch(upserts, deletes)
            for image in upserts:
                per_row.apply_upsert(image)
            for tid in deletes:
                per_row.apply_delete(tid)
        else:
            _kind, tid, column, value = action
            if batched.get(tid) is not None:
                batched.stage_write(tid, column, value)
                per_row.stage_write(tid, column, value)
        assert state(batched) == state(per_row)
