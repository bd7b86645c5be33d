"""In-memory mirrors: upserts, deletes, partial mirrors, echo suppression,
and the row images a mirror shares with its table."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import Database
from repro.db.schema import TID
from repro.errors import SyncError
from repro.sync import MemoryTable, NotificationCenter, SyncClient, SyncServer


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

    def test_reads_share_the_held_image(self):
        rm = MemoryTable("t")
        image = row(1, x=1)
        rm.apply_upsert(image)
        assert rm.get(1) is image
        assert rm.all_rows()[0] is image
        rm.apply_batch([row(2, x=2), row(3, x=3)], [])
        assert all(r is rm.get(r[TID]) for r in rm.all_rows())

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

    def test_stage_write_copies_on_write(self):
        rm = MemoryTable("t")
        image = row(1, x=1, y="a")
        rm.apply_upsert(image)
        earlier = rm.get(1)
        rm.stage_write(1, "x", 42)
        assert image == earlier == row(1, x=1, y="a")
        assert rm.get(1) == row(1, x=42, y="a")

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


# ----------------------------------------------------------------------
# Rows are values: a mirror holds the table's own images, a writer copies
# on write, and a rollback puts back the change set's before image.
@pytest.fixture(params=["inprocess", "sockets"])
def shared(request):
    db = Database()
    db.execute("CREATE TABLE t (k INTEGER PRIMARY KEY, v INTEGER, w INTEGER)")
    db.execute("INSERT INTO t (k, v, w) VALUES (1, 10, 0), (2, 20, 0), (3, 30, 0)")
    center = NotificationCenter(db)
    server = SyncServer(db, center, use_sockets=request.param == "sockets")
    client = SyncClient(server)
    yield db, client, client.mirror("t")
    client.close()
    server.close()
    center.close()


def refresh(client, table):
    if client.server.use_sockets:
        assert client.wait_dirty(table, timeout=5.0)
    client.refresh(table)


class TestSharedImages:
    def test_a_refresh_holds_the_tables_own_images(self, shared):
        db, client, mirror = shared
        table = db.table("t")
        assert all(mirror.get(tid) is table.get(tid) for tid in table.tids())
        db.execute("UPDATE t SET v = 99 WHERE k = 2")
        db.insert_many("t", [{"k": 4, "v": 40, "w": 0}, {"k": 5, "v": 50, "w": 0}])
        refresh(client, "t")
        assert mirror.tids() == table.tids()
        assert all(mirror.get(tid) is table.get(tid) for tid in table.tids())

    def test_write_back_changes_no_shared_image(self, shared):
        db, client, mirror = shared
        table = db.table("t")
        tid = table.tids()[0]
        image = mirror.get(tid)
        kept = dict(image)
        client.write_back("t", tid, "v", 11)
        # The table's old image is what a reader still holds: unchanged.
        assert image == kept
        assert mirror.get(tid)["v"] == table.get(tid)["v"] == 11
        refresh(client, "t")
        # The echo only confirms the local edit (TestEchoSuppression).
        assert (mirror.skipped_self_updates, mirror.applied_updates) == (1, 0)
        assert mirror.get(tid) is table.get(tid)
        assert image == kept

    @pytest.mark.parametrize(
        "sql, before_image",
        [
            ("DELETE FROM t WHERE k = 2", lambda change: change.deleted[0]),
            ("UPDATE t SET v = 21 WHERE k = 2", lambda change: change.updated[0][0]),
        ],
        ids=["delete", "update"],
    )
    def test_a_rollback_puts_back_the_before_image(self, shared, sql, before_image):
        db, client, mirror = shared
        table = db.table("t")
        held = table.by_key(2)
        with pytest.raises(RuntimeError):
            with db.transaction():
                before = before_image(db.execute(sql).change)
                raise RuntimeError("roll back")
        assert before is held
        assert table.by_key(2) is before
        assert table.get(before[TID]) is before
        assert before["v"] == 20
        client.refresh("t")
        assert mirror.get(before[TID]) is before
