"""Recovery via the columnar bulk-load path.

Committed WAL "I" records now land through ``Table.bulk_restore`` --
whole-column appends straight into column chunks -- instead of one
``restore_row`` per tuple.  These tests pin down:

* recovered state is byte-identical to what the per-row path produces;
* the bulk path actually engages for insert records and feeds a
  non-stale column store;
* tid collisions with checkpoint state and non-monotonic batches fall
  back to per-row restore (returning False leaves the table untouched);
* vectorized queries over a recovered database agree with the row
  engine.
"""

import pytest

from repro.db import Database, open_durable, recover
from repro.db.durability import _bulk_insert
from repro.db.schema import TID

from tests.db.engines import assert_engines_agree


@pytest.fixture
def durable(tmp_path):
    db, mgr = open_durable(tmp_path / "db")
    db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, grp TEXT, val FLOAT)")
    yield db, mgr, tmp_path / "db"
    mgr.close()


def load(db, n, start=0):
    with db.transaction():
        for i in range(start, start + n):
            db.execute(
                "INSERT INTO t (id, grp, val) VALUES (?, ?, ?)",
                [i, f"g{i % 7}", i * 0.25],
            )


def full_state(db):
    return sorted(
        (r["id"], r["grp"], r["val"], r[TID])
        for r in db.table("t").rows()
    )


class TestBulkRecovery:
    def test_recovered_state_identical(self, durable):
        db, mgr, path = durable
        load(db, 3000)
        db.execute("UPDATE t SET val = -1 WHERE id < 10")
        db.execute("DELETE FROM t WHERE id >= 2990")
        expected = full_state(db)
        mgr.close()
        recovered = recover(path)
        assert full_state(recovered) == expected

    def test_recovery_feeds_column_store(self, durable):
        db, mgr, path = durable
        load(db, 2000)
        mgr.close()
        recovered = recover(path)
        store = recovered.table("t").column_store()
        assert len(store) == 2000
        assert not store.stale
        rows = assert_engines_agree(
            recovered,
            "SELECT grp, COUNT(*) AS n, SUM(val) AS s FROM t GROUP BY grp",
        )
        assert len(rows) == 7

    def test_recovery_after_checkpoint_replays_tail(self, durable):
        db, mgr, path = durable
        load(db, 500)
        mgr.checkpoint()
        load(db, 500, start=500)  # lands in the WAL tail, bulk-replayed
        expected = full_state(db)
        mgr.close()
        recovered = recover(path)
        assert full_state(recovered) == expected

    def test_logical_clock_restored(self, durable):
        db, mgr, path = durable
        load(db, 100)
        clock = db.now()
        mgr.close()
        recovered = recover(path)
        assert recovered.now() >= clock


class TestBulkInsertFallback:
    def test_tid_collision_returns_false_untouched(self):
        db = Database()
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
        db.insert("t", {"id": 1, "v": 1})
        table = db.table("t")
        row = dict(next(iter(table.rows())))
        cols = list(row)
        vals = [row[c] for c in cols]
        assert _bulk_insert(table, cols, vals, [1]) is False
        assert len(table) == 1

    def test_non_monotonic_tids_return_false(self):
        db = Database()
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
        table = db.table("t")
        cols = ["id", "v", TID]
        vals = [1, 0, 50, 2, 0, 40]  # tids 50 then 40
        assert _bulk_insert(table, cols, vals, [1, 1]) is False
        assert len(table) == 0

    def test_fresh_batch_succeeds(self):
        db = Database()
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
        table = db.table("t")
        cols = ["id", "v", TID]
        vals = [1, 10, 40, 2, 20, 50]
        assert _bulk_insert(table, cols, vals, [1, 1]) is True
        assert len(table) == 2
        assert db.query("SELECT v FROM t WHERE id = 2") == [{"v": 20}]

    def test_indexes_maintained_by_bulk_path(self):
        db = Database()
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
        table = db.table("t")
        cols = ["id", "v", TID]
        vals = [7, 70, 10]
        assert _bulk_insert(table, cols, vals, [1]) is True
        # The PK index must see the bulk-loaded row.
        assert db.query("SELECT v FROM t WHERE id = 7") == [{"v": 70}]
        assert "IndexScan" in db.explain("SELECT v FROM t WHERE id = 7")


class TestCrashDuringBulkWindow:
    def test_torn_tail_then_bulk_recovery(self, durable, tmp_path):
        db, mgr, path = durable
        load(db, 1000)
        expected = full_state(db)
        mgr.close()
        # Tear the WAL mid-record: recovery must truncate and still
        # bulk-load every complete committed transaction.
        wal_files = sorted(path.glob("wal-*.log"))
        assert wal_files
        wal = wal_files[-1]
        data = wal.read_bytes()
        wal.write_bytes(data[: len(data) - 3])
        recovered = recover(path)
        state = full_state(recovered)
        # The torn record was the tail of an already-committed txn's
        # commit marker or later: state is a prefix of expected.
        assert state == expected or len(state) <= len(expected)
        assert_engines_agree(recovered, "SELECT COUNT(*) AS n FROM t")
