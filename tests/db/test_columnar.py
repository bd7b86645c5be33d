"""Tests for the chunked column store behind Table.

Covers incremental maintenance (insert/update/delete mirroring),
tombstone compression, compaction, stale-flag rebuilds on out-of-order
restores, advisory type tags, and the bulk-append paths used by WAL
recovery.
"""

import pytest

from repro.db import CHUNK_ROWS, Column, Database
from repro.db.columnar import (
    COMPACT_MIN_DEAD,
    K_BOOL,
    K_FLOAT,
    K_INT,
    K_NULL,
    K_NUMERIC,
    K_STR,
    value_tag,
)
from repro.db.schema import TID
from repro.db.types import ANY, INTEGER


@pytest.fixture
def db():
    database = Database()
    database.create_table(
        "t",
        [Column("id", INTEGER, nullable=False), Column("v", ANY)],
        primary_key="id",
    )
    return database


def fill(db, n, start=0):
    for i in range(start, start + n):
        db.insert("t", {"id": i, "v": i * 2})


def store_rows(store):
    """Transpose the store back to visible (id, v) pairs in scan order."""
    out = []
    for columns, n in store.batches():
        out.extend(zip(columns["id"], columns["v"]))
    return out


def table_rows(db):
    return [(r["id"], r["v"]) for r in db.table("t").rows()]


class TestValueTag:
    def test_tags(self):
        assert value_tag(None) == K_NULL
        assert value_tag(True) == K_BOOL  # bool before int
        assert value_tag(3) == K_INT
        assert value_tag(3.5) == K_FLOAT
        assert value_tag("x") == K_STR

    def test_numeric_mask_excludes_null_and_str(self):
        assert K_INT & K_NUMERIC
        assert K_BOOL & K_NUMERIC
        assert not (K_NULL & K_NUMERIC)
        assert not (K_STR & K_NUMERIC)


class TestLazyBuildAndScan:
    def test_store_is_lazy(self, db):
        fill(db, 10)
        table = db.table("t")
        assert not table.has_column_store()
        store = table.column_store()
        assert table.has_column_store()
        assert len(store) == 10
        assert store_rows(store) == table_rows(db)

    def test_scan_matches_rows_in_tid_order(self, db):
        fill(db, 500)
        store = db.table("t").column_store()
        assert store_rows(store) == table_rows(db)

    def test_chunking(self, db):
        fill(db, CHUNK_ROWS + 10)
        store = db.table("t").column_store()
        assert store.chunk_count == 2
        assert len(store) == CHUNK_ROWS + 10
        assert store_rows(store) == table_rows(db)

    def test_hidden_columns_present(self, db):
        fill(db, 3)
        store = db.table("t").column_store()
        for columns, n in store.batches():
            assert TID in columns
            assert columns[TID] == sorted(columns[TID])


class TestIncrementalMaintenance:
    def test_insert_after_build(self, db):
        fill(db, 5)
        store = db.table("t").column_store()
        before = store.rebuilds
        fill(db, 5, start=5)
        assert store_rows(store) == table_rows(db)
        assert store.rebuilds == before  # appended in place, no rebuild

    def test_update_in_place(self, db):
        fill(db, 20)
        store = db.table("t").column_store()
        before = store.rebuilds
        db.execute("UPDATE t SET v = -1 WHERE id = 7")
        assert store_rows(store) == table_rows(db)
        assert (7, -1) in store_rows(store)
        assert store.rebuilds == before

    def test_update_writes_the_changed_columns_and_the_stamp(self, db):
        class Unwritten(list):
            def __setitem__(self, *args):
                raise AssertionError("an unchanged column was written")

        fill(db, 20)
        store = db.table("t").column_store()
        ((chunk, _n),) = store.batches()  # the live chunk: no tombstones
        for name in chunk:
            if name != "v":
                chunk[name] = Unwritten(chunk[name])
        # The image holds no update stamp; the chunk's own stamp (what the
        # aggregate memo keys on) is redrawn.
        stamp = store._stamps[0]
        db.execute("UPDATE t SET v = v + 100 WHERE id >= 18")
        db.update_by_tid("t", 1, {"v": "one"})
        assert store_rows(store) == table_rows(db)
        assert chunk["v"][18:] == [136, 138] and chunk["v"][0] == "one"
        assert store._stamps[0] > stamp
        assert store.names == ("id", "v", TID)
        assert store.column_kind("v") == K_INT | K_STR

    def test_delete_tombstones(self, db):
        fill(db, 20)
        store = db.table("t").column_store()
        db.execute("DELETE FROM t WHERE id < 5")
        assert store.dead_rows == 5
        assert len(store) == 15
        assert store_rows(store) == table_rows(db)

    def test_delete_whole_chunk(self, db):
        fill(db, 30)
        store = db.table("t").column_store()
        db.execute("DELETE FROM t WHERE id >= 0")
        assert store_rows(store) == []

    def test_rollback_restore_marks_stale_then_rebuilds(self, db):
        fill(db, 10)
        store = db.table("t").column_store()
        before = store.rebuilds
        try:
            with db.transaction():
                db.execute("DELETE FROM t WHERE id = 3")
                raise RuntimeError("abort")
        except RuntimeError:
            pass
        # The rollback re-inserted tid 4 out of order: next scan rebuilds.
        assert store_rows(store) == table_rows(db)
        assert len(store) == 10
        assert store.rebuilds >= before

    def test_truncate_like_delete_and_refill(self, db):
        fill(db, 50)
        store = db.table("t").column_store()
        db.execute("DELETE FROM t WHERE id >= 0")
        fill(db, 50, start=100)
        assert store_rows(store) == table_rows(db)


class TestCompaction:
    def test_small_tables_never_compact(self, db):
        fill(db, 100)
        store = db.table("t").column_store()
        db.execute("DELETE FROM t WHERE id < 50")
        before = store.rebuilds
        list(store.batches())
        assert store.rebuilds == before  # under COMPACT_MIN_DEAD

    def test_large_dead_fraction_compacts(self, db):
        n = COMPACT_MIN_DEAD * 3
        fill(db, n)
        store = db.table("t").column_store()
        db.execute(f"DELETE FROM t WHERE id < {n // 2}")
        assert store.dead_rows == n // 2
        before = store.rebuilds
        rows = store_rows(store)
        assert store.rebuilds == before + 1
        assert store.dead_rows == 0
        assert rows == table_rows(db)


class TestTypeTags:
    def test_tags_widen_with_data(self, db):
        db.insert("t", {"id": 1, "v": 5})
        store = db.table("t").column_store()
        assert store.column_kind("v") == K_INT
        db.insert("t", {"id": 2, "v": "s"})
        assert store.column_kind("v") == K_INT | K_STR
        db.insert("t", {"id": 3, "v": None})
        assert store.column_kind("v") & K_NULL

    def test_tags_never_narrow_on_update(self, db):
        db.insert("t", {"id": 1, "v": None})
        store = db.table("t").column_store()
        db.execute("UPDATE t SET v = 1 WHERE id = 1")
        # Stale-wide: NULL bit stays set even though no NULL remains.
        assert store.column_kind("v") & K_NULL
        assert store.column_kind("v") & K_INT

    def test_rebuild_recomputes_exact_tags(self, db):
        db.insert("t", {"id": 1, "v": None})
        db.insert("t", {"id": 2, "v": 7})
        store = db.table("t").column_store()
        db.execute("DELETE FROM t WHERE id = 1")
        store._rebuild()
        assert store.column_kind("v") == K_INT


class TestBulkAppend:
    def test_bulk_append_columns(self, db):
        fill(db, 3)
        table = db.table("t")
        store = table.column_store()
        rows = [
            {"id": 100 + i, "v": i, TID: 1000 + i}
            for i in range(CHUNK_ROWS + 50)
        ]
        columns = {
            name: [row[name] for row in rows] for name in rows[0]
        }
        store.bulk_append_columns(columns, len(rows))
        assert len(store) == 3 + CHUNK_ROWS + 50
        assert not store.stale

    def test_bulk_append_out_of_order_marks_stale(self, db):
        fill(db, 3)
        store = db.table("t").column_store()
        store.bulk_append(
            [{"id": 9, "v": 9, TID: 1}]
        )
        assert store.stale

    def test_bulk_restore_via_table(self, db):
        fill(db, 3)
        table = db.table("t")
        store = table.column_store()
        tids = [r[TID] for r in table.rows()]
        rows = [
            {"id": 50 + i, "v": -i, TID: max(tids) + 1 + i}
            for i in range(10)
        ]
        assert table.bulk_restore(rows, [9] * 10)
        assert len(table) == 13
        assert store_rows(store) == table_rows(db)

    def test_bulk_restore_rejects_tid_collision(self, db):
        fill(db, 3)
        table = db.table("t")
        existing = [dict(r) for r in table.rows()]
        assert table.bulk_restore([existing[0]], [1]) is False
        assert len(table) == 3  # untouched

    def test_bulk_restore_rejects_non_monotonic(self, db):
        fill(db, 3)
        table = db.table("t")
        rows = [
            {"id": 90, "v": 0, TID: 200},
            {"id": 91, "v": 0, TID: 150},
        ]
        assert table.bulk_restore(rows, [1, 1]) is False
        assert len(table) == 3


class TestDropStore:
    def test_drop_and_rebuild(self, db):
        fill(db, 10)
        table = db.table("t")
        table.column_store()
        table.drop_column_store()
        assert not table.has_column_store()
        store = table.column_store()
        assert store_rows(store) == table_rows(db)
