"""Database facade: clock, schema management, programmatic mutations."""

import threading

import pytest

from repro.db import Column, Database, TableSchema, col
from repro.db.types import INTEGER, TEXT
from repro.errors import DatabaseError, SchemaError, UnknownTableError


@pytest.fixture
def db():
    return Database("facade")


class TestClock:
    def test_tick_monotonic(self, db):
        values = [db.tick() for _ in range(5)]
        assert values == sorted(values)
        assert len(set(values)) == 5

    def test_now_does_not_advance(self, db):
        db.tick()
        a = db.now()
        b = db.now()
        assert a == b

    def test_mutations_advance_clock(self, db):
        db.create_table("t", [Column("a", INTEGER)])
        before = db.now()
        db.insert("t", {"a": 1})
        assert db.now() > before


class TestSchemaManagement:
    def test_create_from_columns(self, db):
        table = db.create_table("t", [Column("a", INTEGER)], primary_key="a")
        assert table.schema.primary_key == "a"

    def test_create_from_schema_object(self, db):
        schema = TableSchema("s", [Column("x", TEXT)])
        db.create_table("s", schema=schema)
        assert db.has_table("s")

    def test_create_requires_columns_or_schema(self, db):
        with pytest.raises(SchemaError):
            db.create_table("t")

    def test_duplicate_table(self, db):
        db.create_table("t", [Column("a", INTEGER)])
        with pytest.raises(SchemaError):
            db.create_table("t", [Column("a", INTEGER)])
        same = db.create_table("t", [Column("a", INTEGER)], if_not_exists=True)
        assert same is db.table("t")

    def test_unknown_table(self, db):
        with pytest.raises(UnknownTableError):
            db.table("ghost")

    def test_table_names_sorted(self, db):
        db.create_table("zz", [Column("a", INTEGER)])
        db.create_table("aa", [Column("a", INTEGER)])
        assert db.table_names() == ["aa", "zz"]


class TestProgrammaticMutations:
    @pytest.fixture
    def table(self, db):
        db.create_table(
            "t", [Column("id", INTEGER, nullable=False), Column("v", INTEGER)],
            primary_key="id",
        )
        return db.table("t")

    def test_insert_returns_stored_row(self, db, table):
        row = db.insert("t", {"id": 1, "v": 5})
        assert row["v"] == 5

    def test_update_predicate(self, db, table):
        for i in range(4):
            db.insert("t", {"id": i, "v": i})
        count = db.update("t", {"v": 0}, col("v") >= 2)
        assert count == 2

    def test_update_all(self, db, table):
        db.insert("t", {"id": 1, "v": 1})
        db.insert("t", {"id": 2, "v": 2})
        assert db.update("t", {"v": 9}) == 2

    def test_update_by_tid(self, db, table):
        from repro.db import TID

        row = db.insert("t", {"id": 1, "v": 5})
        updated = db.update_by_tid("t", row[TID], {"v": 6})
        assert updated["v"] == 6

    def test_update_by_tids_is_one_statement(self, db, table):
        from repro.db import TID

        rows = [db.insert("t", {"id": i, "v": i}) for i in range(4)]
        fired = []
        db.on("t", "update", fired.append)
        changes = {rows[3][TID]: {"v": 30}, rows[1][TID]: {"v": 10, "id": 11}}
        assert db.update_by_tids("t", changes) == 2
        (change,) = fired
        assert [(b["v"], a["v"]) for b, a in change.updated] == [(3, 30), (1, 10)]
        assert [r["id"] for r in db.table("t").rows()] == [0, 11, 2, 3]
        # An absent tid is an error, as it is for update_by_tid.
        with pytest.raises(DatabaseError):
            db.update_by_tids("t", {rows[0][TID]: {"v": 5}, 9999: {"v": 5}})
        assert db.table("t").get(rows[0][TID])["v"] == 0
        assert db.update_by_tids("t", {}) == 0 and len(fired) == 1

    def test_delete_by_tids(self, db, table):
        from repro.db import TID

        rows = [db.insert("t", {"id": i, "v": i}) for i in range(3)]
        count = db.delete_by_tids("t", [rows[0][TID], rows[2][TID], 9999])
        assert count == 2
        assert [r["id"] for r in db.table("t").rows()] == [1]


class TestThreadSafety:
    def test_concurrent_inserts(self, db):
        db.create_table("t", [Column("v", INTEGER)])
        errors = []

        def worker(base):
            try:
                for i in range(200):
                    db.insert("t", {"v": base + i})
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(k * 1000,)) for k in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(db.table("t")) == 800
        # tids unique
        from repro.db import TID

        tids = [r[TID] for r in db.table("t").rows()]
        assert len(set(tids)) == 800
