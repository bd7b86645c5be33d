"""Snapshot save/load round-trips."""

import json

import pytest

from repro.db import TID, Column, Database, load_snapshot, save_snapshot
from repro.db.types import INTEGER, TEXT
from repro.errors import DatabaseError


@pytest.fixture
def db():
    database = Database("snaptest")
    database.create_table(
        "t",
        [Column("id", INTEGER, nullable=False), Column("name", TEXT)],
        primary_key="id",
        unique=["name"],
    )
    database.insert("t", {"id": 1, "name": "a"})
    database.insert("t", {"id": 2, "name": "b"})
    return database


class TestRoundTrip:
    def test_rows_survive(self, db, tmp_path):
        path = tmp_path / "snap.jsonl"
        written = save_snapshot(db, path)
        assert written == 2
        restored = load_snapshot(path)
        rows = restored.query("SELECT * FROM t ORDER BY id")
        assert [r["name"] for r in rows] == ["a", "b"]

    def test_hidden_fields_survive(self, db, tmp_path):
        path = tmp_path / "snap.jsonl"
        table = db.table("t")
        original = {r["id"]: (r[TID], table.created[r[TID] - 1]) for r in table.rows()}
        save_snapshot(db, path)
        restored = load_snapshot(path).table("t")
        for row in restored.rows():
            assert original[row["id"]] == (row[TID], restored.created[row[TID] - 1])
            assert list(row) == [*table.schema.column_names, TID]

    def test_clock_survives(self, db, tmp_path):
        path = tmp_path / "snap.jsonl"
        save_snapshot(db, path)
        restored = load_snapshot(path)
        assert restored.now() == db.now()
        # New timestamps strictly after old ones.
        row = restored.insert("t", {"id": 3, "name": "c"})
        assert restored.table("t").created[row[TID] - 1] > max(db.table("t").created)

    def test_constraints_survive(self, db, tmp_path):
        from repro.errors import ConstraintViolation

        path = tmp_path / "snap.jsonl"
        save_snapshot(db, path)
        restored = load_snapshot(path)
        with pytest.raises(ConstraintViolation):
            restored.insert("t", {"id": 1, "name": "z"})
        with pytest.raises(ConstraintViolation):
            restored.insert("t", {"id": 9, "name": "a"})

    def test_name_survives(self, db, tmp_path):
        path = tmp_path / "snap.jsonl"
        save_snapshot(db, path)
        assert load_snapshot(path).name == "snaptest"

    def test_empty_database(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        save_snapshot(Database("nil"), path)
        restored = load_snapshot(path)
        assert restored.table_names() == []


class TestFailureModes:
    def test_unserializable_value(self, tmp_path):
        database = Database()
        database.create_table("t", [Column("v", INTEGER)])
        # Force a non-JSON value through the ANY-typed hidden path.
        from repro.db.types import ANY
        database.create_table("u", [Column("blob", ANY)])
        database.insert("u", {"blob": object()})
        with pytest.raises(DatabaseError, match="JSON"):
            save_snapshot(database, tmp_path / "bad.jsonl")
        assert not (tmp_path / "bad.jsonl").exists()  # no torn file

    def test_corrupt_line(self, tmp_path):
        path = tmp_path / "corrupt.jsonl"
        path.write_text('{"kind": "header", "version": 1, "name": "x", "clock": 0}\nnot json\n')
        with pytest.raises(DatabaseError, match="invalid snapshot line"):
            load_snapshot(path)

    def test_missing_header(self, tmp_path):
        path = tmp_path / "noheader.jsonl"
        path.write_text(json.dumps({"kind": "schema", "schema": {}}) + "\n")
        with pytest.raises(DatabaseError):
            load_snapshot(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(DatabaseError, match="empty snapshot"):
            load_snapshot(path)

    def test_bad_version(self, tmp_path):
        path = tmp_path / "vers.jsonl"
        path.write_text(json.dumps({"kind": "header", "version": 99}) + "\n")
        with pytest.raises(DatabaseError, match="version"):
            load_snapshot(path)

    def test_unknown_record_kind(self, tmp_path):
        path = tmp_path / "weird.jsonl"
        path.write_text(
            json.dumps({"kind": "header", "version": 1, "name": "x", "clock": 0})
            + "\n"
            + json.dumps({"kind": "mystery"})
            + "\n"
        )
        with pytest.raises(DatabaseError, match="unknown snapshot record"):
            load_snapshot(path)
