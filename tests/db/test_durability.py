"""DurabilityManager: logged commits, checkpoints, full recovery."""

import pytest

from repro.core import datamodel
from repro.db import (
    Database,
    col,
    load_snapshot,
    open_durable,
    recover,
    save_snapshot,
)
from repro.db.schema import Column
from repro.db.types import INTEGER, TEXT
from repro.errors import DatabaseError
from repro.obs import OBS
from repro.sync import NotificationCenter


def state_bytes(database, tmp_path, tag):
    """Canonical byte image of a database (snapshots are deterministic)."""
    path = tmp_path / f"state-{tag}.snap"
    save_snapshot(database, path)
    return path.read_bytes()


@pytest.fixture
def durable(tmp_path):
    directory = tmp_path / "data"
    db, manager = open_durable(directory)
    yield directory, db, manager
    manager.close()


def seed(db):
    db.create_table(
        "items", [Column("id", INTEGER), Column("name", TEXT)], primary_key="id"
    )
    db.insert("items", {"id": 1, "name": "a"})
    db.insert("items", {"id": 2, "name": "b"})


class TestOpenDurable:
    def test_fresh_directory_initializes_generation_zero(self, durable):
        directory, _db, manager = durable
        assert (directory / "checkpoint-000000.snap").exists()
        assert (directory / "wal-000000.log").exists()
        assert manager.generation == 0

    def test_recover_empty_database(self, durable, tmp_path):
        directory, db, manager = durable
        manager.close()
        recovered = recover(directory)
        assert recovered.table_names() == []

    def test_recover_missing_directory_fails(self, tmp_path):
        with pytest.raises(DatabaseError, match="no checkpoint"):
            recover(tmp_path / "nothing")

    def test_a_recovery_is_counted_with_tracing_off(self, durable):
        """Rare events are counted whether or not anyone is watching."""
        directory, _db, manager = durable
        manager.close()
        recoveries = OBS.metrics.counter("wal.recoveries")
        before = recoveries.value
        assert not OBS.enabled
        recover(directory)
        assert recoveries.value == before + 1


class TestRecoveryFidelity:
    def test_all_dml_kinds_round_trip(self, durable, tmp_path):
        directory, db, manager = durable
        seed(db)
        db.update("items", {"name": "aa"}, col("id") == 1)
        db.delete("items", col("id") == 2)
        db.insert_many("items", [{"id": 3, "name": "c"}, {"id": 4, "name": "d"}])
        oracle = state_bytes(db, tmp_path, "oracle")
        manager.close()
        assert state_bytes(recover(directory), tmp_path, "rec") == oracle

    def test_transaction_round_trips_atomically(self, durable, tmp_path):
        directory, db, manager = durable
        seed(db)
        with db.transaction():
            db.insert("items", {"id": 3, "name": "c"})
            db.update("items", {"name": "x"}, col("id") == 1)
        oracle = state_bytes(db, tmp_path, "oracle")
        manager.close()
        assert state_bytes(recover(directory), tmp_path, "rec") == oracle

    def test_rolled_back_transaction_leaves_no_trace(self, durable, tmp_path):
        directory, db, manager = durable
        seed(db)
        oracle = state_bytes(db, tmp_path, "oracle")
        with pytest.raises(RuntimeError):
            with db.transaction():
                db.insert("items", {"id": 9, "name": "never"})
                raise RuntimeError("abort")
        manager.close()
        assert state_bytes(recover(directory), tmp_path, "rec") == oracle

    def test_ddl_round_trips(self, durable, tmp_path):
        directory, db, manager = durable
        seed(db)
        db.execute("CREATE TABLE extra (x INTEGER)")
        db.execute("INSERT INTO extra (x) VALUES (1)")
        db.drop_table("items")
        oracle = state_bytes(db, tmp_path, "oracle")
        manager.close()
        recovered = recover(directory)
        assert recovered.table_names() == ["extra"]
        assert state_bytes(recovered, tmp_path, "rec") == oracle

    def test_clock_continues_after_recovery(self, durable):
        directory, db, manager = durable
        seed(db)
        pre_crash = db.now()
        manager.close()
        recovered = recover(directory)
        assert recovered.now() == pre_crash
        assert recovered.tick() > pre_crash

    def test_tids_continue_after_recovery(self, durable):
        directory, db, manager = durable
        seed(db)
        tids = {row["__tid__"] for row in db.table("items").rows()}
        manager.close()
        recovered = recover(directory)
        fresh = recovered.insert("items", {"id": 5, "name": "e"})
        assert fresh["__tid__"] not in tids


class TestCheckpointing:
    def test_a_checkpoint_keeps_the_next_tid_past_deleted_rows(self, durable):
        """A deleted tid is never handed out again, also after a
        checkpoint and a restart."""
        directory, db, manager = durable
        seed(db)
        db.insert("items", {"id": 3, "name": "c"})
        db.delete_by_tids("items", [3])
        manager.checkpoint()
        manager.close()
        reopened, manager = open_durable(directory)
        try:
            assert reopened.insert("items", {"id": 4, "name": "d"})["__tid__"] == 4
            created = reopened.table("items").created
            assert len(created) == 4 and created == sorted(created)
        finally:
            manager.close()

    def test_checkpoint_rotates_generation(self, durable, tmp_path):
        directory, db, manager = durable
        seed(db)
        manager.checkpoint()
        assert manager.generation == 1
        assert not (directory / "checkpoint-000000.snap").exists()
        assert not (directory / "wal-000000.log").exists()
        db.insert("items", {"id": 3, "name": "post-checkpoint"})
        oracle = state_bytes(db, tmp_path, "oracle")
        manager.close()
        assert state_bytes(recover(directory), tmp_path, "rec") == oracle

    def test_auto_checkpoint_after_n_commits(self, tmp_path):
        db, manager = open_durable(tmp_path / "data", checkpoint_every=3)
        seed(db)  # 3 commits: create + 2 inserts
        assert manager.checkpoints == 1
        manager.close()

    def test_reopen_continues_transaction_ids(self, tmp_path):
        directory = tmp_path / "data"
        db, manager = open_durable(directory)
        seed(db)
        manager.close()
        db2, manager2 = open_durable(directory)
        db2.insert("items", {"id": 3, "name": "c"})
        manager2.close()
        # All txn ids in the segment must be distinct -- a reused id would
        # name two different commits the same.
        from repro.db.wal import read_wal

        records, _ = read_wal(directory / "wal-000000.log")
        commit_ids = [r.payload["x"] for r in records if r.kind == "c"]
        assert len(commit_ids) == 3  # two inserts, then one after the reopen
        assert len(commit_ids) == len(set(commit_ids))

    def test_stats_counters(self, durable):
        _directory, db, manager = durable
        seed(db)
        stats = manager.stats()
        assert stats["commits"] == 3
        assert stats["wal_appends"] == 3  # 1 ddl + 2 commits, one record each
        assert stats["generation"] == 0


class TestNotificationTablesSurviveRestart:
    """The seq-no/tombstone tables are ordinary tables: WAL-covered."""

    def _center_with_traffic(self, db):
        db.create_table("pts", [Column("id", INTEGER)], primary_key="id")
        center = NotificationCenter(db)
        center.watch("pts")
        db.insert("pts", {"id": 1})
        db.insert("pts", {"id": 2})
        db.update("pts", {"id": 3}, col("id") == 2)
        # A non-contiguous event: its tids are stored as a list ([1, 3]),
        # which must cross the JSON of snapshots and WAL unchanged.
        db.insert("pts", {"id": 5})
        db.execute("UPDATE pts SET id = id + 10 WHERE id = 1 OR id = 5")
        return center

    def test_snapshot_round_trip(self, tmp_path):
        db = Database()
        self._center_with_traffic(db)
        path = tmp_path / "s.snap"
        save_snapshot(db, path)
        restored = load_snapshot(path)
        assert [dict(r) for r in restored.table(datamodel.T_NOTIFICATION).rows()] == [
            dict(r) for r in db.table(datamodel.T_NOTIFICATION).rows()
        ]

    def test_sequence_numbers_continue_after_recovery(self, tmp_path):
        directory = tmp_path / "data"
        db, manager = open_durable(directory)
        center = self._center_with_traffic(db)
        logged = [dict(r) for r in db.table(datamodel.T_NOTIFICATION).rows()]
        top = max(r["seq_no"] for r in logged)
        assert [r["tids"] for r in logged] == [None, None, None, None, [1, 3]]
        changes = center.changes_since("pts", 0)
        manager.close()

        recovered = recover(directory)
        assert [dict(r) for r in recovered.table(datamodel.T_NOTIFICATION).rows()] == logged
        center2 = NotificationCenter(recovered)
        assert center2.changes_since("pts", 0) == changes
        center2.watch("pts")
        recovered.insert("pts", {"id": 10})
        new_seqs = [
            r["seq_no"]
            for r in recovered.table(datamodel.T_NOTIFICATION).rows()
            if r["seq_no"] > top
        ]
        assert new_seqs  # the new center continued, not restarted, the sequence
        assert min(new_seqs) == top + 1
