"""Notification table, tombstones, listeners, purge (Section VI-C)."""

from pathlib import Path

import pytest

from repro.core import datamodel
from repro.db import Column, col, open_durable
from repro.db.persistence import load_snapshot
from repro.db.types import ANY, INTEGER, TEXT, TIMESTAMP
from repro.errors import SyncError
from repro.sync import NotificationCenter, SyncClient, SyncServer


@pytest.fixture
def setup(db):
    db.execute("CREATE TABLE pts (id INTEGER PRIMARY KEY, x FLOAT)")
    center = NotificationCenter(db)
    center.watch("pts")
    return db, center


class TestNotificationRows:
    def test_insert_produces_compact_notification(self, setup):
        db, center = setup
        db.execute("INSERT INTO pts (id, x) VALUES (1, 0.5), (2, 1.5)")
        rows = db.query(f"SELECT * FROM {datamodel.T_NOTIFICATION}")
        assert len(rows) == 1  # statement-level: one per statement
        row = rows[0]
        assert row["table_name"] == "pts"
        assert row["op"] == "insert"
        assert row["seq_no"] == 1
        # Compact: the paper's four columns plus the event's tids, once.
        assert set(row) == {"seq_no", "ts", "table_name", "op", "lo", "hi", "tids"}

    def test_seq_nos_increase(self, setup):
        db, center = setup
        db.execute("INSERT INTO pts (id, x) VALUES (1, 0.0)")
        db.execute("UPDATE pts SET x = 1.0")
        db.execute("DELETE FROM pts")
        seqs = [r["seq_no"] for r in db.query(
            f"SELECT seq_no FROM {datamodel.T_NOTIFICATION} ORDER BY seq_no"
        )]
        assert seqs == [1, 2, 3]
        ops = [r["op"] for r in db.query(
            f"SELECT op FROM {datamodel.T_NOTIFICATION} ORDER BY seq_no"
        )]
        assert ops == ["insert", "update", "delete"]

    def test_tombstones_record_tids(self, setup):
        db, center = setup
        db.execute("INSERT INTO pts (id, x) VALUES (1, 0.0), (2, 0.0)")
        # One row for the event; both tids are recoverable from it.
        (changed,) = db.query(f"SELECT * FROM {datamodel.T_NOTIFICATION}")
        assert changed["seq_no"] == 1
        assert (changed["lo"], changed["hi"], changed["tids"]) == (1, 2, None)
        assert center.changes_since("pts", 0) == (1, [(1, "insert"), (2, "insert")])

    def test_unwatched_table_silent(self, setup):
        db, center = setup
        db.execute("CREATE TABLE other (a INTEGER)")
        db.execute("INSERT INTO other (a) VALUES (1)")
        assert db.query(f"SELECT * FROM {datamodel.T_NOTIFICATION}") == []

    def test_unwatch(self, setup):
        db, center = setup
        center.unwatch("pts")
        db.execute("INSERT INTO pts (id, x) VALUES (1, 0.0)")
        assert db.query(f"SELECT * FROM {datamodel.T_NOTIFICATION}") == []

    def test_watch_idempotent(self, setup):
        db, center = setup
        center.watch("pts")
        db.execute("INSERT INTO pts (id, x) VALUES (1, 0.0)")
        assert len(db.query(f"SELECT * FROM {datamodel.T_NOTIFICATION}")) == 1

    def test_cannot_watch_machinery_tables(self, setup):
        db, center = setup
        with pytest.raises(SyncError):
            center.watch(datamodel.T_NOTIFICATION)

    def test_seq_resumes_after_existing_rows(self, db):
        db.execute("CREATE TABLE pts (id INTEGER)")
        datamodel.install_core_schema(db)
        db.insert(
            datamodel.T_NOTIFICATION,
            {"seq_no": 10, "ts": 1, "table_name": "pts", "op": "insert", "lo": 1, "hi": 1},
        )
        center = NotificationCenter(db)  # seeds its counter past 10
        center.watch("pts")
        db.execute("INSERT INTO pts (id) VALUES (1)")
        seqs = [
            r["seq_no"]
            for r in db.query(f"SELECT seq_no FROM {datamodel.T_NOTIFICATION}")
        ]
        assert max(seqs) == 11


class TestListeners:
    def test_listener_callbacks(self, setup):
        db, center = setup
        events = []
        center.add_batch_listener(lambda table, batch: events.append((table, batch)))
        db.execute("INSERT INTO pts (id, x) VALUES (1, 0.0)")
        db.execute("DELETE FROM pts")
        assert events == [("pts", [("insert", 1)]), ("pts", [("delete", 2)])]

    def test_remove_listener(self, setup):
        db, center = setup
        events = []
        listener = lambda *a: events.append(a)  # noqa: E731
        center.add_batch_listener(listener)
        center.remove_batch_listener(listener)
        db.execute("INSERT INTO pts (id, x) VALUES (1, 0.0)")
        assert events == []


class TestChangesSince:
    def test_replay_order(self, setup):
        db, center = setup
        db.execute("INSERT INTO pts (id, x) VALUES (1, 0.0)")
        db.execute("UPDATE pts SET x = 2.0 WHERE id = 1")
        newest, changes = center.changes_since("pts", 0)
        assert newest == 2
        assert [op for _tid, op in changes] == ["insert", "update"]

    def test_since_filters_consumed(self, setup):
        db, center = setup
        db.execute("INSERT INTO pts (id, x) VALUES (1, 0.0)")
        newest, _ = center.changes_since("pts", 0)
        db.execute("INSERT INTO pts (id, x) VALUES (2, 0.0)")
        newest2, changes = center.changes_since("pts", newest)
        assert len(changes) == 1
        assert newest2 == newest + 1

    def test_empty(self, setup):
        db, center = setup
        newest, changes = center.changes_since("pts", 0)
        assert newest == 0
        assert changes == []

    def test_seq_then_tid_order_whatever_order_the_statement_listed(self, setup):
        db, center = setup
        db.execute("CREATE TABLE other (id INTEGER PRIMARY KEY)")
        center.watch("other")
        db.insert_many("pts", [{"id": i, "x": 0.0} for i in range(1, 6)])
        db.insert("other", {"id": 1})
        db.delete_by_tids("pts", [4, 1, 3])
        newest, changes = center.changes_since("pts", 0)
        assert newest == 3
        assert changes == [(t, "insert") for t in (1, 2, 3, 4, 5)] + [
            (t, "delete") for t in (1, 3, 4)
        ]
        # A tail that ends on another table's event keeps the newest of ours.
        db.insert("other", {"id": 2})
        assert center.changes_since("pts", 2) == (3, [(t, "delete") for t in (1, 3, 4)])
        assert center.changes_since("pts", 3) == (3, [])


class TestPurge:
    def test_purge_respects_slowest_client(self, setup):
        db, center = setup
        db.execute("INSERT INTO pts (id, x) VALUES (1, 0.0)")
        db.execute("INSERT INTO pts (id, x) VALUES (2, 0.0)")
        # Two connected clients at different consumption points.
        db.insert(
            datamodel.T_CONNECTED_USER,
            {"id": 1, "host": "h", "port": 1, "table_name": "pts", "last_seq_no": 2},
        )
        db.insert(
            datamodel.T_CONNECTED_USER,
            {"id": 2, "host": "h", "port": 2, "table_name": "pts", "last_seq_no": 1},
        )
        removed = center.purge()
        assert removed == 1  # only seq 1: the slowest client consumed it
        db.update(datamodel.T_CONNECTED_USER, {"last_seq_no": 3}, col("id") == 2)
        removed = center.purge()
        assert removed == 1  # seq 2 now consumed by everyone
        assert db.query(f"SELECT * FROM {datamodel.T_NOTIFICATION}") == []

    def test_purge_without_clients_drops_all(self, setup):
        db, center = setup
        db.execute("INSERT INTO pts (id, x) VALUES (1, 0.0)")
        assert center.purge() == 1
        assert db.query(f"SELECT * FROM {datamodel.T_NOTIFICATION}") == []

    def test_quiet_table_does_not_pin_the_log_of_a_busy_one(self, db):
        db.execute("CREATE TABLE a (id INTEGER PRIMARY KEY)")
        db.execute("CREATE TABLE b (id INTEGER PRIMARY KEY)")
        center = NotificationCenter(db)
        server = SyncServer(db, center, use_sockets=False)
        client = SyncClient(server)
        quiet, busy = client.mirror("a"), client.mirror("b")
        for key in range(100):
            db.insert("b", {"id": key})
            client.refresh("a")
            client.refresh("b")
            assert server.purge_notifications() == 1
        # ``a`` saw no event, so its client never advanced -- and holds
        # nothing back: the horizon is per table.
        assert (quiet.last_seq_no, busy.last_seq_no) == (0, 100)
        assert len(db.table(datamodel.T_NOTIFICATION)) == 0
        client.close()
        server.close()

    def test_purge_keeps_what_a_client_of_that_table_has_not_consumed(self, db):
        db.execute("CREATE TABLE a (id INTEGER PRIMARY KEY)")
        db.execute("CREATE TABLE b (id INTEGER PRIMARY KEY)")
        db.execute("CREATE TABLE c (id INTEGER PRIMARY KEY)")
        center = NotificationCenter(db)
        for name in "abc":
            center.watch(name)
        for key in range(3):  # seqs: a 1 4 7, b 2 5 8, c 3 6 9
            for name in "abc":
                db.insert(name, {"id": key})
        users = [(1, "a", 4), (2, "a", 1), (3, "b", 5)]  # nobody mirrors c
        for cu_id, name, seq in users:
            db.insert(
                datamodel.T_CONNECTED_USER,
                {
                    "id": cu_id,
                    "host": "h",
                    "port": cu_id,
                    "table_name": name,
                    "last_seq_no": seq,
                },
            )
        assert center.purge() == 1 + 2 + 3
        # Step 11: every connected client can still replay all it missed.
        assert center.notifications_since("a", 1) == [(4, "insert"), (7, "insert")]
        assert center.changes_since("a", 1) == (7, [(2, "insert"), (3, "insert")])
        assert center.notifications_since("b", 5) == [(8, "insert")]
        assert center.notifications_since("c", 0) == []
        assert center.purge() == 0


SECOND_LOG = "ediflow_changed_rows"  # what versions before the one log kept
EVENT_COLUMNS = [
    Column("seq_no", INTEGER, nullable=False),
    Column("table_name", TEXT, nullable=False),
    Column("op", TEXT, nullable=False),
    Column("lo", INTEGER, nullable=False),
    Column("hi", INTEGER, nullable=False),
    Column("tids", ANY),
]
PER_TID_COLUMNS = [
    Column("seq_no", INTEGER, nullable=False),
    Column("table_name", TEXT, nullable=False),
    Column("tid", INTEGER, nullable=False),
    Column("op", TEXT, nullable=False),
]


def install_two_log_shape(db, second_log_columns):
    """The tables an older center created: the paper's four-column
    Notification table and, beside it, the table of changed tids."""
    db.create_table(
        datamodel.T_NOTIFICATION,
        [
            Column("seq_no", INTEGER, nullable=False),
            Column("ts", TIMESTAMP, nullable=False),
            Column("table_name", TEXT, nullable=False),
            Column("op", TEXT, nullable=False),
        ],
        primary_key="seq_no",
    )
    db.create_table(SECOND_LOG, second_log_columns)


class TestStoredShape:
    """Replace, not fork: a store an older version wrote is refused, not
    read through a second path -- and nothing is created in it."""

    def test_per_tid_table_of_an_older_version_is_refused(self, db):
        install_two_log_shape(db, PER_TID_COLUMNS)
        with pytest.raises(SyncError, match=datamodel.T_NOTIFICATION):
            NotificationCenter(db)

    def test_a_wal_directory_holding_the_second_log_table_is_refused(self, tmp_path):
        db, manager = open_durable(tmp_path)
        install_two_log_shape(db, EVENT_COLUMNS)
        db.insert(
            datamodel.T_NOTIFICATION,
            {"seq_no": 1, "ts": 1, "table_name": "pts", "op": "insert"},
        )
        db.insert(
            SECOND_LOG,
            {"seq_no": 1, "table_name": "pts", "op": "insert", "lo": 1, "hi": 2},
        )
        manager.close()
        recovered, manager = open_durable(tmp_path)
        assert recovered.has_table(SECOND_LOG)
        with pytest.raises(SyncError, match="older version"):
            NotificationCenter(recovered)
        manager.close()

    def test_a_snapshot_the_parent_commit_wrote_is_refused(self):
        # Written by NotificationCenter at 83bee68: one watched table,
        # an insert of two rows and a delete of one.
        path = Path(__file__).parent / "data" / "two_log_snapshot_83bee68.jsonl"
        db = load_snapshot(path)
        assert db.has_table(SECOND_LOG)
        assert len(db.table(datamodel.T_NOTIFICATION)) == 2
        tables = set(db.table_names())
        with pytest.raises(SyncError, match="older version"):
            NotificationCenter(db)
        assert set(db.table_names()) == tables

    def test_a_fresh_center_creates_one_unindexed_log_table(self, db):
        before = set(db.table_names())
        NotificationCenter(db)
        assert set(db.table_names()) - before == set(datamodel.CORE_TABLES)
        assert not db.has_table(SECOND_LOG)
        # seq_no is a column of one table in the whole store, and indexed
        # nowhere: it ascends with the log's tid, which its one reader
        # bisects.
        assert [
            name for name in db.table_names() if db.table(name).schema.has_column("seq_no")
        ] == [datamodel.T_NOTIFICATION]
        log = db.table(datamodel.T_NOTIFICATION)
        assert log.schema.primary_key is None
        assert log.find_hash_index("seq_no") is None
        assert log.find_sorted_index("seq_no") is None
        assert log.hash_indexes() == []
