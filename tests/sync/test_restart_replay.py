"""Reconnect across a server restart: the notification log is durable.

The purge-horizon invariant ("never purge above any connected client's
last_seq_no") only helps a reconnecting client if the seq-no and
changed-rows tables actually SURVIVE the server dying.  With a durable
database they are WAL-covered like any other table, so a client that
remembers its position can replay exactly what it missed.  The
ConnectedUser rows are the restarted server's registrations: it counts,
unregisters, evicts and reconnects the clients they name.
"""

import queue

import pytest

from repro.core import datamodel
from repro.db import col, open_durable
from repro.errors import SyncError
from repro.retry import RetryPolicy
from repro.sync import NotificationCenter, SyncClient, SyncServer
from repro.sync import client as client_mod


@pytest.fixture
def durable_stack(tmp_path):
    directory = tmp_path / "data"
    db, manager = open_durable(directory)
    db.execute("CREATE TABLE pts (id INTEGER PRIMARY KEY, x FLOAT)")
    db.execute("INSERT INTO pts (id, x) VALUES (1, 0.0), (2, 1.0)")
    center = NotificationCenter(db)
    server = SyncServer(db, center, use_sockets=False)
    client = SyncClient(server)
    return directory, db, server, client


def restart(directory):
    """The server process dies (fsync=always: every commit is on disk)
    and a new one recovers from the durable directory.  Reopening with
    ``open_durable`` (not bare ``recover``) keeps post-restart writes
    logged too, so a SECOND restart sees them."""
    db, _manager = open_durable(directory)
    center = NotificationCenter(db)
    server = SyncServer(db, center, use_sockets=False)
    return db, center, server


def reattach(client, db, server):
    """Point a surviving client at the restarted server (in-process
    transport: the "socket" is plain attribute wiring)."""
    client.database = db
    client.server = server
    client.center = server.center


class TestRestartReplay:
    def test_missed_changes_replay_after_restart(self, durable_stack):
        directory, db, _server, client = durable_stack
        mirror = client.mirror("pts")
        position = mirror.last_seq_no
        assert len(mirror) == 2

        # Changes the client never pulls before the server dies.
        db.execute("INSERT INTO pts (id, x) VALUES (3, 2.0)")
        db.execute("UPDATE pts SET x = 9.0 WHERE id = 1")
        db.execute("DELETE FROM pts WHERE id = 2")

        db2, center2, server2 = restart(directory)
        # The restarted server re-armed the watch trigger from the durable
        # ConnectedUser rows -- new writes keep flowing into the log.
        assert center2.watched_tables() == ["pts"]
        missed = center2.notifications_since("pts", position)
        assert [op for _seq, op in missed] == ["insert", "update", "delete"]

        reattach(client, db2, server2)
        stats = client.refresh("pts")
        assert stats == {"upserts": 2, "deletes": 1}
        assert {r["id"]: r["x"] for r in mirror.all_rows()} == {1: 9.0, 3: 2.0}
        assert mirror.last_seq_no == max(seq for seq, _op in missed)

    def test_a_refresh_that_pulled_nothing_is_no_commit(self, tmp_path):
        """The ConnectedUser cursor is written when it moves: an idle
        dashboard cycle costs no commit, no WAL record, no byte."""
        db, manager = open_durable(tmp_path / "idle")
        db.execute("CREATE TABLE pts (id INTEGER PRIMARY KEY, x FLOAT)")
        server = SyncServer(db, NotificationCenter(db), use_sockets=False)
        client = SyncClient(server)
        client.mirror("pts")
        db.execute("INSERT INTO pts (id, x) VALUES (1, 0.0)")
        before = manager.stats()
        assert client.refresh("pts") == {"upserts": 1, "deletes": 0}
        moved = manager.stats()
        assert moved["commits"] == before["commits"] + 1  # the cursor moved
        for _ in range(10):
            assert client.refresh("pts") == {"upserts": 0, "deletes": 0}
        assert manager.stats() == moved
        # What the purge horizon reads is where the client stands.
        assert server.purge_notifications() == 1
        client.close()
        server.close()
        manager.close()

    def test_changes_since_survives_restart_verbatim(self, durable_stack):
        directory, db, _server, client = durable_stack
        mirror = client.mirror("pts")
        position = mirror.last_seq_no
        db.execute("INSERT INTO pts (id, x) VALUES (4, 4.0)")
        before = client.center.changes_since("pts", position)

        _db2, center2, _server2 = restart(directory)
        assert center2.changes_since("pts", position) == before

    def test_connected_user_registration_survives_restart(self, durable_stack):
        from repro.core import datamodel

        directory, db, _server, client = durable_stack
        client.mirror("pts")
        users_before = [
            dict(r) for r in db.table(datamodel.T_CONNECTED_USER).rows()
        ]
        assert users_before

        db2, _center2, server2 = restart(directory)
        users_after = [
            dict(r) for r in db2.table(datamodel.T_CONNECTED_USER).rows()
        ]
        assert users_after == users_before
        # The surviving registration keeps the purge horizon honest: the
        # reattached client can still advance its seq through the server.
        reattach(client, db2, server2)
        db2.execute("INSERT INTO pts (id, x) VALUES (7, 7.0)")
        client.refresh("pts")
        horizon = db2.table(datamodel.T_CONNECTED_USER).rows()
        assert [r["last_seq_no"] for r in horizon] == [
            client.table("pts").last_seq_no
        ]

    def test_new_client_full_replay_from_durable_log(self, durable_stack):
        directory, db, _server, client = durable_stack
        client.mirror("pts")
        db.execute("INSERT INTO pts (id, x) VALUES (5, 5.0)")
        db.execute("DELETE FROM pts WHERE id = 1")

        db2, _center2, server2 = restart(directory)
        fresh = SyncClient(server2)
        mirror = fresh.mirror("pts")  # initial fill from the recovered R_D
        assert {r["id"] for r in mirror.all_rows()} == {
            r["id"] for r in db2.query("SELECT id FROM pts")
        }

    def test_double_restart_keeps_replaying(self, durable_stack):
        directory, db, _server, client = durable_stack
        mirror = client.mirror("pts")
        db.execute("INSERT INTO pts (id, x) VALUES (3, 3.0)")

        db2, _center2, server2 = restart(directory)
        reattach(client, db2, server2)
        client.refresh("pts")
        db2.execute("INSERT INTO pts (id, x) VALUES (4, 4.0)")

        db3, _center3, server3 = restart(directory)
        reattach(client, db3, server3)
        client.refresh("pts")
        assert {r["id"] for r in mirror.all_rows()} == {1, 2, 3, 4}

    def test_restart_between_two_multi_statement_commits(self, durable_stack):
        """A transaction is one commit: its rows and the net delta's log
        rows are on disk together, so a server that dies between two of
        them replays the first whole and numbers the second on from it."""
        directory, db, _server, client = durable_stack
        mirror = client.mirror("pts")
        position = mirror.last_seq_no
        with db.transaction():
            db.insert("pts", {"id": 3, "x": 3.0})
            db.update("pts", {"x": 9.0}, col("id") == 1)
            db.update("pts", {"x": 3.5}, col("id") == 3)  # nets into the insert
            db.delete("pts", col("id") == 2)

        db2, center2, server2 = restart(directory)
        missed = center2.notifications_since("pts", position)
        assert [op for _seq, op in missed] == ["insert", "update", "delete"]
        assert [seq for seq, _op in missed] == [position + 1, position + 2, position + 3]
        reattach(client, db2, server2)
        assert client.refresh("pts") == {"upserts": 2, "deletes": 1}
        assert {r["id"]: r["x"] for r in mirror.all_rows()} == {1: 9.0, 3: 3.5}

        with db2.transaction():
            db2.insert("pts", {"id": 4, "x": 4.0})
            db2.delete("pts", col("id") == 3)
            db2.insert("pts", {"id": 5, "x": 5.0})
            db2.delete("pts", col("id") == 5)  # annihilates its insert
        db3, center3, server3 = restart(directory)
        assert center3.notifications_since("pts", position + 3) == [
            (position + 4, "insert"),
            (position + 5, "delete"),
        ]
        reattach(client, db3, server3)
        assert client.refresh("pts") == {"upserts": 1, "deletes": 1}
        assert mirror.all_rows() == [dict(r) for r in db3.table("pts").rows()]
        assert {r["id"] for r in mirror.all_rows()} == {1, 4}

    def test_drained_log_never_reissues_consumed_sequence_numbers(self, durable_stack):
        """A deployment that purges after every frame (Fig. 8, step 11)
        stops with an empty log: the restarted center must number on from
        what the ConnectedUser rows remember, or a reconnecting client is
        already past the new changes and never pulls them."""
        directory, db, server, client = durable_stack
        mirror = client.mirror("pts")
        for key in range(3, 8):
            db.execute("INSERT INTO pts (id, x) VALUES (?, 0.0)", (key,))
        client.refresh("pts")
        position = mirror.last_seq_no
        assert position == 5
        assert server.purge_notifications() == 5  # the log is empty now

        db2, center2, server2 = restart(directory)
        reattach(client, db2, server2)
        db2.execute("INSERT INTO pts (id, x) VALUES (8, 8.0)")
        newest, changes = center2.changes_since("pts", position)
        assert newest == position + 1
        assert [op for _tid, op in changes] == ["insert"]
        assert center2.notifications_since("pts", position) == [(newest, "insert")]
        assert client.refresh("pts") == {"upserts": 1, "deletes": 0}
        assert {r["id"] for r in mirror.all_rows()} == set(range(1, 9))


def registrations(db):
    return [dict(r) for r in db.table(datamodel.T_CONNECTED_USER).rows()]


class TestInheritedRegistrations:
    """A restarted server inherits the ConnectedUser rows as its own
    registrations: it counts them, drops them, and reconnects their
    clients -- the table is the server's one registry."""

    def test_client_close_after_restart_removes_its_row_and_frees_the_log(
        self, durable_stack
    ):
        directory, db, _server, client = durable_stack
        client.mirror("pts")
        for key in range(3, 8):
            db.execute("INSERT INTO pts (id, x) VALUES (?, 0.0)", (key,))

        db2, _center2, server2 = restart(directory)
        assert server2.client_count() == 1
        reattach(client, db2, server2)
        client.close()
        assert registrations(db2) == []
        assert server2.client_count() == 0
        # Nobody mirrors pts any more: its whole log is reclaimed.
        assert server2.purge_notifications() == 5
        assert len(db2.table(datamodel.T_NOTIFICATION)) == 0

    def test_unregister_drops_an_inherited_registration_exactly_once(
        self, durable_stack
    ):
        directory, _db, _server, client = durable_stack
        client.mirror("pts")

        db2, _center2, server2 = restart(directory)
        (row,) = registrations(db2)
        assert server2.unregister_client(row["id"]) is True
        assert server2.unregister_client(row["id"]) is False
        assert registrations(db2) == []
        assert server2.client_count() == 0

    def test_close_drops_every_registration_in_one_commit(self, tmp_path):
        db, manager = open_durable(tmp_path / "three")
        db.execute("CREATE TABLE pts (id INTEGER PRIMARY KEY, x FLOAT)")
        server = SyncServer(db, NotificationCenter(db), use_sockets=False)
        for _ in range(3):
            SyncClient(server).mirror("pts")
        assert server.client_count() == 3
        before = manager.stats()["commits"]
        server.close()
        assert manager.stats()["commits"] == before + 1
        assert registrations(db) == []
        manager.close()


def socket_server(db):
    return SyncServer(
        db, NotificationCenter(db), use_sockets=True, heartbeat_interval=None
    )


@pytest.fixture
def socket_stack(tmp_path):
    """A durable database, a socket server and one client mirroring pts;
    the test restarts the server and rewires the client."""
    directory = tmp_path / "sockets"
    db, manager = open_durable(directory)
    db.execute("CREATE TABLE pts (id INTEGER PRIMARY KEY, x FLOAT)")
    server = socket_server(db)
    client = SyncClient(
        server,
        reconnect=RetryPolicy(max_attempts=3, base_delay=0.01, max_delay=0.05),
    )
    client.mirror("pts")
    restarted = []
    yield directory, server, client, restarted
    client.close()
    for server2, manager2 in restarted:
        server2.close()
        manager2.close()
    server.close()
    manager.close()


def restart_sockets(directory, restarted):
    db2, manager2 = open_durable(directory)
    server2 = socket_server(db2)
    restarted.append((server2, manager2))
    return db2, server2


class TestInheritedSocketRegistrations:
    def test_an_inherited_registration_is_detached_and_evictable(self, socket_stack):
        directory, _server, _client, restarted = socket_stack
        db2, server2 = restart_sockets(directory, restarted)
        assert server2.client_count() == 1
        assert server2.connected_count() == 0
        assert server2.detached_count() == 1
        assert server2.evict_detached(max_age=3600.0) == 0  # too young
        assert server2.evict_detached(max_age=0.0) == 1
        assert registrations(db2) == []
        assert server2.client_count() == server2.detached_count() == 0
        assert server2.evict_detached(max_age=0.0) == 0

    def test_a_client_whose_link_dies_reconnects_to_the_restarted_server(
        self, socket_stack
    ):
        directory, server, client, restarted = socket_stack
        mirror = client.table("pts")
        outcome = queue.Queue()
        client.on_status(
            lambda status, _reason: status != client_mod.RECONNECTING
            and outcome.put(status)
        )
        db2, server2 = restart_sockets(directory, restarted)
        reattach(client, db2, server2)
        # The old server dies: its end of the link closes.
        server._endpoints[(client.host, client.port)].conn.transport.close()
        assert outcome.get(timeout=10.0) == client_mod.CONNECTED
        assert client.reconnects == 1
        assert server2.connected_count() == 1
        assert server2.detached_count() == 0

        # The loss flagged the mirror; nothing was missed.
        assert client.refresh("pts") == {"upserts": 0, "deletes": 0}
        heard = client.notify_received
        db2.execute("INSERT INTO pts (id, x) VALUES (1, 1.0)")
        assert client.wait_dirty("pts", timeout=5.0)
        assert client.notify_received == heard + 1
        assert client.refresh("pts") == {"upserts": 1, "deletes": 0}
        assert mirror.all_rows() == [dict(r) for r in db2.table("pts").rows()]

    def test_a_mirror_never_connected_back_leaves_no_row_to_pin_the_purge(
        self, tmp_path, monkeypatch
    ):
        """A new client whose port a detached registration holds (a dead
        client's, inherited across a restart) is not connected back, so
        its first mirror fails -- and drops the row it registered, which
        would otherwise hold the table's log forever."""
        db, manager = open_durable(tmp_path / "found")
        db.execute("CREATE TABLE pts (id INTEGER PRIMARY KEY, x FLOAT)")
        db.execute("CREATE TABLE other (id INTEGER PRIMARY KEY)")
        center = NotificationCenter(db)
        first = SyncServer(db, center, use_sockets=True, heartbeat_interval=None)
        client = SyncClient(first)
        first.close()
        db.insert(
            datamodel.T_CONNECTED_USER,
            {
                "id": 99,
                "host": client.host,
                "port": client.port,
                "table_name": "other",
                "last_seq_no": 0,
            },
        )
        server = SyncServer(db, center, use_sockets=True, heartbeat_interval=None)
        client.server = server
        assert server.detached_count() == 1
        accept = client._accept_callback_connection
        monkeypatch.setattr(
            client, "_accept_callback_connection", lambda timeout: accept(0.2)
        )
        with pytest.raises(SyncError, match="never connected back"):
            client.mirror("pts")
        assert [(r["id"], r["table_name"]) for r in registrations(db)] == [
            (99, "other")
        ]
        # pts is watched (register_client watched it) and mirrored by
        # nobody: the purge reclaims every one of its log rows.
        for key in range(3):
            db.insert("pts", {"id": key, "x": 0.0})
        assert len(center.events_since("pts", 0)) == 3
        assert center.purge() == 3
        assert center.events_since("pts", 0) == []
        client.close()
        server.close()
        manager.close()
