"""The change log is statement-granular; what it *says* is still per tid.

The Notification table is the change log: one row per recorded event --
a tid range when the event's tids are contiguous, else the ascending
list -- and ``NotificationCenter.events_since`` is its one reader.  The
oracle at the top replays generated scripts against a per-tid reference
model folded from the statements' ``ChangeSet``s as a commit hook of the
test's own saw them -- one statement, or the statements of one
transaction, netted per table by the model itself -- under every
propagation policy and across purges; below it, the counts that make the
representation worth having, the replay cases one refresh window must
get right, and the structural tripwires that keep the per-tid write and
the second log table from coming back.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import datamodel
from repro.db import Column, Database, col, open_durable
from repro.db.schema import TID
from repro.db.types import INTEGER
from repro.db.wal import FSYNC_NEVER
from repro.errors import ConstraintViolation, DatabaseError, SyncError
from repro.sync import (
    IMMEDIATE,
    DeltaCoalescer,
    MANUAL,
    NotificationCenter,
    SyncClient,
    SyncServer,
    Threshold,
)

from .test_policy_gate import SRC, _hits

TABLES = ("t", "u")
LOG = datamodel.T_NOTIFICATION
OPS = (datamodel.OP_INSERT, datamodel.OP_UPDATE, datamodel.OP_DELETE)


def make_db(*tables):
    db = Database()
    for name in tables:
        db.create_table(
            name,
            [Column("id", INTEGER, nullable=False), Column("v", INTEGER)],
            primary_key="id",
        )
    return db


# ----------------------------------------------------------------------
# (a) statement-granular log == per-tid reference model
class Model:
    """What the per-tid log held: one ``(seq_no, table, op, tids)`` entry
    per recorded event, folded from the statements each commit's hook
    lists -- a commit's statements on one table netted into one delta,
    recorded alone under an immediate policy, coalesced since the last
    flush under a buffering one."""

    def __init__(self, db, center):
        self.db, self.center = db, center
        self.log = []
        self.next_seq = 1
        self.log_commits = []  # per commit: the log's (inserted, deleted) rows
        self.buffers = {name: DeltaCoalescer(name) for name in TABLES}
        self.clients = {name: [] for name in TABLES}
        self.ids = iter(range(1, 10_000))
        for name in TABLES:
            center.watch(name)
        db.add_commit_hook(self.committed)

    def committed(self, changes):
        # Statement order; the center's own rows (other tables) follow.
        self.log_commits.append(
            [
                (len(change.inserted), len(change.deleted))
                for change in changes
                if change.table == LOG
            ]
        )
        statements = [change for change in changes if change.table in TABLES]
        for change in statements:
            self.buffers[change.table].add(change)
        for table in dict.fromkeys(change.table for change in statements):
            if self.center.subscriptions[table].pending_ops() == 0:
                self.fold(table)  # recorded inline, or flushed just now

    def fold(self, table):
        net = self.buffers[table].net_changeset()
        self.buffers[table] = DeltaCoalescer(table)
        tids = (
            [row[TID] for row in net.inserted],
            [after[TID] for _before, after in net.updated],
            [row[TID] for row in net.deleted],
        )
        for op, touched in zip(OPS, tids):
            if touched:
                self.log.append((self.next_seq, table, op, sorted(touched)))
                self.next_seq += 1

    # -- the script ----------------------------------------------------
    def run(self, step):
        kind, *args = step
        if kind == "insert":
            table, value = args
            self.db.insert(table, {"id": next(self.ids), "v": value})
        elif kind == "insert_many":
            table, count, value = args
            self.db.insert_many(
                table, [{"id": next(self.ids), "v": value} for _ in range(count)]
            )
        elif kind == "update_where":
            table, old, new = args
            self.db.execute(f"UPDATE {table} SET v = ? WHERE v = ?", (new, old))
        elif kind == "delete_where":
            table, old = args
            self.db.execute(f"DELETE FROM {table} WHERE v = ?", (old,))
        elif kind == "delete_by_tids":
            table, seed = args
            rng = random.Random(seed)
            tids = self.db.table(table).tids()
            self.db.delete_by_tids(table, rng.sample(tids, rng.randint(0, len(tids))))
        elif kind == "txn":
            statements, commit = args
            try:
                with self.db.transaction():
                    for statement in statements:
                        self.run(statement)
                    if not commit:
                        raise Rollback
            except Rollback:
                pass
        elif kind == "flush":
            self.center.subscriptions[args[0]].flush()
            self.fold(args[0])
        elif kind == "clients":
            table, positions = args
            self.set_clients(table, [min(p, self.next_seq - 1) for p in positions])
        else:
            self.purge()

    def set_clients(self, table, positions):
        users = datamodel.T_CONNECTED_USER
        self.db.delete(users, col("table_name") == table)
        for position in positions:
            self.db.insert(
                users,
                {
                    "id": next(self.ids),
                    "host": "h",
                    "port": 1,
                    "table_name": table,
                    "last_seq_no": position,
                },
            )
        self.clients[table] = positions

    def purge(self):
        kept = [
            entry
            for entry in self.log
            if self.clients[entry[1]] and entry[0] > min(self.clients[entry[1]])
        ]
        commits = len(self.log_commits)
        dropped = len(self.log) - len(kept)
        assert self.center.purge() == dropped
        # One DELETE statement in one commit (none for an empty purge).
        assert self.log_commits[commits:] == ([[(0, dropped)]] if dropped else [])
        self.log = kept

    # -- the comparison ------------------------------------------------
    def check(self, cursor):
        # Exactly one Notification row per recorded event, and no other.
        stored = list(self.db.table(LOG).rows())
        assert [
            (row["seq_no"], row["table_name"], row["op"]) for row in stored
        ] == [entry[:3] for entry in self.log]
        for row, (_seq, _table, _op, tids) in zip(stored, self.log):
            contiguous = tids == list(range(tids[0], tids[-1] + 1))
            assert row["lo"] <= row["hi"]
            assert (row["lo"], row["hi"]) == (tids[0], tids[-1])
            # NULL iff the event is the contiguous run lo..hi.
            assert row["tids"] == (None if contiguous else tids)
        for table in TABLES:
            for since in {0, cursor % self.next_seq, self.next_seq - 1}:
                after = [e for e in self.log if e[1] == table and e[0] > since]
                newest = after[-1][0] if after else since
                assert self.center.changes_since(table, since) == (
                    newest,
                    [(tid, op) for _s, _t, op, tids in after for tid in tids],
                )
                events = self.center.events_since(table, since)
                assert [(seq, op, list(tids)) for seq, op, tids in events] == [
                    (seq, op, tids) for seq, _t, op, tids in after
                ]
                # The reconnect replay is the reader's (seq_no, op) projection.
                assert self.center.notifications_since(table, since) == [
                    (seq, op) for seq, op, _tids in events
                ]


class Rollback(Exception):
    pass


tables = st.sampled_from(TABLES)
values = st.integers(0, 3)
statements = st.one_of(
    st.tuples(st.just("insert"), tables, values),
    st.tuples(st.just("insert_many"), tables, st.integers(1, 6), values),
    st.tuples(st.just("update_where"), tables, values, values),
    st.tuples(st.just("delete_where"), tables, values),
    st.tuples(st.just("delete_by_tids"), tables, st.integers(0, 2**16)),
)
steps = st.lists(
    st.tuples(
        st.one_of(
            statements,
            st.tuples(
                st.just("txn"), st.lists(statements, max_size=4), st.booleans()
            ),
            st.tuples(st.just("flush"), tables),
            st.tuples(
                st.just("clients"), tables, st.lists(st.integers(0, 80), max_size=3)
            ),
            st.tuples(st.just("purge")),
        ),
        st.integers(0, 80),  # where this step's drawn cursor stands
    ),
    max_size=30,
)
policies = st.one_of(
    st.just(IMMEDIATE),
    st.just(MANUAL),
    st.builds(Threshold, max_changes=st.integers(1, 8), max_delay_ms=st.none()),
)


@given(steps, policies, policies)
@settings(max_examples=250, deadline=None)
def test_the_log_says_what_the_per_tid_log_said(script, policy_t, policy_u):
    db = make_db(*TABLES)
    center = NotificationCenter(db)
    model = Model(db, center)
    center.subscriptions["t"].set_policy(policy_t)
    center.subscriptions["u"].set_policy(policy_u)
    try:
        for step, cursor in script:
            model.run(step)
            model.check(cursor)
        for table in TABLES:
            model.run(("flush", table))
        model.check(0)
        # However the flushes fell, the sequence was gapless from 1.
        assert center._next_seq == model.next_seq
    finally:
        center.close()


# ----------------------------------------------------------------------
# (c) the counts
def calls_into(db, method):
    """Record the table name of every ``db.<method>(table, ...)`` call."""
    seen = []
    inner = getattr(db, method)

    def counted(table, *args, **kwargs):
        seen.append(table)
        return inner(table, *args, **kwargs)

    setattr(db, method, counted)
    return seen


def test_a_bulk_statement_logs_one_row_and_purges_one_row(tmp_path):
    db, manager = open_durable(tmp_path, fsync=FSYNC_NEVER)
    db.create_table(
        "t", [Column("id", INTEGER, nullable=False), Column("v", INTEGER)], primary_key="id"
    )
    center = NotificationCenter(db)
    center.watch("t")
    inserts, bulk_inserts = calls_into(db, "insert"), calls_into(db, "insert_many")
    log, log_appends = db.table(LOG), []
    append = log.append

    def counted_append(rows):
        log_appends.append(len(rows))
        return append(rows)

    log.append = counted_append
    commits = []
    db.add_commit_hook(lambda changes: commits.append([c.table for c in changes]))
    appends = manager.stats()["wal_appends"]
    db.insert_many("t", [{"id": i, "v": 0} for i in range(1000)])
    # One statement; the log row is no statement of its own but one
    # append of one row.
    assert inserts == []
    assert bulk_inserts == ["t"]
    assert log_appends == [1]
    # The log row arrives in the statement's own commit: one hook call,
    # one WAL record.
    assert commits == [["t", LOG]]
    assert manager.stats()["wal_appends"] == appends + 1
    (row,) = db.table(LOG).rows()
    assert (row["lo"], row["hi"], row["tids"]) == (1, 1000, None)
    assert len(center.changes_since("t", 0)[1]) == 1000

    deletes = calls_into(db, "delete_by_tids")
    assert center.purge() == 1
    # One DELETE statement, one commit, one WAL record.
    assert deletes == [LOG]
    assert commits[1:] == [[LOG]]
    assert manager.stats()["wal_appends"] == appends + 2
    assert len(db.table(LOG)) == 0
    manager.close()


def test_refresh_applies_one_batch_per_refresh():
    db = make_db("t")
    server = SyncServer(db, NotificationCenter(db), use_sockets=False)
    client = SyncClient(server)
    mirror = client.mirror("t")
    db.insert_many("t", [{"id": i, "v": 0} for i in range(1000)])
    db.execute("UPDATE t SET v = 1 WHERE id < 10")
    db.delete_by_tids("t", [7, 3, 500])
    batches, singles = [], []
    inner = mirror.apply_batch
    mirror.apply_batch = lambda upserts, deletes: batches.append(
        (len(upserts), len(deletes))
    ) or inner(upserts, deletes)
    mirror.apply_upsert = singles.append
    assert client.refresh("t") == {"upserts": 997, "deletes": 3}
    # Three events, 1,000 distinct tids: each changed row is read and
    # folded once, and 3 of them are gone by now.
    assert batches == [(997, 3)]
    assert singles == []
    assert mirror.tids() == db.table("t").tids()
    client.close()
    server.close()


def test_a_coalesced_flush_of_scattered_tids_stores_one_list():
    db = make_db("t")
    center = NotificationCenter(db)
    center.watch("t")
    db.insert_many("t", [{"id": i, "v": 0} for i in range(1, 513)])
    center.purge()
    center.subscriptions["t"].set_policy(MANUAL)
    for tid in range(512, 0, -2):
        db.update_by_tid("t", tid, {"v": 1})
    assert len(db.table(LOG)) == 0
    assert center.subscriptions["t"].flush() == 256
    (row,) = db.table(LOG).rows()
    assert row["op"] == "update"
    assert (row["lo"], row["hi"]) == (2, 512)
    assert row["tids"] == list(range(2, 513, 2))
    assert center.events_since("t", 0) == [(row["seq_no"], "update", row["tids"])]
    assert center.changes_since("t", 0) == (
        row["seq_no"],
        [(tid, "update") for tid in range(2, 513, 2)],
    )
    center.close()


def general_groups(change):
    """A change's log events as the general path makes them, one-row
    changes included: a tid list per op kind, then its bounds."""
    groups = []
    for op, tids in (
        (datamodel.OP_INSERT, [row[TID] for row in change.inserted]),
        (datamodel.OP_UPDATE, [after[TID] for _before, after in change.updated]),
        (datamodel.OP_DELETE, [row[TID] for row in change.deleted]),
    ):
        if tids:
            lo, hi = min(tids), max(tids)
            groups.append((op, lo, hi, None if hi - lo + 1 == len(tids) else sorted(tids)))
    return groups


def one_op_script(db, center):
    """Every shape of delivery: one-row statements, bulk statements,
    transaction blocks and buffered flushes, one row and many."""
    edge = center.watch("t")
    db.insert("t", {"id": 1, "v": 0})
    db.update_by_tid("t", 1, {"v": 1})
    db.insert_many("t", [{"id": i, "v": i} for i in range(2, 12)])
    db.delete("t", col("id") == 1)
    db.delete_by_tids("t", [9, 3, 6])
    with db.transaction():
        db.insert("t", {"id": 50, "v": 0})
        db.update_by_tid("t", 2, {"v": 5})
        db.delete_by_tids("t", [4, 10])
    with db.transaction():
        db.update_by_tid("t", 5, {"v": 7})
    edge.set_policy(Threshold(max_changes=4))
    db.insert("t", {"id": 60, "v": 0})
    db.update_by_tid("t", 7, {"v": 2})
    db.update_by_tid("t", 11, {"v": 2})
    db.delete_by_tids("t", [8])  # the fourth op flushes three op kinds
    edge.set_policy(MANUAL)
    db.update_by_tid("t", 2, {"v": 9})
    db.update_by_tid("t", 2, {"v": 10})
    assert edge.flush() == 1  # two updates of one row: a one-row delivery
    db.delete_by_tids("t", [5])
    edge.close()


def test_a_one_row_change_logs_the_rows_the_general_path_logs(monkeypatch):
    """The Notification rows (``SELECT *``) of every delivery shape are
    the same whether a one-row change takes its shortcut or is grouped
    like any other change."""
    from repro.sync import notification

    def logged():
        db = make_db("t")
        one_op_script(db, NotificationCenter(db))
        return db.query(f"SELECT * FROM {LOG}")

    fast = logged()
    monkeypatch.setattr(notification, "_groups", general_groups)
    assert logged() == fast
    ops = [(row["op"], row["lo"], row["hi"], row["tids"]) for row in fast]
    assert ops == [
        ("insert", 1, 1, None),
        ("update", 1, 1, None),
        ("insert", 2, 11, None),
        ("delete", 1, 1, None),
        ("delete", 3, 9, [3, 6, 9]),
        ("insert", 12, 12, None),
        ("update", 2, 2, None),
        ("delete", 4, 10, [4, 10]),
        ("update", 5, 5, None),
        ("insert", 13, 13, None),
        ("update", 7, 11, [7, 11]),
        ("delete", 8, 8, None),
        ("update", 2, 2, None),
        ("delete", 5, 5, None),
    ]
    assert [row["seq_no"] for row in fast] == list(range(1, len(fast) + 1))


# ----------------------------------------------------------------------
# (d) one refresh window, one tid, several events
def mirrored_stack():
    db = make_db("t")
    server = SyncServer(db, NotificationCenter(db), use_sockets=False)
    client = SyncClient(server)
    db.insert_many("t", [{"id": i, "v": 0} for i in range(1, 6)])
    return db, server, client, client.mirror("t")


def assert_mirror_is_table(mirror, db):
    assert mirror.all_rows() == [dict(row) for row in db.table("t").rows()]


def test_delete_restored_by_rollback_replays_to_the_table():
    db, server, client, mirror = mirrored_stack()
    db.update("t", {"v": 5}, col("id") == 2)
    try:
        with db.transaction():
            db.delete("t", col("id") <= 3)
            db.insert("t", {"id": 6, "v": 6})
            raise Rollback
    except Rollback:
        pass
    # The rolled-back statements left no event; the restored row is
    # pulled under the tid its committed update logged.
    assert client.refresh("t") == {"upserts": 1, "deletes": 0}
    assert mirror.get(2)["v"] == 5
    assert_mirror_is_table(mirror, db)
    client.close()
    server.close()


def test_update_then_delete_of_one_tid_replays_to_the_table():
    db, server, client, mirror = mirrored_stack()
    db.update("t", {"v": 1}, col("id") >= 4)
    db.delete("t", col("id") == 4)
    db.insert("t", {"id": 6, "v": 6})
    # Tid 4 was updated, then deleted: one changed row, gone by now.
    assert client.refresh("t") == {"upserts": 2, "deletes": 1}
    assert mirror.applied_deletes == 1
    assert_mirror_is_table(mirror, db)
    client.close()
    server.close()


def test_a_failed_update_leaves_the_mirror_nothing_to_miss():
    db, server, client, mirror = mirrored_stack()
    client.refresh("t")
    # Tid 1 could move to id 9; tid 2 cannot follow it there.
    with pytest.raises(ConstraintViolation):
        db.update("t", {"id": 9}, col("id") >= 1)
    assert len(db.table(LOG)) == 0
    assert client.refresh("t") == {"upserts": 0, "deletes": 0}
    assert_mirror_is_table(mirror, db)
    client.close()
    server.close()


# ----------------------------------------------------------------------
# The per-tid write, the per-row apply and the second log table stay gone.
def test_no_per_tid_log_write_and_no_op_tuple_apply_left_in_src():
    assert not _hits(r"insert_many\(", [SRC / "sync" / "notification.py"])
    assert not _hits(r"\.apply_ops\b|def apply_ops\(self", SRC.rglob("*.py"))


def test_no_second_log_table_left_in_src():
    assert not _hits(r"ediflow_changed_rows|T_CHANGED_ROWS", SRC.rglob("*.py"))


def test_at_most_one_log_row_per_event_whatever_call_writes_it():
    """The tripwire's intent, counted: a commit of many statements over
    many tids adds one row per event to the log -- three here, one per op
    kind of the table's net delta."""
    db = make_db("t")
    center = NotificationCenter(db)
    center.watch("t")
    db.insert_many("t", [{"id": i, "v": 0} for i in range(1, 101)])
    before = len(db.table(LOG))
    with db.transaction():
        for tid in range(1, 41):
            db.update_by_tid("t", tid, {"v": tid})
        db.delete("t", col("id") > 90)
        db.insert_many("t", [{"id": i, "v": 0} for i in range(200, 230)])
    assert len(db.table(LOG)) - before == 3
    assert [op for _seq, op in center.notifications_since("t", 1)] == list(OPS)
    center.close()


# ----------------------------------------------------------------------
# The log rows join their commit after its triggers: nothing may watch it.
def test_the_log_table_takes_no_trigger_and_no_subscription():
    db = make_db("t")
    center = NotificationCenter(db)
    with pytest.raises(DatabaseError, match="is a log"):
        db.on(LOG, "insert", lambda change: None)
    with pytest.raises(DatabaseError, match="is a log"):
        db.subscribe(LOG, lambda change: None, "watch_the_log")
    with pytest.raises(SyncError, match="cannot watch"):
        center.watch(LOG)
    assert db.trigger_names() == [] and db.subscriptions(LOG) == []
    # A second center on the database claims the same log: still refused.
    NotificationCenter(db)
    with pytest.raises(DatabaseError, match="is a log"):
        db.on(LOG, ("insert", "delete"), lambda change: None)


def test_a_center_refuses_a_log_table_that_has_a_trigger():
    db = make_db("t")
    datamodel.install_core_schema(db)
    db.on(LOG, "insert", lambda change: None)
    with pytest.raises(DatabaseError, match="has triggers"):
        NotificationCenter(db)
