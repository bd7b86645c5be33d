"""One commit routine: trigger phase, log, publish.

An auto-committed statement, an explicit transaction and a trigger
cascade all go through ``Database._commit``.  For each, checked here:
``add_commit_hook`` sees exactly one call whose list holds the user's
change sets in statement order followed by the rows their triggers wrote;
the WAL gains exactly one record; the ``NotificationCenter``'s listeners
are called after the hook, once per (commit, watched table), with at most
three events; a rolled-back transaction produces none of the three.  Then
the failure semantics (a raising trigger, a refusing log) against the
invariant *after any exception out of a commit, ``recover()`` equals the
live tables*, and the structural tripwires that keep the three-record
format, the per-row undo log and a second commit path from coming back.
"""

import ast

import pytest

from repro.core import datamodel
from repro.db import Column, Database, col, open_durable, recover
from repro.db.transactions import Transaction
from repro.db.types import INTEGER
from repro.db.wal import FSYNC_NEVER, KIND_COMMIT, read_wal
from repro.errors import DatabaseError
from repro.sync import MANUAL, NotificationCenter, Threshold

from ..sync.test_policy_gate import SRC, _hits

class Boom(Exception):
    pass


class Stack:
    """A durable database with two watched tables and a marked timeline:
    every commit-hook call and every listener call, in the order made."""

    def __init__(self, directory):
        self.directory = directory
        self.db, self.manager = open_durable(directory, fsync=FSYNC_NEVER)
        for name in ("a", "b"):
            self.db.create_table(
                name,
                [Column("id", INTEGER, nullable=False), Column("v", INTEGER)],
                primary_key="id",
            )
        self.center = NotificationCenter(self.db)
        self.center.watch("a")
        self.center.watch("b")
        self.timeline = []
        self.db.add_commit_hook(
            lambda changes: self.timeline.append(
                ("hook", [(c.table, *map(len, (c.inserted, c.updated, c.deleted))) for c in changes])
            )
        )
        self.center.add_batch_listener(
            lambda table, events: self.timeline.append(
                ("listener", table, [op for op, _seq in events])
            )
        )
        self.appends = self.manager.stats()["wal_appends"]

    def new_appends(self):
        appends, self.appends = self.appends, self.manager.stats()["wal_appends"]
        return self.appends - appends

    def assert_recovers_to_live(self, clock=True):
        self.manager.close()
        recovered = recover(self.directory)
        assert recovered.table_names() == self.db.table_names()
        for name in self.db.table_names():
            assert [dict(r) for r in recovered.table(name).rows()] == [
                dict(r) for r in self.db.table(name).rows()
            ], name
        if clock:
            assert recovered.now() == self.db.now()


@pytest.fixture
def stack(tmp_path):
    return Stack(tmp_path)


def log_rows(events):
    """What the center's trigger adds for one net delta of ``events`` op
    kinds: one Notification row each, in one change set (their tids are
    consecutive)."""
    return [(datamodel.T_NOTIFICATION, events, 0, 0)]


# ----------------------------------------------------------------------
# One commit, checkable
def test_an_auto_committed_statement_is_one_commit(stack):
    stack.db.insert_many("a", [{"id": i, "v": 0} for i in range(5)])
    assert stack.timeline == [
        ("hook", [("a", 5, 0, 0)] + log_rows(1)),
        ("listener", "a", ["insert"]),
    ]
    assert stack.new_appends() == 1
    stack.assert_recovers_to_live()


def test_a_transaction_is_one_commit_and_one_net_delta_per_table(stack):
    db = stack.db
    db.insert_many("a", [{"id": i, "v": 0} for i in (1, 2, 3)])
    db.insert("b", {"id": 1, "v": 0})
    stack.timeline.clear()
    stack.new_appends()
    with db.transaction():
        db.insert("a", {"id": 4, "v": 4})
        db.update("b", {"v": 1}, col("id") == 1)
        db.update("a", {"v": 5}, col("id") >= 3)  # rows 3 and (the new) 4
        db.delete("a", col("id") == 1)
        db.insert("b", {"id": 2, "v": 2})
        db.delete("b", col("id") == 2)  # annihilates its own insert
        assert stack.timeline == []  # nothing fires, logs or leaves yet
    hook, *listeners = stack.timeline
    # The log keeps the statements, in statement order; then what the
    # triggers wrote: table a's net delta is an insert (4, as updated), an
    # update (3) and a delete (1) -- three events; table b's one update.
    assert hook == (
        "hook",
        [
            ("a", 1, 0, 0),
            ("b", 0, 1, 0),
            ("a", 0, 2, 0),
            ("a", 0, 0, 1),
            ("b", 1, 0, 0),
            ("b", 0, 0, 1),
        ]
        + log_rows(3)
        + log_rows(1),
    )
    assert listeners == [
        ("listener", "a", ["insert", "update", "delete"]),
        ("listener", "b", ["update"]),
    ]
    assert stack.new_appends() == 1
    # The net insert carries the last image.
    assert [
        (op, list(tids)) for _seq, op, tids in stack.center.events_since("a", 1)
    ] == [
        ("insert", [4]),
        ("update", [3]),
        ("delete", [1]),
    ]
    assert db.table("a").by_key(4)["v"] == 5
    stack.assert_recovers_to_live()


def test_a_trigger_cascade_joins_the_commit_that_caused_it(stack):
    db = stack.db
    # a -> b: every insert into ``a`` is tallied in ``b``, which is watched.
    db.on("a", "insert", lambda ch: db.insert("b", {"id": len(db.table("b")), "v": len(ch.inserted)}))
    db.insert_many("a", [{"id": i, "v": 0} for i in range(3)])
    hook, *listeners = stack.timeline
    assert hook[0] == "hook"
    assert hook[1][0] == ("a", 3, 0, 0)  # the user's rows come first
    # Two deliveries, a's and b's: a log change set of one row each.
    assert sorted(hook[1][1:]) == sorted([("b", 1, 0, 0)] + log_rows(1) * 2)
    assert sorted(listeners) == [
        ("listener", "a", ["insert"]),
        ("listener", "b", ["insert"]),
    ]
    assert stack.new_appends() == 1
    stack.assert_recovers_to_live()


def test_a_trigger_that_opens_a_transaction_joins_too(stack):
    db = stack.db

    def tally(change):
        with db.transaction():
            db.insert("b", {"id": 1, "v": 0})
            db.update("b", {"v": len(change.inserted)}, col("id") == 1)

    db.on("a", "insert", tally)
    db.insert_many("a", [{"id": i, "v": 0} for i in range(3)])
    (hook, *listeners) = stack.timeline
    assert [c for c in hook[1] if c[0] == "b"] == [("b", 1, 0, 0), ("b", 0, 1, 0)]
    # ... and its two statements reached b's triggers as one net insert.
    assert ("listener", "b", ["insert"]) in listeners
    assert stack.new_appends() == 1
    stack.assert_recovers_to_live()


def test_a_policy_flush_is_one_commit_with_its_fan_out_after_it(stack):
    """A buffering edge's net delta reaches the center through the
    database's gate: the flush's log rows are one commit (one hook call,
    one WAL record) and the listeners hear of them after it -- flushed by
    a caller, or inside the commit whose change crossed a count bound."""
    db, edges = stack.db, stack.center.subscriptions
    edges["a"].set_policy(MANUAL)
    edges["b"].set_policy(Threshold(max_changes=2, max_delay_ms=None))
    db.insert_many("a", [{"id": i, "v": 0} for i in range(3)])
    db.update("a", {"v": 1}, col("id") == 0)
    db.insert("b", {"id": 1, "v": 0})
    stack.timeline.clear()
    stack.new_appends()
    assert edges["a"].flush() == 3  # the update folded into its insert
    assert stack.timeline == [
        ("hook", log_rows(1)),
        ("listener", "a", ["insert"]),
    ]
    assert stack.new_appends() == 1
    stack.timeline.clear()
    db.insert("b", {"id": 2, "v": 0})  # the crossing change
    assert stack.timeline == [
        ("hook", [("b", 1, 0, 0)] + log_rows(1)),
        ("listener", "b", ["insert"]),
    ]
    assert stack.new_appends() == 1
    stack.assert_recovers_to_live()


def test_a_rolled_back_transaction_is_no_commit(stack):
    db = stack.db
    db.insert("a", {"id": 1, "v": 0})
    stack.timeline.clear()
    stack.new_appends()
    seq = stack.center._next_seq
    with pytest.raises(Boom):
        with db.transaction():
            db.insert("a", {"id": 2, "v": 0})
            db.update("a", {"v": 9}, col("id") == 1)
            db.insert("b", {"id": 1, "v": 0})
            raise Boom
    assert stack.timeline == []
    assert stack.new_appends() == 0
    assert stack.center._next_seq == seq
    assert [(r["id"], r["v"]) for r in db.table("a").rows()] == [(1, 0)]
    # (The undone statements' clock ticks are spent, and logged by no one.)
    stack.assert_recovers_to_live(clock=False)


def test_a_transaction_is_its_change_sets_not_a_record_per_row():
    db = Database()
    db.create_table("t", [Column("id", INTEGER, nullable=False)], primary_key="id")
    with pytest.raises(Boom):
        with db.transaction() as transaction:
            db.insert_many("t", [{"id": i} for i in range(1000)])
            db.delete("t", col("id") < 10)
            # The undo log is the two change sets themselves.
            assert [len(c.inserted) + len(c.deleted) for c in transaction.changes] == [
                1000,
                10,
            ]
            assert vars(transaction).keys() == {"_database", "changes", "active"}
            raise Boom
    assert len(db.table("t")) == 0


# ----------------------------------------------------------------------
# Failure semantics
def test_a_raising_trigger_leaves_the_commit_logged_and_published(stack):
    db = stack.db

    def boom(change):
        raise Boom

    db.on("a", "insert", boom)  # fires after the center's trigger
    with pytest.raises(Boom):
        db.insert("a", {"id": 1, "v": 0})
    # AFTER semantics: the statement stands -- logged, with what the
    # triggers before the failing one had written, and published.
    assert stack.timeline == [
        ("hook", [("a", 1, 0, 0)] + log_rows(1)),
        ("listener", "a", ["insert"]),
    ]
    assert stack.new_appends() == 1
    with pytest.raises(Boom):
        with db.transaction():
            db.insert("a", {"id": 2, "v": 0})
            db.insert("b", {"id": 1, "v": 0})
    assert [r["id"] for r in db.table("a").rows()] == [1, 2]
    assert stack.new_appends() == 1
    stack.assert_recovers_to_live()


def test_a_refused_log_record_publishes_nothing(stack):
    db = stack.db

    def refuse(changes):
        raise DatabaseError("disk full")

    db.add_commit_hook(refuse)
    with pytest.raises(DatabaseError, match="disk full"):
        db.insert("a", {"id": 1, "v": 0})
    # Write-ahead: no listener hears of a commit the log refused ...
    assert [entry[0] for entry in stack.timeline] == ["hook"]
    db.remove_commit_hook(refuse)
    stack.timeline.clear()
    # ... and nothing it deferred leaks into the next commit.
    db.insert("a", {"id": 2, "v": 0})
    assert [entry for entry in stack.timeline if entry[0] == "listener"] == [
        ("listener", "a", ["insert"])
    ]


def test_after_commit_runs_at_once_outside_a_commit():
    db = Database()
    db.create_table("t", [Column("id", INTEGER, nullable=False)], primary_key="id")
    ran = []
    db.after_commit(ran.append, "now")
    assert ran == ["now"]
    db.on("t", "insert", lambda change: db.after_commit(ran.append, "deferred"))
    db.add_commit_hook(lambda changes: ran.append("logged"))
    db.insert("t", {"id": 1})
    assert ran == ["now", "logged", "deferred"]


def test_a_row_updated_later_in_its_transaction_is_logged_as_it_was(tmp_path):
    """An UPDATE copies the row it changes, so the images an earlier
    statement of the transaction logged stay what that statement wrote.
    Mutated in place, this insert was logged with the key the later
    update gave it -- the key row 3 still held at that point of the redo:
    the directory could not be recovered."""
    db, manager = open_durable(tmp_path, fsync=FSYNC_NEVER)
    db.create_table(
        "t",
        [Column("id", INTEGER, nullable=False), Column("u", INTEGER)],
        primary_key="id",
        unique=[("u",)],
    )
    db.insert("t", {"id": 3, "u": 5})
    logged = []
    db.add_commit_hook(logged.extend)
    with db.transaction():
        inserted = db.insert("t", {"id": 1, "u": 1})
        db.delete("t", col("id") == 3)
        db.update("t", {"u": 5}, col("id") == 1)
    assert inserted["u"] == 1 and logged[0].inserted == [inserted]
    manager.close()
    recovered = recover(tmp_path)
    assert [dict(r) for r in recovered.table("t").rows()] == [
        dict(r) for r in db.table("t").rows()
    ]


def test_one_wal_record_per_commit(stack):
    db = stack.db
    db.insert("a", {"id": 1, "v": 0})
    with db.transaction():
        db.insert("a", {"id": 2, "v": 0})
        db.insert("b", {"id": 1, "v": 0})
    stack.manager.close()
    (wal_file,) = stack.directory.glob("wal-*.log")
    records, _good = read_wal(wal_file)
    commits = [r.payload for r in records if r.kind == KIND_COMMIT]
    assert [sorted(p) for p in commits] == [["clk", "k", "ops", "x"]] * 2
    assert [[op["t"] for op in p["ops"]] for p in commits] == [
        ["a", datamodel.T_NOTIFICATION],
        # The two tables' log rows are one run of inserts: one op.
        ["a", "b", datamodel.T_NOTIFICATION],
    ]


def test_a_run_of_statements_on_one_table_is_one_op_of_the_record(stack):
    db = stack.db
    with db.transaction():
        for i in range(5):
            db.insert("a", {"id": i, "v": 0})
        db.update("a", {"v": 1}, col("id") == 0)
        db.update("a", {"v": 2}, col("id") == 0)  # the same row again: in order
        db.insert("a", {"id": 9, "v": 9})
        db.delete("a", col("id") == 9)
    (wal_file,) = stack.directory.glob("wal-*.log")
    stack.manager.wal.sync()
    records, _good = read_wal(wal_file)
    ops = records[-1].payload["ops"]
    # The statements' rows: one op per run of one kind on one table.  Then
    # the center's rows for ``a``'s net delta, a single insert event (row
    # 0's updates fold into its insert, row 9 annihilates itself).
    assert [
        (op["op"], op["t"], len(op.get("tids", ())) or len(op["vals"]) // len(op["cols"]))
        for op in ops
    ] == [
        ("I", "a", 5),
        ("U", "a", 2),
        ("I", "a", 1),
        ("D", "a", 1),
        ("I", datamodel.T_NOTIFICATION, 1),
    ]
    assert db.table("a").by_key(0)["v"] == 2
    stack.assert_recovers_to_live()


# ----------------------------------------------------------------------
# Every mechanism still exists once.
def _files(pattern):
    """The files under ``src/`` with a line matching ``pattern``."""
    return sorted({hit.split(":")[0] for hit in _hits(pattern, SRC.rglob("*.py"))})


def _calls(path, name, inside=None, on=None):
    """Line numbers of the calls of an attribute ``name`` in ``path``
    (within the function ``inside``, on the variable ``on``, when given)."""
    tree = ast.parse((SRC / path).read_text())
    if inside is not None:
        (tree,) = [
            node
            for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and node.name == inside
        ]
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == name
        and (on is None or ast.unparse(node.func.value) == on)
    ]


def test_the_three_record_format_and_the_per_row_undo_log_stay_gone():
    assert not _files(r"KIND_BEGIN|KIND_OP|_UndoRecord")
    assert not hasattr(Transaction, "record")


def test_one_commit_routine_one_log_append():
    # Hooks are notified from one place, which both paths reach.
    assert _files(r"\._notify_commit\(") == ["db/database.py"]
    assert len(_calls("db/database.py", "_notify_commit")) == 1
    assert len(_calls("db/database.py", "_notify_commit", inside="_commit")) == 1
    assert len(_calls("db/database.py", "_commit", inside="_dispatch")) == 1
    assert len(_calls("db/transactions.py", "_commit", inside="commit")) == 1
    assert _files(r"\._commit\(") == ["db/database.py", "db/transactions.py"]
    # One WAL append per commit (the other is the DDL record's).
    assert len(_calls("db/durability.py", "append", inside="_on_commit", on="wal")) == 1
    assert len(_hits(r"wal\.append\(", SRC.rglob("*.py"))) == 2
