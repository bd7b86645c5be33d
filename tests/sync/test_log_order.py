"""Seq-no ascends with tid: the change log needs no index.

The center draws a delivery's seq-nos and its log rows' tids in one step,
under the database and center locks, and both counters only ascend -- so
the log's tid order is its seq order, ``events_since`` is one bisect and
one slice of the row list, and ``purge`` stops at the first row past the
highest horizon.  A state machine drives every path that writes, drops or
restores log rows (auto-committed statements, transactions that commit
or roll back, P2/P3 policy flushes, purge, checkpoint, crash and
``recover()``) and checks, after each step, that the live rows keep the
two orders equal and a new row numbers past every seq-no issued before
it (across restarts too: a purge that empties the log, a crash and
``recover()`` leave no number to hand out twice), that ``events_since``
equals a scan-and-filter of the log, and that a purge drops exactly what
the horizons allow.
"""

import itertools
import shutil
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.core import datamodel
from repro.db import TID, load_snapshot, open_durable, recover
from repro.db.wal import FSYNC_NEVER
from repro.sync import IMMEDIATE, MANUAL, NotificationCenter, Threshold

LOG = datamodel.T_NOTIFICATION
TABLES = ("a", "b")
POLICIES = st.sampled_from([IMMEDIATE, MANUAL, Threshold(3, None)])


class _Rollback(Exception):
    pass


def log_rows(db):
    return [dict(row) for row in db.table(LOG).rows()]


def span(row):
    return range(row["lo"], row["hi"] + 1)


class LogOrder(RuleBasedStateMachine):
    """Two watched tables ``a`` and ``b`` on a durable database and the
    ConnectedUser rows that rules add and drop; the model is the newest
    log tid seen and the highest seq-no issued."""

    def __init__(self):
        super().__init__()
        self.dir = Path(tempfile.mkdtemp(prefix="log-order-"))
        self.db, self.manager = open_durable(self.dir, fsync=FSYNC_NEVER)
        for table in TABLES:
            self.db.execute(f"CREATE TABLE {table} (id INTEGER PRIMARY KEY, v INTEGER)")
        self.center = self.open_center()
        self.keys = itertools.count(1)
        self.cu_ids = itertools.count(1)
        #: The newest log tid seen, and the highest seq-no the process
        #: issued (as far as the log showed it).
        self.newest_tid = self.issued = 0

    def open_center(self):
        center = NotificationCenter(self.db)
        for table in TABLES:
            center.watch(table)
        return center

    def teardown(self):
        self.center.close()
        self.manager.close()
        shutil.rmtree(self.dir, ignore_errors=True)

    def some_tids(self, data, table):
        live = self.db.table(table).tids()
        return data.draw(st.lists(st.sampled_from(live), max_size=3)) if live else []

    # -- commits --------------------------------------------------------
    @rule(table=st.sampled_from(TABLES), count=st.integers(1, 4))
    def insert(self, table, count):
        rows = [{"id": next(self.keys), "v": 0} for _ in range(count)]
        self.db.insert_many(table, rows)

    @rule(table=st.sampled_from(TABLES), data=st.data(), v=st.integers(0, 9))
    def update(self, table, data, v):
        tids = self.some_tids(data, table)
        self.db.update_by_tids(table, {tid: {"v": v} for tid in tids})

    @rule(table=st.sampled_from(TABLES), data=st.data())
    def delete(self, table, data):
        self.db.delete_by_tids(table, self.some_tids(data, table))

    @rule(data=st.data(), commit=st.booleans())
    def transaction(self, data, commit):
        before = log_rows(self.db)
        try:
            with self.db.transaction():
                for table in data.draw(st.lists(st.sampled_from(TABLES), max_size=4)):
                    self.db.insert(table, {"id": next(self.keys), "v": 1})
                    tids = self.db.table(table).tids()
                    self.db.update_by_tid(table, tids[0], {"v": 2})
                    if len(tids) > 2:
                        self.db.delete_by_tids(table, [tids[1]])
                if not commit:
                    raise _Rollback
        except _Rollback:
            # A rolled-back transaction leaves no log row.
            assert log_rows(self.db) == before

    # -- policies -------------------------------------------------------
    @rule(table=st.sampled_from(TABLES), policy=POLICIES)
    def set_policy(self, table, policy):
        self.center.subscriptions[table].set_policy(policy)

    @rule(table=st.sampled_from(TABLES))
    def flush(self, table):
        self.center.subscriptions[table].flush()

    # -- the purge and its horizons -------------------------------------
    @rule(table=st.sampled_from(TABLES), data=st.data())
    def connect(self, table, data):
        seqs = [0] + [row["seq_no"] for row in log_rows(self.db)]
        self.db.insert(
            datamodel.T_CONNECTED_USER,
            {
                "id": next(self.cu_ids),
                "host": "h",
                "port": 1,
                "table_name": table,
                "last_seq_no": data.draw(st.sampled_from(seqs)),
            },
        )

    @rule(data=st.data())
    def disconnect(self, data):
        users = self.db.table(datamodel.T_CONNECTED_USER).tids()
        if users:
            user = data.draw(st.sampled_from(users))
            self.db.delete_by_tids(datamodel.T_CONNECTED_USER, [user])

    @rule()
    def purge(self):
        horizons = {}
        for row in self.db.table(datamodel.T_CONNECTED_USER).rows():
            name, seq = row["table_name"], row["last_seq_no"]
            horizons[name] = min(seq, horizons.get(name, seq))
        rows = log_rows(self.db)
        kept = [
            row
            for row in rows
            if row["seq_no"] > horizons.get(row["table_name"], row["seq_no"])
        ]
        assert self.center.purge() == len(rows) - len(kept)
        assert log_rows(self.db) == kept

    # -- durability -----------------------------------------------------
    @rule()
    def checkpoint(self):
        self.manager.checkpoint()

    @rule()
    def crash_and_recover(self):
        """The process dies (what its buffering policies held goes with
        it); ``recover()`` and a reopened store hold the same log, and a
        new center numbers on past every seq-no issued before."""
        self.manager.close()
        assert log_rows(recover(self.dir)) == log_rows(self.db)
        self.db, self.manager = open_durable(self.dir, fsync=FSYNC_NEVER)
        self.center = self.open_center()

    # -- the invariants -------------------------------------------------
    @invariant()
    def seq_no_ascends_with_tid(self):
        """The live rows' seq-nos ascend with their tids, and a row new
        since the last step numbers past every seq-no ever issued."""
        rows = log_rows(self.db)
        seqs = [row["seq_no"] for row in rows]
        assert all(a < b for a, b in zip(seqs, seqs[1:]))
        new = [row["seq_no"] for row in rows if row[TID] > self.newest_tid]
        assert all(seq > self.issued for seq in new)
        self.newest_tid = max([self.newest_tid, *(row[TID] for row in rows)])
        self.issued = max([self.issued, *seqs])

    @invariant()
    def events_since_equals_a_scan_and_filter(self):
        rows = log_rows(self.db)
        seqs = {row["seq_no"] for row in rows}
        probes = {0, -1, max(seqs, default=0) + 1} | seqs | {s - 1 for s in seqs}
        for table in TABLES:
            for since in sorted(probes):
                want = sorted(
                    (row["seq_no"], row["op"], row["tids"] or [*span(row)])
                    for row in rows
                    if row["table_name"] == table and row["seq_no"] > since
                )
                got = [
                    (seq, op, list(tids))
                    for seq, op, tids in self.center.events_since(table, since)
                ]
                assert got == want, (table, since)


TestLogOrder = LogOrder.TestCase
TestLogOrder.settings = settings(
    max_examples=30,
    stateful_step_count=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# ----------------------------------------------------------------------
# Formats written while the log was keyed on seq_no
DATA = Path(__file__).parent / "data"
DB_DATA = Path(__file__).parents[1] / "db" / "data"
#: The log ``keyed_log_0739301`` holds: a checkpoint (seqs 1-2) and two
#: WAL commits (a delete of tids 5 and 3, then one transaction's insert
#: and update); its one ConnectedUser row mirrors ``pts`` at seq 2.
KEYED_LOG = [
    (1, "insert", 1, 5, None),
    (2, "update", 1, 2, None),
    (3, "delete", 3, 5, [3, 5]),
    (4, "insert", 6, 6, None),
    (5, "update", 4, 4, None),
]


def shape(db):
    return [
        (row["seq_no"], row["op"], row["lo"], row["hi"], row["tids"])
        for row in db.table(LOG).rows()
    ]


def test_a_log_keyed_on_seq_no_recovers_and_a_center_runs_over_it(tmp_path):
    directory = tmp_path / "keyed"
    shutil.copytree(DATA / "keyed_log_0739301", directory)
    assert shape(recover(directory)) == KEYED_LOG
    db, manager = open_durable(directory, fsync=FSYNC_NEVER)
    log = db.table(LOG)
    # install_core_schema kept the older table, key and all.
    assert log.schema.primary_key == "seq_no"
    center = NotificationCenter(db)
    center.watch("pts")
    events = center.events_since("pts", 2)
    assert [(seq, op, list(tids)) for seq, op, tids in events] == [
        (3, "delete", [3, 5]),
        (4, "insert", [6]),
        (5, "update", [4]),
    ]
    assert center.purge() == 2
    db.insert("pts", {"id": 11, "v": 0})
    # The key index still files what the append adds.
    assert log.by_key(6)["op"] == "insert" and log.by_key(6)[TID] == 6
    assert [seq for seq, _op in center.notifications_since("pts", 0)] == [3, 4, 5, 6]
    center.close()
    manager.close()
    assert shape(recover(directory)) == KEYED_LOG[2:] + [(6, "insert", 7, 7, None)]


def test_a_version_1_snapshot_takes_a_center():
    db = load_snapshot(DB_DATA / "snapshot_v1_c4566e5.jsonl")
    center = NotificationCenter(db)
    center.watch("t")
    db.insert("t", {"id": 20, "v": "x"})
    db.delete("t", None)
    assert center.notifications_since("t", 0) == [(1, "insert"), (2, "delete")]
    assert center.purge() == 2 and center.events_since("t", 0) == []


def test_a_center_restarted_after_a_purge_numbers_on():
    """A purge with no ConnectedUser row empties the log; a new center on
    the same database still numbers past the purged seq-nos."""
    db = load_snapshot(DB_DATA / "snapshot_v1_c4566e5.jsonl")
    center = NotificationCenter(db)
    center.watch("t")
    db.insert("t", {"id": 20, "v": "x"})
    db.insert("t", {"id": 21, "v": "y"})
    assert center.purge() == 2 and log_rows(db) == []
    center.close()
    center = NotificationCenter(db)
    center.watch("t")
    db.insert("t", {"id": 22, "v": "z"})
    assert center.notifications_since("t", 0) == [(3, "insert")]
