"""The crash matrix over the propagation path: one commit, whole or not at all.

``tests/db/test_crash_matrix.py`` kills the engine at every WAL boundary
and checks the *tables*.  This one runs the same sweep over a deployment
with consumers -- a durable database, a ``NotificationCenter``, an
in-process ``SyncServer`` and a client mirroring every watched table --
and checks what a restarted server can still tell that client.  A commit
is the user's rows **and** the Notification rows their trigger wrote, in
one WAL record, so after any crash

* the recovered database is the oracle's state after exactly the commits
  on disk (user tables, the log and ``ConnectedUser`` alike);
* the log's reader tells every stored event, the seq-nos are gapless, and
  ``notifications_since`` is its ``(seq_no, op)`` projection;
* the surviving client, reattached, needs ONE refresh per table for its
  mirror to equal the recovered table.

With the user rows and their log rows in separate commits (as they were)
a crash between the two recovers a row no log mentions: the mirror stays
behind for good.
"""

import pytest

from repro.core import datamodel
from repro.db import Column, col, open_durable
from repro.db.types import FLOAT, INTEGER
from repro.db.wal import committed_transactions, read_wal
from repro.faults import CrashInjector, CrashPlan, SimulatedCrash
from repro.sync import NotificationCenter, SyncClient, SyncServer
from repro.vis import VisualAttributesStore, VisualItem

T_ATTRS = datamodel.T_VISUAL_ATTRIBUTES
MIRRORED = ("pts", "qs", T_ATTRS)
LOG = datamodel.T_NOTIFICATION
STATE_TABLES = (*MIRRORED, LOG, datamodel.T_CONNECTED_USER)


class Abort(Exception):
    pass


class Deployment:
    """What one server process holds, plus the client that outlives it."""

    def __init__(self, directory, crash=None):
        self.db, self.manager = open_durable(directory, crash=crash)
        self.center = NotificationCenter(self.db)
        self.server = SyncServer(self.db, self.center, use_sockets=False)
        self.store = VisualAttributesStore(self.db)

    def build(self):
        """First start only: schema, stock rows, the client's mirrors."""
        db = self.db
        for name in ("pts", "qs"):
            db.create_table(
                name,
                [Column("id", INTEGER, nullable=False), Column("x", FLOAT)],
                primary_key="id",
            )
        db.insert_many("pts", [{"id": 1, "x": 0.0}, {"id": 2, "x": 1.0}])
        db.insert("qs", {"id": 1, "x": 0.0})
        self.store.write(1, [VisualItem(obj_id=i, x=float(i)) for i in range(4)])
        self.client = SyncClient(self.server)
        for table in MIRRORED:
            self.client.mirror(table)
        return self


# ----------------------------------------------------------------------
# The workload: each step is ONE commit, except the rollback (none).
def step_insert(d):
    d.db.insert("pts", {"id": 3, "x": 2.0})


def step_insert_many(d):
    d.db.insert_many("pts", [{"id": i, "x": float(i)} for i in (4, 5, 6)])


def step_update_many(d):
    assert d.db.execute("UPDATE pts SET x = x + 10 WHERE id >= 2").rowcount == 5


def step_refresh(d):
    # The client's own commit (its ConnectedUser position), mid-stream.
    d.client.refresh("pts")


def step_delete(d):
    d.db.delete("pts", col("id") == 4)


def step_store_write(d):
    # Two statements (2 new, 2 moved), one commit.
    d.store.write(
        1, [VisualItem(obj_id=i, x=i + 0.5, label="moved") for i in (4, 5, 0, 3)]
    )


def step_txn_two_tables(d):
    with d.db.transaction():
        d.db.insert("pts", {"id": 7, "x": 7.0})
        d.db.update("qs", {"x": 5.0}, col("id") == 1)
        d.db.update("pts", {"x": -1.0}, col("id") == 7)  # nets into the insert
        d.db.insert("qs", {"id": 2, "x": 2.0})
        d.db.delete("pts", col("id") == 1)


def step_rollback(d):
    with pytest.raises(Abort):
        with d.db.transaction():
            d.db.insert("pts", {"id": 99, "x": 0.0})
            d.db.delete("qs", col("id") == 1)
            raise Abort


def step_last(d):
    d.db.update("qs", {"x": 6.0}, col("id") == 2)


#: (step, commits it adds)
WORKLOAD = [
    (step_insert, 1),
    (step_insert_many, 1),
    (step_update_many, 1),
    (step_refresh, 1),
    (step_delete, 1),
    (step_store_write, 1),
    (step_txn_two_tables, 1),
    (step_rollback, 0),
    (step_last, 1),
]
TOTAL_COMMITS = sum(commits for _step, commits in WORKLOAD)


def state(db):
    return {name: [dict(row) for row in db.table(name).rows()] for name in STATE_TABLES}


def records_on_disk(directory):
    (wal_file,) = directory.glob("wal-*.log")  # the workload never checkpoints
    records, _good = read_wal(wal_file)
    return len(list(committed_transactions(records)))


@pytest.fixture(scope="module")
def oracle(tmp_path_factory):
    """An uncrashed run: the state after each commit (index = commits
    since the build), the WAL records the build wrote, and how often each
    crash point is reached by the build and by the whole run."""
    directory = tmp_path_factory.mktemp("oracle")
    counter = CrashInjector()  # no plan armed: it only counts
    deployment = Deployment(directory, crash=counter).build()
    built = dict(counter.counts)
    build_records = records_on_disk(directory)
    states = [state(deployment.db)]
    for step, commits in WORKLOAD:
        step(deployment)
        if commits:
            states.append(state(deployment.db))
    assert len(states) == TOTAL_COMMITS + 1
    # One WAL record and one append per commit: nothing else is a boundary.
    assert records_on_disk(directory) == build_records + TOTAL_COMMITS
    reached = dict(counter.counts)
    assert reached["wal.append"] == built["wal.append"] + TOTAL_COMMITS
    deployment.manager.close()
    return states, build_records, built, reached


def run_with_crash(directory, plan):
    """Build untouched, then run the workload into ``plan``; returns the
    client that survives the server's death."""
    deployment = Deployment(directory, crash=CrashInjector(plan)).build()
    with pytest.raises(SimulatedCrash):
        for step, _commits in WORKLOAD:
            step(deployment)
    return deployment.client  # the process is dead: no cleanup, no close()


def restart_and_check(directory, client, states, build_records):
    commits = records_on_disk(directory) - build_records
    restarted = Deployment(directory)
    db, center = restarted.db, restarted.center
    try:
        # A committed prefix: user rows, the log, client positions.
        assert state(db) == states[commits], f"not the {commits}-commit prefix"
        # The log numbers its events gaplessly from 1 ...
        logged = [(row["seq_no"], row["table_name"], row["op"]) for row in db.table(LOG).rows()]
        assert [seq for seq, _table, _op in logged] == list(range(1, len(logged) + 1))
        assert center._next_seq == len(logged) + 1
        # ... and its reader tells each of them, under its table.
        for table in MIRRORED:
            events = center.events_since(table, 0)
            assert [(seq, table, op) for seq, op, _tids in events] == [
                entry for entry in logged if entry[1] == table
            ]
            assert center.notifications_since(table, 0) == [
                (seq, op) for seq, op, _tids in events
            ]
        # The surviving client: one refresh per table and it has caught up.
        client.database, client.server, client.center = db, restarted.server, center
        for table in MIRRORED:
            client.refresh(table)
            assert client.table(table).all_rows() == [
                dict(row) for row in db.table(table).rows()
            ], f"{table}: mirror differs after {commits} commits"
            assert client.refresh(table) == {"upserts": 0, "deletes": 0}
        # ... and the restarted server numbers on from there.
        db.insert("pts", {"id": 50, "x": 50.0})
        assert center.notifications_since("pts", len(logged)) == [
            (len(logged) + 1, "insert")
        ]
        assert client.refresh("pts") == {"upserts": 1, "deletes": 0}
    finally:
        restarted.manager.close()
    return commits


PLANS = {
    "append": lambda at: CrashPlan("wal.append", at=at),
    "append-torn": lambda at: CrashPlan("wal.append", at=at, torn_bytes=6),
    "post-append-power-loss": lambda at: CrashPlan(
        "wal.post_append", at=at, power_loss=True
    ),
    "fsync-process-kill": lambda at: CrashPlan("wal.fsync", at=at),
    "fsync-power-loss": lambda at: CrashPlan("wal.fsync", at=at, power_loss=True),
}


@pytest.mark.parametrize("kind", PLANS)
def test_every_boundary_of_the_propagation_path(kind, tmp_path, oracle):
    states, build_records, built, reached = oracle
    point = PLANS[kind](0).point
    seen = []
    # Every occurrence of the point the workload (not the build) reaches.
    for at in range(built[point], reached[point]):
        directory = tmp_path / f"run-{at}"
        client = run_with_crash(directory, PLANS[kind](at))
        seen.append(restart_and_check(directory, client, states, build_records))
    # One boundary per commit, and the sweep walks through all of them: a
    # crash before a commit's record is whole recovers the commits before
    # it, a process kill after the write recovers it too.
    survives = kind == "fsync-process-kill"
    assert seen == list(range(survives, TOTAL_COMMITS + survives))


def test_a_watched_insert_is_one_boundary(tmp_path):
    """The reproduction: one watched INSERT used to be three commits of
    three records -- nine appends, six of them boundaries at which the
    recovered table held the row and ``changes_since`` did not."""
    counter = CrashInjector()
    deployment = Deployment(tmp_path, crash=counter).build()
    before = counter.counts["wal.append"]
    deployment.db.insert("pts", {"id": 3, "x": 2.0})
    assert counter.counts["wal.append"] == before + 1
    deployment.manager.close()
