"""The crash matrix: kill the engine at EVERY WAL boundary and recover.

The property under test (the durability contract):

    For every crash point -- before any WAL append, mid-record with a
    torn write, after an append but before its fsync, and at the fsync
    itself (with and without power loss) -- recovery yields a database
    that is an exact *prefix* of the committed-transaction sequence,
    byte-identical to an oracle that executed exactly those commits.

The oracle is built by running the same workload step-by-step on a
plain in-memory database and snapshotting after every committed unit;
snapshots are deterministic (tables sorted by name, rows by tid), so
byte equality is state equality.
"""

import pytest

from repro.db import Database, col, open_durable, recover, save_snapshot
from repro.db.wal import committed_transactions, read_wal
from repro.faults import CrashInjector, CrashPlan, SimulatedCrash

# ----------------------------------------------------------------------
# The workload: each step is exactly ONE committed unit (one auto-commit
# statement, one explicit transaction, or one DDL), except the rollback
# step which commits nothing.


def step_create(db):
    db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)")


def step_insert(db):
    db.execute("INSERT INTO t (id, v) VALUES (1, 'a'), (2, 'b')")


def step_txn(db):
    with db.transaction():
        db.update("t", {"v": "updated"}, col("id") == 1)
        db.insert("t", {"id": 3, "v": "c"})


def step_rollback(db):
    try:
        with db.transaction():
            db.insert("t", {"id": 99, "v": "never"})
            raise RuntimeError("abort")
    except RuntimeError:
        pass


def step_update_many(db):
    # One statement over three rows: recovery must show all three or none.
    assert db.execute("UPDATE t SET v = 'moved' WHERE id >= 1").rowcount == 3


def step_delete(db):
    db.delete("t", col("id") == 2)


def step_ddl_second_table(db):
    db.execute("CREATE TABLE u (x INTEGER)")


def step_insert_second(db):
    db.execute("INSERT INTO u (x) VALUES (10), (20)")


#: (step, committed units it adds)
WORKLOAD = [
    (step_create, 1),
    (step_insert, 1),
    (step_txn, 1),
    (step_rollback, 0),
    (step_update_many, 1),
    (step_delete, 1),
    (step_ddl_second_table, 1),
    (step_insert_second, 1),
]

TOTAL_UNITS = sum(units for _, units in WORKLOAD)


def state_bytes(database, tmp_path, tag):
    path = tmp_path / f"{tag}.snap"
    save_snapshot(database, path)
    return path.read_bytes()


@pytest.fixture(scope="module")
def oracle_states(tmp_path_factory):
    """Byte image of the database after each committed unit (index = count)."""
    tmp_path = tmp_path_factory.mktemp("oracle")
    db = Database()  # same default name open_durable uses
    states = [state_bytes(db, tmp_path, "u0")]
    unit = 0
    for step, units in WORKLOAD:
        step(db)
        if units:
            unit += units
            states.append(state_bytes(db, tmp_path, f"u{unit}"))
    assert len(states) == TOTAL_UNITS + 1
    return states


def run_with_crash(directory, crash, fsync="always", group_commits=8):
    """Run the workload on a durable db armed with ``crash``.

    Returns True if the crash fired (the run "died"), False if the
    workload completed untouched.
    """
    db, manager = open_durable(
        directory, fsync=fsync, crash=crash, group_commits=group_commits
    )
    try:
        for step, _units in WORKLOAD:
            step(db)
        manager.close()  # the shutdown fsync is a crash point too
    except SimulatedCrash:
        return True  # the process is dead: no cleanup, no close()
    return False


def committed_units_on_disk(directory):
    """Independently count recoverable committed units from the files."""
    wal_files = sorted(directory.glob("wal-*.log"))
    assert len(wal_files) == 1  # the workload never checkpoints
    records, _good = read_wal(wal_files[0])
    return len(list(committed_transactions(records)))


def assert_recovers_to_committed_prefix(directory, tmp_path, oracle_states, tag):
    units = committed_units_on_disk(directory)
    recovered = recover(directory)
    assert (
        state_bytes(recovered, tmp_path, tag) == oracle_states[units]
    ), f"{tag}: recovered state is not the {units}-unit oracle prefix"
    return units


def sweep(tmp_path, oracle_states, make_plan, fsync="always"):
    """Crash at occurrence 0, 1, 2, ... of a point until the workload
    outruns the plan; verify prefix-consistent recovery every time."""
    occurrence = 0
    seen_units = []
    while True:
        directory = tmp_path / f"run-{occurrence}"
        crash = CrashInjector(make_plan(occurrence))
        died = run_with_crash(directory, crash, fsync=fsync)
        if not died:
            assert occurrence > 0, "the crash plan never fired at all"
            break
        units = assert_recovers_to_committed_prefix(
            directory, tmp_path, oracle_states, f"rec-{occurrence}"
        )
        seen_units.append(units)
        occurrence += 1
    # The crash matrix must actually walk forward through the workload:
    # start from (nearly) nothing and reach (nearly) everything.  A crash
    # *before* the final commit append can recover at most TOTAL-1 units;
    # a process-kill *after* it can recover all TOTAL.
    assert seen_units[0] <= 1
    assert seen_units[-1] >= TOTAL_UNITS - 1
    assert seen_units == sorted(seen_units)
    return occurrence


class TestCrashMatrix:
    def test_every_append_boundary(self, tmp_path, oracle_states):
        crashes = sweep(
            tmp_path, oracle_states, lambda at: CrashPlan("wal.append", at=at)
        )
        # One crash per WAL record the full workload writes: every
        # committed unit is exactly one record.
        assert crashes == TOTAL_UNITS

    def test_every_append_boundary_with_torn_write(self, tmp_path, oracle_states):
        sweep(
            tmp_path,
            oracle_states,
            lambda at: CrashPlan("wal.append", at=at, torn_bytes=6),
        )

    def test_every_post_append_with_power_loss(self, tmp_path, oracle_states):
        sweep(
            tmp_path,
            oracle_states,
            lambda at: CrashPlan("wal.post_append", at=at, power_loss=True),
        )

    def test_every_fsync_dropped_with_power_loss(self, tmp_path, oracle_states):
        sweep(
            tmp_path,
            oracle_states,
            lambda at: CrashPlan("wal.fsync", at=at, power_loss=True),
        )

    def test_every_fsync_dropped_process_kill(self, tmp_path, oracle_states):
        # Without power loss the buffered bytes survive: recovery may see
        # MORE than the fsynced prefix, but still only committed units.
        sweep(tmp_path, oracle_states, lambda at: CrashPlan("wal.fsync", at=at))

    def test_group_commit_power_loss(self, tmp_path, oracle_states):
        # fsync=interval: a power loss may drop a whole commit group
        # (that is the policy's stated window), but recovery must still
        # land exactly on a committed-prefix state, and the loss is
        # bounded by the group size.
        group = 2
        occurrence = 0
        seen_units = []
        while True:
            directory = tmp_path / f"gc-{occurrence}"
            crash = CrashInjector(
                CrashPlan("wal.post_append", at=occurrence, power_loss=True)
            )
            died = run_with_crash(
                directory, crash, fsync="interval", group_commits=group
            )
            if not died:
                break
            units = assert_recovers_to_committed_prefix(
                directory, tmp_path, oracle_states, f"gc-rec-{occurrence}"
            )
            seen_units.append(units)
            occurrence += 1
        assert seen_units == sorted(seen_units)
        assert seen_units[-1] >= TOTAL_UNITS - group

    def test_torn_tail_is_truncated_on_recovery(self, tmp_path, oracle_states):
        directory = tmp_path / "torn"
        crash = CrashInjector(CrashPlan("wal.append", at=5, torn_bytes=3))
        assert run_with_crash(directory, crash)
        wal_file = next(directory.glob("wal-*.log"))
        size_before = wal_file.stat().st_size
        _, good = read_wal(wal_file)
        assert good < size_before
        recover(directory)
        assert wal_file.stat().st_size == good  # tail physically removed

    def test_double_crash_during_recovery_window(self, tmp_path, oracle_states):
        # Crash, recover, crash again on the re-run, recover again: the
        # second recovery must still be prefix-consistent.
        directory = tmp_path / "double"
        assert run_with_crash(directory, CrashInjector(CrashPlan("wal.append", at=3)))
        units_first = committed_units_on_disk(directory)
        recovered = recover(directory)
        del recovered  # first recovery discarded: crash before reuse
        units_after = committed_units_on_disk(directory)
        assert units_after == units_first  # recovery itself commits nothing
        assert_recovers_to_committed_prefix(
            directory, tmp_path, oracle_states, "double"
        )
