"""Creation stamps live beside the row image, in one list per table.

``Table.created[tid - 1]`` is the creation stamp of ``tid``.  A tid and
its stamp are drawn in one step from two ascending counters, so the list
never decreases and a creation-time range is a bisect of it: the
invariant behind ``find_sorted_index(CREATED_AT)``, ``created_between``
and isolation's snapshot scan.  A state machine drives every path that
assigns or restores a tid against a reference model, and checks the
table's dense row list (``tid - base`` positions, None for a hole) reads
as that model's dict; two fixtures written by ``c4566e5``, when the
stamps were keys of the image, must still load.
"""

import itertools
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.db import CREATED_AT, TID, load_snapshot, open_durable, recover
from repro.db.wal import FSYNC_NEVER
from repro.errors import ConstraintViolation
from repro.workflow.isolation import IsolationContext, IsolationManager

DATA = Path(__file__).parent / "data"


class _Rollback(Exception):
    pass


class CreationStamps(RuleBasedStateMachine):
    """One durable table ``t (id PK, v)``; the model holds each live
    row's ``(id, v, stamp)`` by tid, the next tid, the highest tid a
    commit or a restore named (what a crash keeps) and the clock."""

    def __init__(self):
        super().__init__()
        self.dir = Path(tempfile.mkdtemp(prefix="stamps-"))
        self.db, self.manager = open_durable(self.dir, fsync=FSYNC_NEVER)
        self.db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
        self.model = {}
        self.next_tid = 1
        self.durable_tids = 0
        self.clock = self.db.now()
        self.keys = itertools.count(1)

    def teardown(self):
        self.manager.close()
        shutil.rmtree(self.dir, ignore_errors=True)

    @property
    def table(self):
        return self.db.table("t")

    def draw(self, count):
        """Reserve ``count`` tids and stamps, as the table does."""
        tids = list(range(self.next_tid, self.next_tid + count))
        stamps = list(range(self.clock + 1, self.clock + count + 1))
        self.next_tid += count
        self.clock += count
        return tids, stamps

    def fresh_rows(self, values):
        return [{"id": next(self.keys), "v": v} for v in values]

    # -- statements -----------------------------------------------------
    @rule(v=st.integers(0, 9))
    def insert(self, v):
        (row,) = self.fresh_rows([v])
        (tid,), (stamp,) = self.draw(1)
        assert self.db.insert("t", row)[TID] == tid
        self.model[tid] = (row["id"], v, stamp)
        self.durable_tids = tid

    @rule(values=st.lists(st.integers(0, 9), min_size=0, max_size=6))
    def insert_many(self, values):
        rows = self.fresh_rows(values)
        tids, stamps = self.draw(len(rows))
        stored = self.db.insert_many("t", rows)
        assert [row[TID] for row in stored] == tids
        for tid, row, stamp in zip(tids, rows, stamps):
            self.model[tid] = (row["id"], row["v"], stamp)
        if rows:
            self.durable_tids = self.next_tid - 1

    @rule(values=st.lists(st.integers(0, 9), min_size=1, max_size=4))
    def failing_insert_many(self, values):
        rows = self.fresh_rows(values)
        rows.append(dict(rows[0]))  # a duplicate key: the statement fails whole
        with pytest.raises(ConstraintViolation):
            self.db.insert_many("t", rows)

    @precondition(lambda self: self.model)
    @rule(data=st.data(), v=st.integers(0, 9))
    def update(self, data, v):
        tid = data.draw(st.sampled_from(sorted(self.model)))
        self.db.update_by_tid("t", tid, {"v": v})
        key, _old, stamp = self.model[tid]
        self.model[tid] = (key, v, stamp)

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def delete(self, data):
        tids = data.draw(st.sets(st.sampled_from(sorted(self.model)), min_size=1))
        self.db.delete_by_tids("t", sorted(tids))
        for tid in tids:
            del self.model[tid]

    @precondition(lambda self: self.model)
    @rule(count=st.integers(1, 4))
    def purge_prefix(self, count):
        """Delete the oldest live rows in one statement, as the
        Notification log's purge does: the span moves past them."""
        tids = sorted(self.model)[:count]
        self.db.delete_by_tids("t", tids)
        for tid in tids:
            del self.model[tid]

    @rule(data=st.data(), values=st.lists(st.integers(0, 9), max_size=4), commit=st.booleans())
    def transaction(self, data, values, commit):
        """Insert, update and delete in one block; a rollback keeps the
        tids and stamps the block drew (a gap in the live rows)."""
        model = dict(self.model)
        rows = self.fresh_rows(values)
        victim = data.draw(st.sampled_from(sorted(model))) if model else None
        try:
            with self.db.transaction():
                stored = self.db.insert_many("t", rows)
                tids, stamps = self.draw(len(rows))
                for tid, row, stamp in zip(tids, rows, stamps):
                    model[tid] = (row["id"], row["v"], stamp)
                if victim is not None:
                    self.db.update_by_tid("t", victim, {"v": -1})
                    key, _old, stamp = model[victim]
                    model[victim] = (key, -1, stamp)
                if stored:
                    self.db.delete_by_tids("t", [stored[0][TID]])
                    del model[stored[0][TID]]
                if not commit:
                    raise _Rollback()
        except _Rollback:
            return
        self.model = model
        if rows:  # the block's inserts are the commit's
            self.durable_tids = self.next_tid - 1

    @rule(count=st.integers(1, 5), gap=st.integers(0, 3))
    def bulk_restore(self, count, gap):
        """What WAL redo does with a logged insert: rows with fresh tids
        (after a gap a rolled-back statement left), their stamps, then
        the clock.  A checkpoint makes them durable, as their log was."""
        self.next_tid += gap
        tids, stamps = self.draw(count)
        rows = [{"id": next(self.keys), "v": 0, TID: tid} for tid in tids]
        assert self.table.bulk_restore(rows, stamps)
        self.db.restore_clock(stamps[-1])
        for tid, row, stamp in zip(tids, rows, stamps):
            self.model[tid] = (row["id"], 0, stamp)
        self.durable_tids = self.next_tid - 1
        self.manager.checkpoint()

    @rule()
    def checkpoint(self):
        self.manager.checkpoint()

    @rule()
    def crash_and_recover(self):
        """Lose the process: what is left is the directory.  Recovery
        restores the live rows with their stamps; the clock is what the
        log and the checkpoint held, and the next tid follows every tid a
        commit or a restore named -- a deleted row's too, so none is
        handed out twice; only tids that rolled-back blocks drew after
        it come back."""
        self.manager.close()
        assert self.table_state(recover(self.dir)) == self.table_state(self.db)
        self.db, self.manager = open_durable(self.dir, fsync=FSYNC_NEVER)
        assert len(self.table.created) == self.durable_tids
        self.next_tid = self.durable_tids + 1
        self.clock = self.db.now()

    @staticmethod
    def table_state(db):
        table = db.table("t")
        return [(dict(row), table.created[row[TID] - 1]) for row in table.rows()]

    # -- the invariant --------------------------------------------------
    @invariant()
    def stamps_ascend_and_match_the_model(self):
        created = self.table.created
        assert all(a <= b for a, b in zip(created, created[1:]))
        assert len(created) == self.next_tid - 1
        assert self.db.now() == self.clock
        live = {
            row[TID]: (row["id"], row["v"], created[row[TID] - 1])
            for row in self.table.rows()
        }
        assert live == self.model
        assert all(list(row) == ["id", "v", TID] for row in self.table.rows())

    @invariant()
    def the_row_list_reads_as_a_dict(self):
        """Every read of the dense row list equals the model's dict, over
        the span and past both its ends; the span starts at the lowest
        live tid (a purged head holds nothing)."""
        table = self.table
        live = sorted(self.model)
        assert len(table) == len(live)
        assert table.tids() == live
        everywhere = range(-1, self.next_tid + 3)
        got = [table.get(tid) for tid in everywhere]
        assert [tid for tid, row in zip(everywhere, got) if row is not None] == live
        assert all(
            (row["id"], row["v"], row[TID]) == (*self.model[tid][:2], tid)
            for tid, row in zip(everywhere, got)
            if row is not None
        )
        assert [tid in table for tid in everywhere] == [row is not None for row in got]
        held = [table.get(tid) for tid in live]
        assert list(table.rows()) == held and list(table.scan()) == held
        assert table.images(everywhere) == got
        assert table.images(list(reversed(everywhere))) == got[::-1]
        assert table.images(dict.fromkeys(live)) == held
        if live:
            inside = range(live[0], live[-1] + 1)
            assert table.images(inside) == [table.get(tid) for tid in inside]
            assert table._rows[0] is not None and table._base == live[0]
        else:
            assert table._rows == []

    @invariant()
    def ranges_equal_a_brute_force_filter(self):
        table = self.table
        rows = list(table.rows())
        stamps = sorted(stamp for _key, _v, stamp in self.model.values())
        cuts = [None, 0, self.clock + 1] + stamps[:1] + stamps[len(stamps) // 2 :][:1]
        for low, high in itertools.product(cuts, repeat=2):
            want = [
                row
                for row in rows
                if (low is None or table.created[row[TID] - 1] >= low)
                and (high is None or table.created[row[TID] - 1] <= high)
            ]
            assert list(table.created_between(low, high)) == want
            index = table.find_sorted_index(CREATED_AT)
            got = [table.get(tid) for tid in index.range(low, high)]
            assert [row for row in got if row is not None] == want

    @invariant()
    def the_isolated_snapshot_scan_equals_a_brute_force_filter(self):
        table = self.table
        rows = list(table.rows())
        isolation = IsolationManager(self.db)
        stamps = sorted(stamp for _key, _v, stamp in self.model.values())
        own = {row[TID] for row in rows[-2:]}
        for snapshot in [0, self.clock] + stamps[len(stamps) // 2 :][:1]:
            ctx = IsolationContext(1, start_time=snapshot, snapshot_time=snapshot, own_tids={"t": own})
            want = [
                row
                for row in rows
                if table.created[row[TID] - 1] <= snapshot or row[TID] in own
            ]
            assert isolation.visible_rows("t", ctx) == want


TestCreationStamps = CreationStamps.TestCase
TestCreationStamps.settings = settings(
    max_examples=40,
    stateful_step_count=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# ----------------------------------------------------------------------
# Formats written while the stamps were keys of the image
#: ``t``'s live rows as ``c4566e5`` left them: (id, v, tid, created).
#: Tid 4 was deleted and tid 7 rolled back; table ``u`` took stamps
#: 1-3 and 9, so no stamp equals its tid.
STAMPED_ROWS = [
    (1, "moved1", 1, 4),
    (2, "moved2", 2, 5),
    (3, "moved3", 3, 6),
    (5, "a5", 5, 8),
    (6, "single", 6, 10),
    (8, "b8", 8, 12),
    (9, "b9", 9, 13),
]
STAMPED_U = [(0, 1, 1), (1, 2, 2), (2, 3, 3), (3, 4, 9)]


def stamped_state(db):
    t, u = db.table("t"), db.table("u")
    return (
        [(r["id"], r["v"], r[TID], t.created[r[TID] - 1]) for r in t.rows()],
        [(r["k"], r[TID], u.created[r[TID] - 1]) for r in u.rows()],
        [list(r) for r in itertools.islice(t.rows(), 1)],
        db.now(),
    )


def test_a_wal_whose_records_carry_the_stamps_replays_to_the_same_rows(tmp_path):
    """Every "I" and "U" record of this log lists ``__created__`` and
    ``__updated__`` in ``cols`` (one "I" of one row, one of five, one of
    two statements merged; two "U"s; a "D")."""
    directory = tmp_path / "db"
    shutil.copytree(DATA / "stamped_c4566e5", directory)
    db = recover(directory)
    assert stamped_state(db) == (STAMPED_ROWS, STAMPED_U, [["id", "v", TID]], 16)
    # The recovered table goes on from the log: the next tid is 10 (the
    # log's last insert), its stamp after the log's clock.
    row = db.insert("t", {"id": 10, "v": "new"})
    assert row[TID] == 10 and db.table("t").created[9] == 17
    assert [r["id"] for r in db.table("t").created_between(10, 13)] == [6, 8, 9]


def test_a_version_1_snapshot_with_update_stamps_loads_the_same_rows():
    db = load_snapshot(DATA / "snapshot_v1_c4566e5.jsonl")
    assert stamped_state(db) == (STAMPED_ROWS, STAMPED_U, [["id", "v", TID]], 16)
    # The snapshot holds no deleted tid: the stamps of the gaps sit
    # between their neighbours', and no range yields them.
    created = db.table("t").created
    assert len(created) == 9 and created == sorted(created)
    assert [r["id"] for r in db.table("t").created_between(7, 9)] == [5]


def test_a_snapshot_written_now_has_no_update_stamp_and_round_trips(tmp_path):
    db = load_snapshot(DATA / "snapshot_v1_c4566e5.jsonl")
    from repro.db import save_snapshot

    path = tmp_path / "again.jsonl"
    save_snapshot(db, path)
    assert '"updated"' not in path.read_text(encoding="utf-8")
    assert stamped_state(load_snapshot(path)) == stamped_state(db)
