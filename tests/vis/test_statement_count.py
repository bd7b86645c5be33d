"""One store call is one commit of at most two statements, whatever the
batch size.

``VisualAttributesStore.write`` is one ``insert_many`` for the new items
and one ``update_by_tids`` for the existing ones in one transaction;
``write_positions`` the same; ``select`` one ``update_by_tids``.  Counted
where a commit leaves a mark: the commit hook (one call, whose list is
the statements' rows then the Notification rows their trigger wrote, one
per event), the WAL (one record), the center's listeners (one call with
the net delta's events) and the socket (one frame).
"""

import time

import pytest

from repro.core import datamodel
from repro.db import open_durable
from repro.db.schema import TID
from repro.db.wal import FSYNC_NEVER, KIND_COMMIT, read_wal
from repro.sync import NotificationCenter, SyncClient, SyncServer
from repro.vis import VisualAttributesStore, VisualItem

T_ATTRS = datamodel.T_VISUAL_ATTRIBUTES
STOCK = 10


class Stack:
    def __init__(self, directory):
        self.directory = directory
        self.db, self.manager = open_durable(directory, fsync=FSYNC_NEVER)
        self.center = NotificationCenter(self.db)
        self.server = SyncServer(
            self.db, self.center, use_sockets=True, heartbeat_interval=None
        )
        self.store = VisualAttributesStore(self.db)
        self.store.write(1, [VisualItem(obj_id=i, x=float(i)) for i in range(STOCK)])
        self.client = SyncClient(self.server)
        self.mirror = self.client.mirror(T_ATTRS)
        self.notified = []
        self.client.on_notify(
            lambda table, op, seq_no: self.notified.append((table, op, seq_no))
        )
        #: One entry per commit-hook call: its change sets as
        #: ``(table, inserted, updated, deleted)`` counts, in list order.
        self.commits = []
        #: The user statements' change sets themselves, in log order.
        self.statements = []

        def committed(changes):
            self.commits.append(
                [
                    (c.table, len(c.inserted), len(c.updated), len(c.deleted))
                    for c in changes
                ]
            )
            self.statements.extend(c for c in changes if c.table == T_ATTRS)

        self.db.add_commit_hook(committed)
        #: One entry per listener call / per frame the socket client read.
        self.listened, self.frames = [], []
        self.center.add_batch_listener(
            lambda table, events: self.listened.append((table, list(events)))
        )
        note = self.client._note_frame_context
        self.client._note_frame_context = lambda table, seq_no, message: (
            self.frames.append(message["type"]),
            note(table, seq_no, message),
        )
        self.seq = self.newest_seq()

    def newest_seq(self):
        rows = self.db.table(datamodel.T_NOTIFICATION).rows()
        return max((row["seq_no"] for row in rows), default=0)

    def events(self):
        """The change-log rows recorded since the stack was built."""
        return [
            row
            for row in self.db.table(datamodel.T_NOTIFICATION).rows()
            if row["seq_no"] > self.seq
        ]

    def notifies(self):
        """The NOTIFYs of everything written so far: the socket delivers
        in order, so once the sentinel's has arrived none is in flight."""
        self.db.insert(T_ATTRS, {"component_id": 9, "obj_id": "end"})
        sentinel = self.newest_seq()
        deadline = time.monotonic() + 5.0
        while (T_ATTRS, "insert", sentinel) not in self.notified:
            assert time.monotonic() < deadline, "the sentinel NOTIFY never arrived"
            time.sleep(0.001)
        return [(op, seq_no) for _table, op, seq_no in self.notified[:-1]]

    def log_rows(self, count):
        """What a commit's trigger adds to its list for ``count`` events:
        one change set of ``count`` rows (their tids are consecutive)."""
        return [(datamodel.T_NOTIFICATION, count, 0, 0)] * bool(count)

    def close(self):
        self.client.close()
        self.server.close()
        self.center.close()
        self.manager.close()


@pytest.fixture
def stack(tmp_path):
    stack = Stack(tmp_path)
    yield stack
    stack.close()


def items(new, existing):
    """``new`` unseen obj_ids and ``existing`` stocked ones, moved."""
    return [
        VisualItem(obj_id=obj_id, x=obj_id + 0.5, y=1.0, label="moved")
        for obj_id in (*range(STOCK, STOCK + new), *range(existing))
    ]


@pytest.mark.parametrize(
    "new, existing, ops",
    [
        (4, 4, ["insert", "update"]),
        (40, 7, ["insert", "update"]),
        (3, 0, ["insert"]),
        (0, 5, ["update"]),
        (0, 0, []),
    ],
)
def test_a_write_is_one_statement_per_kind(stack, new, existing, ops):
    appends = stack.manager.stats()["wal_appends"]
    assert stack.store.write(1, items(new, existing)) == new + existing
    events = stack.events()
    # One Notification row, one seq-no, per op kind ...
    assert [e["op"] for e in events] == ops
    assert [e["seq_no"] for e in events] == list(
        range(stack.seq + 1, stack.seq + 1 + len(ops))
    )
    # ... the UPDATE's carrying every moved tid (the stock's tids are 1..10).
    for event in events:
        if event["op"] == "update":
            assert (event["lo"], event["hi"], event["tids"]) == (1, existing, None)
    # ONE commit: the hook is called once, with the statements' rows in
    # statement order, then the rows their trigger wrote; one WAL record.
    assert stack.commits == [
        [(T_ATTRS, new, 0, 0)] * (new > 0)
        + [(T_ATTRS, 0, existing, 0)] * (existing > 0)
        + stack.log_rows(len(ops))
    ] * bool(ops)
    assert stack.manager.stats()["wal_appends"] == appends + bool(ops)
    # One listener call with the net delta's events, one frame on the socket.
    expected = [(e["op"], e["seq_no"]) for e in events]
    assert stack.listened == [(T_ATTRS, expected)] * bool(ops)
    assert stack.notifies() == expected
    assert len(stack.frames) == bool(ops) + 1  # + the sentinel's
    # One refresh folds them all.
    stack.client.refresh(T_ATTRS)
    assert stack.mirror.all_rows() == [
        dict(row) for row in stack.db.table(T_ATTRS).rows()
    ]


def test_a_two_kind_write_is_one_wal_record_with_two_log_rows(stack):
    """A tick that inserts and moves items: the record carries the two
    user statements and exactly two rows of bookkeeping (it was four)."""
    tables = set(stack.db.table_names())
    assert stack.store.write(1, items(3, 4)) == 7
    stack.manager.wal.sync()
    (wal_file,) = stack.directory.glob("wal-*.log")
    records, _good = read_wal(wal_file)
    ops = [r.payload for r in records if r.kind == KIND_COMMIT][-1]["ops"]
    assert [
        (op["op"], op["t"], len(op.get("tids", ())) or len(op["vals"]) // len(op["cols"]))
        for op in ops
    ] == [("I", T_ATTRS, 3), ("U", T_ATTRS, 4), ("I", datamodel.T_NOTIFICATION, 2)]
    assert [e["op"] for e in stack.events()] == ["insert", "update"]
    assert set(stack.db.table_names()) == tables


def test_write_positions_is_one_update_and_one_insert(stack):
    positions = {obj_id: (obj_id * 2.0, 3.0) for obj_id in (8, 2, 5, 11, 12)}
    assert stack.store.write_positions(1, positions) == 5
    events = stack.events()
    # One commit, one net delta: an event per op kind, insert first.
    assert [(e["op"], e["lo"], e["hi"], e["tids"]) for e in events] == [
        ("insert", 11, 12, None),
        ("update", 3, 9, [3, 6, 9]),
    ]
    assert stack.commits == [
        [(T_ATTRS, 2, 0, 0), (T_ATTRS, 0, 3, 0)] + stack.log_rows(2)
    ]
    # Within the UPDATE, the caller's order.
    assert [after["obj_id"] for _b, after in stack.statements[1].updated] == [8, 2, 5]
    assert [len(call[1]) for call in stack.listened] == [2]
    assert stack.notifies() == [(e["op"], e["seq_no"]) for e in events]
    assert len(stack.frames) == 2  # the write's NOTIFYB, the sentinel's NOTIFY
    assert stack.store.get(1, 5).x == 10.0 and stack.store.get(1, 12).y == 3.0


def test_select_is_one_update_without_a_table_scan(stack, monkeypatch):
    table = stack.db.table(T_ATTRS)
    monkeypatch.setattr(table, "scan", lambda: pytest.fail("select scanned the table"))
    assert stack.store.select(1, [7, 3, 3, 99, 5]) == 3
    monkeypatch.undo()
    (event,) = stack.events()
    assert (event["op"], event["tids"]) == ("update", [4, 6, 8])
    assert stack.commits == [[(T_ATTRS, 0, 3, 0)] + stack.log_rows(1)]
    (statement,) = stack.statements
    assert [after[TID] for _before, after in statement.updated] == [4, 6, 8]
    assert stack.notifies() == [("update", event["seq_no"])]
    assert stack.store.selected_ids(1) == [3, 5, 7]
    # Flipping back is again one statement; unknown ids flip nothing.
    assert stack.store.select(1, [3, 5, 7, 42], selected=False) == 3
    assert stack.store.select(1, [42]) == 0
    # (the insert is the sentinel of ``notifies``)
    assert [e["op"] for e in stack.events()] == ["update", "insert", "update"]
