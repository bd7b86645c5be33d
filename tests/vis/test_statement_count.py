"""One store call is at most two statements, whatever the batch size.

``VisualAttributesStore.write`` is one ``insert_many`` for the new items
and one ``update_by_tids`` for the existing ones; ``write_positions`` the
same; ``select`` one ``update_by_tids``.  Counted where a statement
leaves a mark: the commit hook (one WAL commit of user rows), the
Notification row and its ``ediflow_changed_rows`` row, and the NOTIFY a
socket client receives.
"""

import time

import pytest

from repro.core import datamodel
from repro.db import open_durable
from repro.db.schema import TID
from repro.db.wal import FSYNC_NEVER
from repro.sync import T_CHANGED_ROWS, NotificationCenter, SyncClient, SyncServer
from repro.vis import VisualAttributesStore, VisualItem

T_ATTRS = datamodel.T_VISUAL_ATTRIBUTES
STOCK = 10


class Stack:
    def __init__(self, directory):
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
        self.commits = []
        self.db.add_commit_hook(
            lambda changes: self.commits.extend(c for c in changes if c.table == T_ATTRS)
        )
        self.seq = self.newest_seq()

    def newest_seq(self):
        rows = self.db.table(datamodel.T_NOTIFICATION).rows()
        return max((row["seq_no"] for row in rows), default=0)

    def events(self):
        """The change-log rows recorded since the stack was built."""
        return [
            row
            for row in self.db.table(T_CHANGED_ROWS).rows()
            if row["seq_no"] > self.seq
        ]

    def notifies(self):
        """The NOTIFYs of everything written so far: the socket delivers
        in order, so once the sentinel's has arrived none is in flight."""
        self.db.insert(T_ATTRS, {"id": 10_000, "component_id": 9, "obj_id": "end"})
        sentinel = self.newest_seq()
        deadline = time.monotonic() + 5.0
        while (T_ATTRS, "insert", sentinel) not in self.notified:
            assert time.monotonic() < deadline, "the sentinel NOTIFY never arrived"
            time.sleep(0.001)
        return [(op, seq_no) for _table, op, seq_no in self.notified[:-1]]

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
    assert stack.store.write(1, items(new, existing)) == new + existing
    events = stack.events()
    # One Notification seq-no and one change-log row per statement ...
    assert [e["op"] for e in events] == ops
    assert [e["seq_no"] for e in events] == list(
        range(stack.seq + 1, stack.seq + 1 + len(ops))
    )
    # ... the UPDATE's carrying every moved tid (the stock's tids are 1..10).
    for event in events:
        if event["op"] == "update":
            assert (event["lo"], event["hi"], event["tids"]) == (1, existing, None)
    # One WAL commit of user rows per statement.
    assert [
        (len(c.inserted), len(c.updated), len(c.deleted)) for c in stack.commits
    ] == [(new, 0, 0)] * (new > 0) + [(0, existing, 0)] * (existing > 0)
    # One NOTIFY per statement at the socket client.
    assert stack.notifies() == [(e["op"], e["seq_no"]) for e in events]
    # One refresh folds them all.
    stack.client.refresh(T_ATTRS)
    assert stack.mirror.all_rows() == [
        dict(row) for row in stack.db.table(T_ATTRS).rows()
    ]


def test_write_positions_is_one_update_and_one_insert(stack):
    positions = {obj_id: (obj_id * 2.0, 3.0) for obj_id in (8, 2, 5, 11, 12)}
    assert stack.store.write_positions(1, positions) == 5
    events = stack.events()
    assert [(e["op"], e["lo"], e["hi"], e["tids"]) for e in events] == [
        ("update", 3, 9, [3, 6, 9]),
        ("insert", 11, 12, None),
    ]
    assert len(stack.commits) == 2
    # Statement order is the caller's order.
    assert [after["obj_id"] for _b, after in stack.commits[0].updated] == [8, 2, 5]
    assert stack.notifies() == [(e["op"], e["seq_no"]) for e in events]
    assert stack.store.get(1, 5).x == 10.0 and stack.store.get(1, 12).y == 3.0


def test_select_is_one_update_without_a_table_scan(stack, monkeypatch):
    table = stack.db.table(T_ATTRS)
    monkeypatch.setattr(table, "scan", lambda: pytest.fail("select scanned the table"))
    assert stack.store.select(1, [7, 3, 3, 99, 5]) == 3
    monkeypatch.undo()
    (event,) = stack.events()
    assert (event["op"], event["tids"]) == ("update", [4, 6, 8])
    (commit,) = stack.commits
    assert [after[TID] for _before, after in commit.updated] == [4, 6, 8]
    assert stack.notifies() == [("update", event["seq_no"])]
    assert stack.store.selected_ids(1) == [3, 5, 7]
    # Flipping back is again one statement; unknown ids flip nothing.
    assert stack.store.select(1, [3, 5, 7, 42], selected=False) == 3
    assert stack.store.select(1, [42]) == 0
    # (the insert is the sentinel of ``notifies``)
    assert [e["op"] for e in stack.events()] == ["update", "insert", "update"]
