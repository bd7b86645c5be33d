"""The Figure-8 batch takes the column-at-a-time write path.

A deterministic count of the per-row calls the path avoids: a
fig8-shaped 1,000-row ``insert_many`` into ``nodes`` and a 1,000-item
``VisualAttributesStore.write`` call ``TableSchema.validate_row`` not at
all, and a VisualAttributes row has no surrogate id to draw.  One
coercible value sends the whole statement back to ``validate_row``, row
by row.  The display builds no ``VisualItem`` for a 1,000-row batch, the
store's key index holds one tid per item, and a refresh pulls a batch's
images without one ``Table.get`` per row.
"""

import pytest

from repro.core import datamodel
from repro.db.schema import TID
from repro.db import INTEGER, TEXT, Column, Database, Table, TableSchema
from repro.sync import NotificationCenter, SyncClient, SyncServer
from repro.vis import Display, VisualAttributesStore, VisualItem

ROWS = 1000


@pytest.fixture
def calls(monkeypatch):
    counts = {"validate_row": 0, "next_id": 0, "_counter": 0}

    def counted(owner, name):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    counted(TableSchema, "validate_row")
    counted(datamodel.IdAllocator, "next_id")
    counted(datamodel.IdAllocator, "_counter")
    return counts


@pytest.fixture
def db():
    db = Database()
    datamodel.install_core_schema(db)
    db.create_table(
        "nodes",
        [Column("id", INTEGER, nullable=False), Column("name", TEXT, nullable=False)],
        primary_key="id",
    )
    return db


def node_rows(first=1):
    return [{"id": i, "name": f"node-{i}"} for i in range(first, first + ROWS)]


def test_fig8_nodes_statement_calls_no_validate_row(db, calls):
    db.insert_many("nodes", node_rows())
    assert calls["validate_row"] == 0
    assert len(db.table("nodes")) == ROWS


def test_fig8_attributes_write_calls_no_validate_row_and_draws_no_id(db, calls):
    store = VisualAttributesStore(db)
    items = [
        VisualItem(obj_id=i, x=i / 2, y=i / 3, color="#4e79a7", label=f"node-{i}")
        for i in range(ROWS)
    ]
    assert store.write(1, items) == ROWS
    assert calls["validate_row"] == 0
    assert calls["next_id"] == calls["_counter"] == 0
    table = db.table(datamodel.T_VISUAL_ATTRIBUTES)
    assert "id" not in table.schema.column_names and not table.schema.primary_key
    assert not hasattr(datamodel.IdAllocator, "next_ids")
    # A stored image: the nine columns and the tid, nothing else.
    assert all(len(row) == 10 for row in table.rows()) and len(table) == ROWS


def test_one_coercible_value_validates_every_row(db, calls):
    rows = node_rows()
    rows[500] = {"id": "501", "name": "node-501"}
    db.insert_many("nodes", rows)
    assert calls["validate_row"] == ROWS
    assert db.table("nodes").by_key(501)["id"] == 501


def attribute_rows(first=0):
    return [
        {
            "component_id": 1, "obj_id": i, "x": i / 2, "y": i / 3,
            "width": None, "height": None, "color": "#4e79a7",
            "label": f"node-{i}", "selected": False,
        }
        for i in range(first, first + ROWS)
    ]


def test_fig8_display_apply_builds_no_visual_item(monkeypatch):
    """The display holds the rows it is given; an item is built only
    when it is read."""
    built = [0]
    from_row = VisualItem.from_row

    def counted(row):
        built[0] += 1
        return from_row(row)

    monkeypatch.setattr(VisualItem, "from_row", counted)
    display = Display("machine2")
    rows = attribute_rows()
    assert display.apply_rows(rows) == ROWS
    assert built[0] == 0
    assert display.items[7].label == "node-7"
    assert built[0] == 1


def test_fig8_key_index_group_holds_tids(db):
    store = VisualAttributesStore(db)
    items = [VisualItem(obj_id=i, x=i / 2, y=i / 3) for i in range(ROWS)]
    store.write(1, items)
    table = db.table(datamodel.T_VISUAL_ATTRIBUTES)
    (key,) = [index for index in table.hash_indexes() if index.unique]
    group = key.group(1)
    assert len(group) == ROWS
    assert all(type(tid) is int for tid in group.values())
    assert all(table.get(group[row["obj_id"]]) is row for row in table.rows())


def test_fig8_refresh_reads_its_images_without_a_get_per_row(db, monkeypatch):
    """Machine 2's refresh after a 1,000-item write: the NOTIFY names a
    run of tids, read as one slice of the table's row list."""
    center = NotificationCenter(db)
    server = SyncServer(db, center)
    client = SyncClient(server)
    try:
        mirror = client.mirror(datamodel.T_VISUAL_ATTRIBUTES)
        VisualAttributesStore(db).write(
            1, [VisualItem(obj_id=i, x=i / 2, y=i / 3) for i in range(ROWS)]
        )
        gets = []
        get = Table.get

        def counted(self, tid):
            gets.append(self.name)
            return get(self, tid)

        monkeypatch.setattr(Table, "get", counted)
        stats = client.refresh(datamodel.T_VISUAL_ATTRIBUTES)
        assert stats == {"upserts": ROWS, "deletes": 0}
        # Neither the pulled rows nor the log's events are read one by
        # one (the client's cursor UPDATE is one row).
        assert datamodel.T_VISUAL_ATTRIBUTES not in gets
        assert datamodel.T_NOTIFICATION not in gets
        monkeypatch.undo()
        table = db.table(datamodel.T_VISUAL_ATTRIBUTES)
        assert all(mirror.get(row[TID]) is row for row in table.rows())
    finally:
        client.close()
        server.close()
        center.close()
