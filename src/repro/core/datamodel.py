"""The EdiFlow core data model (Figure 3 of the paper).

One function, :func:`install_core_schema`, creates the three entity
groups of the conceptual model inside a database:

* **process definition** -- ``ediflow_process``, ``ediflow_activity``,
  ``ediflow_group``, ``ediflow_user`` (+ membership);
* **process execution** -- ``ediflow_process_instance``,
  ``ediflow_activity_instance``, ``ediflow_connected_user``;
* **visualization** -- ``ediflow_visualization``,
  ``ediflow_vis_component``, ``ediflow_visual_attributes``,
  ``ediflow_notification``.

Application entities (the gray area of Figure 3) are created by each
application; :func:`provenance_table_name` supports the ``createdBy``
style relationships tying application tuples to activity instances.

Status flags follow the paper exactly: ``{not_started, running,
completed}`` for both activity and process instances.
"""

from __future__ import annotations

import itertools
from typing import Any, Iterator

from ..db.database import Database
from ..db.schema import Column, ForeignKey
from ..db.types import ANY, BOOLEAN, FLOAT, INTEGER, TEXT, TIMESTAMP

# Status flag values (Section IV-A).
NOT_STARTED = "not_started"
RUNNING = "running"
COMPLETED = "completed"
STATUSES = (NOT_STARTED, RUNNING, COMPLETED)

# Notification operations (Section IV-A / VI-C).
OP_INSERT = "insert"
OP_UPDATE = "update"
OP_DELETE = "delete"

# Core table names, prefixed to stay clear of application entities.
T_GROUP = "ediflow_group"
T_USER = "ediflow_user"
T_USER_GROUP = "ediflow_user_group"
T_PROCESS = "ediflow_process"
T_ACTIVITY = "ediflow_activity"
T_PROCESS_INSTANCE = "ediflow_process_instance"
T_ACTIVITY_INSTANCE = "ediflow_activity_instance"
T_CONNECTED_USER = "ediflow_connected_user"
T_VISUALIZATION = "ediflow_visualization"
T_VIS_COMPONENT = "ediflow_vis_component"
T_VISUAL_ATTRIBUTES = "ediflow_visual_attributes"
T_NOTIFICATION = "ediflow_notification"
T_PROVENANCE = "ediflow_provenance"
T_PROCESS_VARIABLE = "ediflow_process_variable"
T_DELETION_SUFFIX = "_deleted"

#: What names a VisualAttributes row: an entity within one component.
VISUAL_ATTRIBUTES_KEY = ("component_id", "obj_id")

CORE_TABLES = (
    T_GROUP,
    T_USER,
    T_USER_GROUP,
    T_PROCESS,
    T_ACTIVITY,
    T_PROCESS_INSTANCE,
    T_ACTIVITY_INSTANCE,
    T_CONNECTED_USER,
    T_VISUALIZATION,
    T_VIS_COMPONENT,
    T_VISUAL_ATTRIBUTES,
    T_NOTIFICATION,
    T_PROVENANCE,
    T_PROCESS_VARIABLE,
)


def deletion_table_name(table: str) -> str:
    """Name of the deletion table ``R^Delta`` for ``table`` (Section VI-A)."""
    return f"{table}{T_DELETION_SUFFIX}"


def install_core_schema(database: Database) -> None:
    """Create every core EdiFlow relation in ``database`` (idempotent)."""
    def mk(*args: Any, **kwargs: Any) -> None:
        database.create_table(*args, if_not_exists=True, **kwargs)

    mk(
        T_GROUP,
        [Column("id", INTEGER, nullable=False), Column("name", TEXT, nullable=False)],
        primary_key="id",
        unique=["name"],
    )
    mk(
        T_USER,
        [
            Column("id", INTEGER, nullable=False),
            Column("name", TEXT, nullable=False),
            Column("password", TEXT),
        ],
        primary_key="id",
        unique=["name"],
    )
    mk(
        T_USER_GROUP,
        [
            Column("user_id", INTEGER, nullable=False),
            Column("group_id", INTEGER, nullable=False),
        ],
        foreign_keys=[
            ForeignKey("user_id", T_USER, "id"),
            ForeignKey("group_id", T_GROUP, "id"),
        ],
    )
    mk(
        T_PROCESS,
        [Column("id", INTEGER, nullable=False), Column("name", TEXT, nullable=False)],
        primary_key="id",
        unique=["name"],
    )
    mk(
        T_ACTIVITY,
        [
            Column("id", INTEGER, nullable=False),
            Column("process_id", INTEGER, nullable=False),
            Column("name", TEXT, nullable=False),
            Column("group_id", INTEGER),  # the role allowed to perform it
        ],
        primary_key="id",
        foreign_keys=[
            ForeignKey("process_id", T_PROCESS, "id"),
            ForeignKey("group_id", T_GROUP, "id"),
        ],
    )
    mk(
        T_PROCESS_INSTANCE,
        [
            Column("id", INTEGER, nullable=False),
            Column("process_id", INTEGER, nullable=False),
            Column("status", TEXT, nullable=False, default=NOT_STARTED),
            Column("start", TIMESTAMP),
            Column("end", TIMESTAMP),
        ],
        primary_key="id",
        foreign_keys=[ForeignKey("process_id", T_PROCESS, "id")],
    )
    mk(
        T_ACTIVITY_INSTANCE,
        [
            Column("id", INTEGER, nullable=False),
            Column("activity_id", INTEGER, nullable=False),
            Column("process_instance_id", INTEGER, nullable=False),
            Column("user_id", INTEGER),
            Column("status", TEXT, nullable=False, default=NOT_STARTED),
            Column("start", TIMESTAMP),
            Column("end", TIMESTAMP),
        ],
        primary_key="id",
        foreign_keys=[
            ForeignKey("activity_id", T_ACTIVITY, "id"),
            ForeignKey("process_instance_id", T_PROCESS_INSTANCE, "id"),
            ForeignKey("user_id", T_USER, "id"),
        ],
    )
    mk(
        T_CONNECTED_USER,
        [
            Column("id", INTEGER, nullable=False),
            Column("user_id", INTEGER),
            Column("host", TEXT, nullable=False),
            Column("port", INTEGER, nullable=False),
            Column("table_name", TEXT, nullable=False),
            Column("last_seq_no", INTEGER, nullable=False, default=0),
        ],
        primary_key="id",
        foreign_keys=[ForeignKey("user_id", T_USER, "id")],
    )
    mk(
        T_VISUALIZATION,
        [Column("id", INTEGER, nullable=False), Column("name", TEXT, nullable=False)],
        primary_key="id",
    )
    mk(
        T_VIS_COMPONENT,
        [
            Column("id", INTEGER, nullable=False),
            Column("visualization_id", INTEGER, nullable=False),
            Column("label", TEXT),
            Column("type", TEXT, nullable=False),
        ],
        primary_key="id",
        foreign_keys=[ForeignKey("visualization_id", T_VISUALIZATION, "id")],
    )
    mk(
        T_VISUAL_ATTRIBUTES,
        [
            Column("component_id", INTEGER, nullable=False),
            Column("obj_id", ANY, nullable=False),  # id of the rendered entity
            Column("x", FLOAT),
            Column("y", FLOAT),
            Column("width", FLOAT),
            Column("height", FLOAT),
            Column("color", TEXT),
            Column("label", TEXT),
            Column("selected", BOOLEAN, default=False),
        ],
        unique=[VISUAL_ATTRIBUTES_KEY],
        foreign_keys=[ForeignKey("component_id", T_VIS_COMPONENT, "id")],
    )
    # The paper's ``(seq_no, ts, tn, op)`` plus which rows the event
    # touched: the tids ``lo..hi``, all of them when ``tids`` is NULL,
    # else exactly the ascending list ``tids`` (a list, not a tuple: WAL
    # and snapshots are JSON).  The table is the change log; its one
    # writer draws seq-no and tid in one step, so seq-no ascends with tid
    # and the log needs no key and no index.
    mk(
        T_NOTIFICATION,
        [
            Column("seq_no", INTEGER, nullable=False),
            Column("ts", TIMESTAMP, nullable=False),
            Column("table_name", TEXT, nullable=False),
            Column("op", TEXT, nullable=False),
            Column("lo", INTEGER, nullable=False),
            Column("hi", INTEGER, nullable=False),
            Column("tids", ANY),
        ],
    )
    mk(
        T_PROVENANCE,
        [
            Column("entity_table", TEXT, nullable=False),
            Column("entity_tid", INTEGER, nullable=False),
            Column("activity_instance_id", INTEGER, nullable=False),
            Column("relation", TEXT, nullable=False, default="createdBy"),
        ],
        foreign_keys=[
            ForeignKey("activity_instance_id", T_ACTIVITY_INSTANCE, "id")
        ],
    )
    # Process variables persisted per assignment (JSON-encoded), so a
    # crashed enactment resumes with the values it had -- the piece of
    # process state the paper keeps "in the DBMS" that an in-memory
    # Execution would otherwise lose.
    mk(
        T_PROCESS_VARIABLE,
        [
            Column("process_instance_id", INTEGER, nullable=False),
            Column("name", TEXT, nullable=False),
            Column("value", TEXT),  # JSON text; NULL = not representable
        ],
        unique=[("process_instance_id", "name")],
        foreign_keys=[
            ForeignKey("process_instance_id", T_PROCESS_INSTANCE, "id")
        ],
    )


class IdAllocator:
    """Sequential id allocation per core table.

    The embedded engine has no AUTOINCREMENT; this helper issues dense ids
    seeded from the current table contents so it also works on snapshots.
    Allocators on one database draw from its ``sequences``, so two
    components (say, two sync servers) never hand out the same id.
    """

    def __init__(self, database: Database) -> None:
        self._database = database
        self._next = database.sequences

    def next_id(self, table: str, column: str = "id") -> int:
        return next(self._counter(table, column))

    def _counter(self, table: str, column: str) -> Iterator[int]:
        key = f"{table}.{column}"
        counter = self._next.get(key)
        if counter is None:
            highest = 0
            for row in self._database.table(table).scan():
                value = row.get(column)
                if isinstance(value, int) and value > highest:
                    highest = value
            counter = self._next.setdefault(key, itertools.count(highest + 1))
        return counter


def record_provenance(
    database: Database,
    entity_table: str,
    entity_tid: int,
    activity_instance_id: int,
    relation: str = "createdBy",
) -> None:
    """Record that an activity instance created/updated an entity tuple."""
    database.insert(
        T_PROVENANCE,
        {
            "entity_table": entity_table,
            "entity_tid": entity_tid,
            "activity_instance_id": activity_instance_id,
            "relation": relation,
        },
    )


def provenance_of(
    database: Database, entity_table: str, entity_tid: int
) -> list[dict[str, Any]]:
    """All provenance records for one entity tuple."""
    return [
        dict(row)
        for row in database.table(T_PROVENANCE).rows()
        if row["entity_table"] == entity_table and row["entity_tid"] == entity_tid
    ]
