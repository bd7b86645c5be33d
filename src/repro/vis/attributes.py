"""The VisualAttributes store.

"A visualization can be seen as an assignment of visual attributes (e.g.,
X and Y coordinates, color, size) to a given set of data items...
visualizations have high added value and it must be easy to store and
share them" (Section I).  This module reads/writes the shared
``ediflow_visual_attributes`` table (Figure 3 / Figure 6): the layout
procedure fills it once, and any number of display views render from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter, itemgetter
from typing import Any, Iterable, Optional, Sequence

from ..core import datamodel
from ..db.database import Database
from ..errors import VisError


_ITEM_FIELDS = itemgetter(
    "obj_id", "x", "y", "width", "height", "color", "label", "selected"
)
#: What a write changes of an item the component holds: all but its key.
_ATTRIBUTES = ("x", "y", "width", "height", "color", "label", "selected")
_ATTRIBUTE_VALUES = attrgetter(*_ATTRIBUTES)


@dataclass(slots=True)
class VisualItem:
    """One entity's visual attributes within one component."""

    obj_id: Any
    x: Optional[float] = None
    y: Optional[float] = None
    width: Optional[float] = None
    height: Optional[float] = None
    color: Optional[str] = None
    label: Optional[str] = None
    selected: bool = False

    def to_row(self, component_id: int | None = None) -> dict[str, Any]:
        """The item as a VisualAttributes row (``component_id`` is None
        for an item no store holds)."""
        return {
            "component_id": component_id,
            "obj_id": self.obj_id,
            "x": self.x,
            "y": self.y,
            "width": self.width,
            "height": self.height,
            "color": self.color,
            "label": self.label,
            "selected": self.selected,
        }

    @classmethod
    def from_row(cls, row: dict[str, Any]) -> "VisualItem":
        obj_id, x, y, width, height, color, label, selected = _ITEM_FIELDS(row)
        return cls(obj_id, x, y, width, height, color, label, bool(selected))


class VisualAttributesStore:
    """CRUD over the shared VisualAttributes table.

    An item is keyed by ``(component_id, obj_id)``, and so is its row:
    the table declares that key unique, and the store finds an item's
    tid by probing the key's index, whose group of one ``component_id``
    maps each ``obj_id`` to its tid.  A write probes and writes inside
    one ``database.transaction()`` block, which holds the database lock,
    so it sees every writer's rows -- another store's, SQL's, a
    rollback's, recovery's -- and none can insert between its probe and
    its insert.  A batch upsert is one commit of an ``insert_many`` and
    an ``update_by_tids`` -- one WAL record, one notification frame
    carrying its net delta -- whatever the batch size: the write path
    Figure 8 measures ("Inserting tuples in VisualAttributes table").
    """

    def __init__(self, database: Database) -> None:
        self.database = database
        datamodel.install_core_schema(database)
        table = database.table(datamodel.T_VISUAL_ATTRIBUTES)
        for index in table.hash_indexes():
            if index.unique and index.columns == datamodel.VISUAL_ATTRIBUTES_KEY:
                self._table, self._key = table, index
                return
        raise VisError(
            f"{table.name} has no unique (component_id, obj_id) key, the shape "
            "of an older version that named a row by a surrogate id"
        )

    @property
    def table_name(self) -> str:
        return datamodel.T_VISUAL_ATTRIBUTES

    # ------------------------------------------------------------------
    def write(self, component_id: int, items: Sequence[VisualItem]) -> int:
        """Upsert a batch of items for one component; returns rows written.

        New ``obj_id``s are inserted and existing ones updated in place,
        one statement each for the whole batch, in one commit.  An
        ``obj_id`` given twice is written once, with its last item.
        """
        if not items:
            return 0
        latest = {item.obj_id: item for item in items}
        with self.database.transaction():
            held = self._key.group(component_id)
            if held.keys().isdisjoint(latest):  # all new: a Figure-8 batch
                fresh, moved = list(latest.values()), {}
            else:
                fresh = [item for o, item in latest.items() if o not in held]
                moved = {
                    held[o]: dict(zip(_ATTRIBUTES, _ATTRIBUTE_VALUES(item)))
                    for o, item in latest.items()
                    if o in held
                }
            self._upsert(component_id, fresh, moved)
        return len(latest)

    def write_positions(
        self, component_id: int, positions: dict[Any, tuple[float, float]]
    ) -> int:
        """Fast path for layout streaming: update only x/y."""
        with self.database.transaction():
            held = self._key.group(component_id)
            placed = positions.items()
            fresh = [VisualItem(o, x, y) for o, (x, y) in placed if o not in held]
            moved = {held[o]: {"x": x, "y": y} for o, (x, y) in placed if o in held}
            self._upsert(component_id, fresh, moved)
        return len(positions)

    def _upsert(
        self, component_id: int, fresh: list[VisualItem], moved: dict[int, dict[str, Any]]
    ) -> None:
        """Insert ``fresh`` (distinct ``obj_id``s the component does not
        hold) and apply ``moved``: at most two statements of the caller's
        transaction, so one WAL record and one notification of the net
        delta, both or neither."""
        if fresh:
            rows = [item.to_row(component_id) for item in fresh]
            self.database.insert_many(datamodel.T_VISUAL_ATTRIBUTES, rows)
        if moved:
            self.database.update_by_tids(datamodel.T_VISUAL_ATTRIBUTES, moved)

    def _tids(self, component_id: int, obj_ids: Iterable[Any] | None) -> list[int]:
        """The tids of one component's items (of ``obj_ids`` among them),
        in tid order: creation order.  Call it holding the database lock."""
        held = self._key.group(component_id)
        if obj_ids is None:
            return sorted(held.values())
        return sorted(held[o] for o in set(obj_ids) if o in held)

    def _rows(self, component_id: int) -> list[dict[str, Any]]:
        with self.database.lock:
            return list(map(self._table.get, self._tids(component_id, None)))

    # ------------------------------------------------------------------
    def read(self, component_id: int) -> list[VisualItem]:
        return [VisualItem.from_row(row) for row in self._rows(component_id)]

    def get(self, component_id: int, obj_id: Any) -> Optional[VisualItem]:
        """One item: one probe of the key index."""
        with self.database.lock:
            tid = self._key.group(component_id).get(obj_id)
            return None if tid is None else VisualItem.from_row(self._table.get(tid))

    def select(self, component_id: int, obj_ids: Iterable[Any], selected: bool = True) -> int:
        """Flip the selection flag -- "whether the data instance is
        currently selected by a given visualisation component (which
        typically triggers the recomputation of the other components)"."""
        with self.database.transaction():
            tids = self._tids(component_id, obj_ids)
            moved = dict.fromkeys(tids, {"selected": selected})
            self._upsert(component_id, [], moved)
        return len(moved)

    def selected_ids(self, component_id: int) -> list[Any]:
        """Obj ids currently selected on one component (brush sources
        feed these to forward-lineage queries)."""
        return [row["obj_id"] for row in self._rows(component_id) if row["selected"]]

    def remove(self, component_id: int, obj_ids: Iterable[Any]) -> int:
        with self.database.transaction():
            tids = self._tids(component_id, obj_ids)
            return self.database.delete_by_tids(datamodel.T_VISUAL_ATTRIBUTES, tids)

    def clear(self, component_id: int) -> int:
        with self.database.transaction():
            tids = self._tids(component_id, None)
            return self.database.delete_by_tids(datamodel.T_VISUAL_ATTRIBUTES, tids)
