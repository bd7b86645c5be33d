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
from ..db.expression import col
from ..db.schema import TID


_ITEM_FIELDS = itemgetter(
    "obj_id", "x", "y", "width", "height", "color", "label", "selected"
)
_OBJ_ID = attrgetter("obj_id")
_TID = itemgetter(TID)


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

    Items are keyed by ``(component_id, obj_id)``; a row has no surrogate
    id (its tid names it to the engine).  A batch upsert is one
    transaction of an ``insert_many`` and an ``update_by_tids``, so one
    call is one commit -- one WAL record, one notification frame carrying
    its net delta -- whatever the batch size: the write path Figure 8
    measures ("Inserting tuples in VisualAttributes table").
    """

    def __init__(self, database: Database) -> None:
        self.database = database
        datamodel.install_core_schema(database)
        #: component_id -> (obj_id -> tid); lazily built, then kept
        #: current by this store's own writes.  The store assumes it is
        #: the only writer of the VisualAttributes table (it is, in every
        #: EdiFlow deployment: procedures go through it).  Caching the tid
        #: makes updates and every read of one component point operations
        #: instead of scans.  An entry is filled when the store's own
        #: transaction block exits, which inside an enclosing transaction
        #: is not the commit: so an entry is trusted only while its tid
        #: holds that item's row (:meth:`_tid`), and dropped otherwise --
        #: the item is then new again.
        self._cache: dict[int, dict[Any, int]] = {}

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
        existing = self._index(component_id)
        fresh: list[VisualItem] = []
        moved: dict[int, dict[str, Any]] = {}
        latest = {item.obj_id: item for item in items}
        for key, item in latest.items():
            # A new item (most, in a Figure-8 batch) costs one dict probe.
            tid = self._tid(existing, component_id, key) if key in existing else None
            if tid is not None:
                moved[tid] = {
                    "x": item.x,
                    "y": item.y,
                    "width": item.width,
                    "height": item.height,
                    "color": item.color,
                    "label": item.label,
                    "selected": item.selected,
                }
            else:
                fresh.append(item)
        self._upsert(component_id, fresh, moved)
        return len(latest)

    def write_positions(
        self, component_id: int, positions: dict[Any, tuple[float, float]]
    ) -> int:
        """Fast path for layout streaming: update only x/y."""
        existing = self._index(component_id)
        fresh: list[VisualItem] = []
        moved: dict[int, dict[str, Any]] = {}
        for obj_id, (x, y) in positions.items():
            tid = self._tid(existing, component_id, obj_id) if obj_id in existing else None
            if tid is not None:
                moved[tid] = {"x": x, "y": y}
            else:
                fresh.append(VisualItem(obj_id=obj_id, x=x, y=y))
        self._upsert(component_id, fresh, moved)
        return len(positions)

    def _update(self, changes_by_tid: dict[int, dict[str, Any]]) -> int:
        """Update existing items as one statement; returns rows updated."""
        if not changes_by_tid:
            return 0
        return self.database.update_by_tids(
            datamodel.T_VISUAL_ATTRIBUTES, changes_by_tid
        )

    def _upsert(
        self,
        component_id: int,
        fresh: list[VisualItem],
        moved: dict[int, dict[str, Any]],
    ) -> None:
        """Insert ``fresh`` (distinct, unseen ``obj_id``s) and apply
        ``moved`` as ONE commit of at most two statements: one WAL record,
        one notification of the net delta, both or neither."""
        rows = [item.to_row(component_id) for item in fresh]
        with self.database.transaction():
            stored = (
                self.database.insert_many(datamodel.T_VISUAL_ATTRIBUTES, rows)
                if rows
                else []
            )
            self._update(moved)
        # Cached once committed: a failing update takes the insert with it.
        self._index(component_id).update(zip(map(_OBJ_ID, fresh), map(_TID, stored)))

    def _index(self, component_id: int) -> dict[Any, int]:
        """obj_id -> tid for one component (cached)."""
        cached = self._cache.get(component_id)
        if cached is None:
            cached = {}
            for row in self.database.table(datamodel.T_VISUAL_ATTRIBUTES).scan():
                if row["component_id"] == component_id:
                    cached[row["obj_id"]] = row[TID]
            self._cache[component_id] = cached
        return cached

    def _tid(self, existing: dict[Any, int], component_id: int, obj_id: Any) -> Optional[int]:
        """The cached tid of ``obj_id``, if the table holds that item's row
        under it; otherwise the entry is dropped (the item is new again)."""
        tid = existing.get(obj_id)
        if tid is not None:
            row = self.database.table(datamodel.T_VISUAL_ATTRIBUTES).get(tid)
            if (
                row is not None
                and row["component_id"] == component_id
                and row["obj_id"] == obj_id
            ):
                return tid
            del existing[obj_id]
        return None

    def _rows(self, component_id: int) -> list[dict[str, Any]]:
        """One component's rows, in cache order, each entry checked by
        :meth:`_tid`: no scan once the cache is warm."""
        existing = self._index(component_id)
        tids = [self._tid(existing, component_id, obj_id) for obj_id in list(existing)]
        get = self.database.table(datamodel.T_VISUAL_ATTRIBUTES).get
        return [get(tid) for tid in tids if tid is not None]

    # ------------------------------------------------------------------
    def read(self, component_id: int) -> list[VisualItem]:
        return [VisualItem.from_row(row) for row in self._rows(component_id)]

    def get(self, component_id: int, obj_id: Any) -> Optional[VisualItem]:
        """One item, read through the ``obj_id -> tid`` cache."""
        tid = self._tid(self._index(component_id), component_id, obj_id)
        if tid is None:
            return None
        return VisualItem.from_row(self.database.table(datamodel.T_VISUAL_ATTRIBUTES).get(tid))

    def select(self, component_id: int, obj_ids: Iterable[Any], selected: bool = True) -> int:
        """Flip the selection flag -- "whether the data instance is
        currently selected by a given visualisation component (which
        typically triggers the recomputation of the other components)"."""
        existing = self._index(component_id)
        tids = sorted(
            tid
            for tid in (self._tid(existing, component_id, o) for o in set(obj_ids))
            if tid is not None
        )
        return self._update(dict.fromkeys(tids, {"selected": selected}))

    def selected_ids(self, component_id: int) -> list[Any]:
        """Obj ids currently selected on one component (brush sources
        feed these to forward-lineage queries)."""
        return [row["obj_id"] for row in self._rows(component_id) if row["selected"]]

    def remove(self, component_id: int, obj_ids: Iterable[Any]) -> int:
        wanted = set(obj_ids)
        predicate = (col("component_id") == component_id) & col("obj_id").is_in(wanted)
        # Dropped, not edited: a rolled-back enclosing transaction puts
        # the rows back under their old tids, and a rebuild finds them.
        self._cache.pop(component_id, None)
        return self.database.delete(datamodel.T_VISUAL_ATTRIBUTES, predicate)

    def clear(self, component_id: int) -> int:
        self._cache.pop(component_id, None)
        return self.database.delete(
            datamodel.T_VISUAL_ATTRIBUTES, col("component_id") == component_id
        )
