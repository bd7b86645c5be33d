"""Headless display: the terminal stage of the visualization pipeline.

A :class:`Display` stands in for one screen of the paper's deployment
(laptop, iPhone, or one WILD tile).  It keeps a display list keyed by
object id and can render to SVG for inspection.  The Figure-8
experiment's final step -- "inserting new nodes into the display screen"
-- is :meth:`apply_rows`.

The display list holds the VisualAttributes row images it is given, as
they are: a mirror's rows are shared, read-only images (a writer copies
on write), so holding one is a snapshot of the row, and a batch costs one
``dict.update``.  :attr:`Display.items` reads the list as
:class:`~repro.vis.attributes.VisualItem` objects, each built when it is
read.
"""

from __future__ import annotations

from collections.abc import Mapping
from contextlib import contextmanager
from operator import itemgetter
from typing import Any, Iterable, Iterator

from ..obs.runtime import OBS
from .attributes import VisualItem

_OBJ_ID = itemgetter("obj_id")


class ShownItems(Mapping):
    """A read-only view of a display list: ``obj_id -> VisualItem``,
    each item built from its row when it is read."""

    __slots__ = ("_rows",)

    def __init__(self, rows: dict[Any, Mapping[str, Any]]) -> None:
        self._rows = rows

    def __getitem__(self, obj_id: Any) -> VisualItem:
        return VisualItem.from_row(self._rows[obj_id])

    def __contains__(self, obj_id: object) -> bool:
        return obj_id in self._rows

    def __iter__(self) -> Iterator[Any]:
        return iter(self._rows)

    def __len__(self) -> int:
        return len(self._rows)


def _folded(rows: list[Mapping[str, Any]]) -> int:
    """How many leading ``rows`` a failed fold took: those before the
    first row without a hashable ``obj_id``."""
    for position, row in enumerate(rows):
        try:
            hash(row["obj_id"])
        except Exception:
            return position
    return len(rows)


class Display:
    """One render surface fed from VisualAttributes rows."""

    def __init__(self, name: str = "display", width: float = 800, height: float = 600) -> None:
        self.name = name
        self.width = width
        self.height = height
        #: obj_id -> the row image last applied for it.
        self._rows: dict[Any, Mapping[str, Any]] = {}
        self.items = ShownItems(self._rows)
        # Render bookkeeping (benchmarks read these).
        self.inserted = 0
        self.updated = 0
        self.removed = 0
        self.refreshes = 0
        #: Display-list transactions committed (one frame each).
        self.transactions = 0
        # Open transaction() nesting depth; while positive, refresh()
        # only *requests* a frame -- the outermost exit commits one.
        self._txn_depth = 0
        self._txn_refresh_requested = False

    # ------------------------------------------------------------------
    def apply_rows(self, rows: Iterable[Mapping[str, Any]]) -> int:
        """Fold VisualAttributes rows into the display list; the last row
        of an ``obj_id`` wins.  The rows are held as they are (read-only
        images).  A row whose ``obj_id`` is already shown counts as
        updated, any other as inserted."""
        traced = OBS.enabled
        with OBS.span("vis.display.apply", {"display": self.name}) as span:
            count = self._fold(rows if type(rows) is list else list(rows))
            span.set_tag("rows", count)
        if traced:
            OBS.metrics.histogram("vis.display_apply_ms", display=self.name).observe(
                span.duration_ms
            )
        return count

    def apply_items(self, items: Iterable[VisualItem]) -> int:
        """Fold visual items into the display list, as the rows they
        stand for (see :meth:`apply_rows`)."""
        return self._fold([item.to_row() for item in items])

    def _fold(self, rows: list[Mapping[str, Any]]) -> int:
        shown = self._rows
        before = len(shown)
        count = len(rows)
        try:
            shown.update(zip(map(_OBJ_ID, rows), rows))
        except BaseException:
            count = _folded(rows)
            raise
        finally:
            # Counted from what was folded, even if a row failed mid-batch.
            inserted = len(shown) - before
            self.inserted += inserted
            self.updated += count - inserted
        return count

    def remove_objects(self, obj_ids: Iterable[Any]) -> int:
        count = 0
        for obj_id in obj_ids:
            if self._rows.pop(obj_id, None) is not None:
                self.removed += 1
                count += 1
        return count

    def clear(self) -> None:
        self._rows.clear()

    def __len__(self) -> int:
        return len(self._rows)

    # ------------------------------------------------------------------
    def refresh(self) -> int:
        """Mark one display refresh (a frame); returns the frame number.

        Real toolkits redraw "10 times per second" (Section I); headless,
        a refresh just counts -- the data movement it would render is
        already in ``items``.  Inside a :meth:`transaction` the frame is
        *deferred*: however many refreshes the batch requests, exactly
        one is committed when the outermost transaction closes.
        """
        if self._txn_depth > 0:
            self._txn_refresh_requested = True
            return self.refreshes
        self.refreshes += 1
        return self.refreshes

    @contextmanager
    def transaction(self) -> Iterator["Display"]:
        """Apply a whole batch of display-list edits as one frame.

        Section VII: periodic propagation amortizes layout/render cost --
        a flush of 4096 coalesced changes must redraw once, not 4096
        times.  Reentrant; only the outermost exit commits the frame (and
        only if something inside asked for one).
        """
        self._txn_depth += 1
        try:
            yield self
        finally:
            self._txn_depth -= 1
            if self._txn_depth == 0:
                requested = self._txn_refresh_requested
                self._txn_refresh_requested = False
                self.transactions += 1
                if requested:
                    self.refreshes += 1

    def apply_snapshot(self, rows: Iterable[dict[str, Any]]) -> int:
        """Replace the display list with ``rows`` in one transaction.

        Clear + apply + a single frame: the batched equivalent of the
        clear/apply_rows/refresh sequence view bindings used to issue
        per update.
        """
        with self.transaction():
            self.clear()
            count = self.apply_rows(rows)
            self.refresh()
        return count

    # ------------------------------------------------------------------
    def bounds(self) -> tuple[float, float, float, float]:
        """(min_x, min_y, max_x, max_y) over placed items."""
        shown = list(self.items.values())
        xs = [i.x for i in shown if i.x is not None]
        ys = [i.y for i in shown if i.y is not None]
        if not xs or not ys:
            return (0.0, 0.0, 1.0, 1.0)
        return (min(xs), min(ys), max(xs), max(ys))

    def render_svg(self) -> str:
        """Render the display list to a standalone SVG string."""
        min_x, min_y, max_x, max_y = self.bounds()
        span_x = max(max_x - min_x, 1e-9)
        span_y = max(max_y - min_y, 1e-9)
        margin = 10.0

        def sx(x: float) -> float:
            return margin + (x - min_x) / span_x * (self.width - 2 * margin)

        def sy(y: float) -> float:
            return margin + (y - min_y) / span_y * (self.height - 2 * margin)

        parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{self.width:.0f}" '
            f'height="{self.height:.0f}" viewBox="0 0 {self.width:.0f} {self.height:.0f}">'
        ]
        for item in self.items.values():
            if item.x is None or item.y is None:
                continue
            color = item.color or "#4e79a7"
            if item.width and item.height:
                parts.append(
                    f'<rect x="{sx(item.x):.2f}" y="{sy(item.y):.2f}" '
                    f'width="{max(item.width, 0):.2f}" height="{max(item.height, 0):.2f}" '
                    f'fill="{color}" stroke="#ffffff"/>'
                )
            else:
                radius = 3.0
                parts.append(
                    f'<circle cx="{sx(item.x):.2f}" cy="{sy(item.y):.2f}" '
                    f'r="{radius}" fill="{color}"/>'
                )
            if item.label:
                parts.append(
                    f'<text x="{sx(item.x):.2f}" y="{sy(item.y) - 4:.2f}" '
                    f'font-size="9">{_escape(item.label)}</text>'
                )
        parts.append("</svg>")
        return "\n".join(parts)


def _escape(text: str) -> str:
    return (
        text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    )
