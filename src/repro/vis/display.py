"""Headless display: the terminal stage of the visualization pipeline.

A :class:`Display` stands in for one screen of the paper's deployment
(laptop, iPhone, or one WILD tile).  It keeps a display list of visual
items keyed by object id and can render to SVG for inspection.  The
Figure-8 experiment's final step -- "inserting new nodes into the display
screen" -- is :meth:`apply_rows`.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Iterable, Iterator

from ..obs.runtime import OBS
from .attributes import VisualItem


class Display:
    """One render surface fed from VisualAttributes rows."""

    def __init__(self, name: str = "display", width: float = 800, height: float = 600) -> None:
        self.name = name
        self.width = width
        self.height = height
        self.items: dict[Any, VisualItem] = {}
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
    def apply_rows(self, rows: Iterable[dict[str, Any]]) -> int:
        """Fold VisualAttributes rows into the display list."""
        traced = OBS.enabled
        with OBS.span("vis.display.apply", {"display": self.name}) as span:
            count = self.apply_items(map(VisualItem.from_row, rows))
            span.set_tag("rows", count)
        if traced:
            OBS.metrics.histogram("vis.display_apply_ms", display=self.name).observe(
                span.duration_ms
            )
        return count

    def apply_items(self, items: Iterable[VisualItem]) -> int:
        """Fold visual items into the display list; the last item of an
        ``obj_id`` wins.  An item whose ``obj_id`` is already shown counts
        as updated, any other as inserted."""
        shown = self.items
        before = len(shown)
        count = 0
        try:
            for item in items:
                shown[item.obj_id] = item
                count += 1
        finally:
            # Counted from what was folded, even if a row failed to convert.
            inserted = len(shown) - before
            self.inserted += inserted
            self.updated += count - inserted
        return count

    def remove_objects(self, obj_ids: Iterable[Any]) -> int:
        count = 0
        for obj_id in obj_ids:
            if self.items.pop(obj_id, None) is not None:
                self.removed += 1
                count += 1
        return count

    def clear(self) -> None:
        self.items.clear()

    def __len__(self) -> int:
        return len(self.items)

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
        xs = [i.x for i in self.items.values() if i.x is not None]
        ys = [i.y for i in self.items.values() if i.y is not None]
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
