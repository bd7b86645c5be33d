"""View registry: wires base-table subscriptions to maintenance.

Registering a view subscribes it to each of its base tables
(:meth:`~repro.db.database.Database.subscribe`); every subsequent change
set is converted to a delta and folded into the view incrementally.  The
registry records counters so benchmarks (ablation A1) can report
maintenance vs recomputation work.

Views take part in the propagation policies of Section V through those
edges, one per ``(view, base table)``: under a non-immediate policy
(``registry.subscriptions[view][i].set_policy(p)``) the database's gate
buffers the changes, and a flush folds the whole batch into the view as
**one** combined delta -- one ``view.apply`` call, one maintenance span,
however many statements fed it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any

from ..db.database import Database
from ..db.table import ChangeSet
from ..db.triggers import Subscription
from ..errors import ViewError
from ..obs.runtime import OBS
from ..obs.trace import NULL_SPAN
from .delta import Delta
from .view import ViewDefinition


@dataclass
class ViewStats:
    """Bookkeeping for one registered view."""

    recomputes: int = 0
    deltas_applied: int = 0
    delta_rows: int = 0


class ViewRegistry:
    """Owns materialized views over one database."""

    def __init__(self, database: Database) -> None:
        self._database = database
        self._views: dict[str, ViewDefinition] = {}
        self._stats: dict[str, ViewStats] = {}
        #: View name -> its edges, one per base table (each buffers under
        #: its own policy: one view may span tables).
        self.subscriptions: dict[str, list[Subscription]] = {}

    def register(self, view: ViewDefinition, populate: bool = True) -> ViewDefinition:
        """Add a view, subscribe it to its base tables, and (by default)
        populate it."""
        if view.name in self._views:
            raise ViewError(f"view {view.name!r} already registered")
        self._views[view.name] = view
        self._stats[view.name] = ViewStats()
        self.subscriptions[view.name] = [
            self._database.subscribe(
                table, partial(self._apply, view), f"ivm_{view.name}_{table}"
            )
            for table in sorted(view.base_tables())
        ]
        # Lineage-enabled views become provenance-queryable through the
        # database's lineage manager (when capture is on).
        manager = getattr(self._database, "lineage", None)
        if manager is not None and getattr(view, "lineage", None) is not None:
            manager.register_view(view)
        if populate:
            self.recompute(view.name)
        return view

    def close(self) -> None:
        """Stop maintaining every view, applying what its edges still buffer."""
        for name in list(self.subscriptions):
            for edge in self.subscriptions.pop(name):
                edge.close()

    # ------------------------------------------------------------------
    def _apply(self, view: ViewDefinition, change: ChangeSet) -> None:
        # The edge's delivery, immediate or flushed: database lock held.
        traced = OBS.enabled
        span = NULL_SPAN
        if traced:
            tags = {"view": view.name, "table": change.table}
            span = OBS.tracer.span("ivm.delta_apply", tags=tags)
        with span:
            applied = view.apply(Delta.from_changeset(change))
            stats = self._stats[view.name]
            stats.deltas_applied += 1
            stats.delta_rows += applied
            span.set_tag("rows", applied)
        if traced:
            OBS.metrics.histogram("ivm.delta_rows", view=view.name).observe(applied)
            OBS.metrics.histogram("ivm.maintenance_ms", view=view.name).observe(
                span.duration_ms
            )

    def unregister(self, name: str) -> None:
        if name not in self._views:
            raise ViewError(f"no view named {name!r}")
        # Closing applies what an edge still buffers, so the view and its
        # counters go only after.
        for edge in self.subscriptions.pop(name, []):
            edge.close()
        manager = getattr(self._database, "lineage", None)
        if manager is not None:
            manager.unregister_view(name)
        del self._views[name]
        del self._stats[name]

    def view(self, name: str) -> ViewDefinition:
        try:
            return self._views[name]
        except KeyError:
            raise ViewError(f"no view named {name!r}") from None

    def names(self) -> list[str]:
        return sorted(self._views)

    def recompute(self, name: str) -> None:
        """Full recomputation (also the fallback for doubt or repair)."""
        view = self.view(name)
        try:
            view.recompute(self._database)
        except Exception:
            # Surface recompute failures: count them so the dashboard /
            # alerts see a broken view, then let the caller handle it.
            if OBS.enabled:
                OBS.metrics.counter("ivm.recompute_errors", view=name).inc()
            raise
        self._stats[name].recomputes += 1

    def stats(self, name: str) -> ViewStats:
        return self._stats[name]

    def rows(self, name: str) -> list[dict[str, Any]]:
        return self.view(name).rows()
