"""View registry: wires base-table triggers to maintenance.

Registering a view installs statement-level triggers on each of its base
tables; every subsequent change set is converted to a delta and folded
into the view incrementally.  The registry records counters so benchmarks
(ablation A1) can report maintenance vs recomputation work.

Views participate in the propagation policies of Section V through the
registry's :class:`~repro.sync.batching.PolicyGate`, keyed by ``(view,
base table)``: under a non-immediate policy
(:meth:`ViewRegistry.set_policy`) the trigger path hands change sets to
the gate, and a flush folds the whole batch into the view as **one**
combined delta -- one ``apply_delta`` call, one maintenance span,
however many statements fed it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..db.database import Database
from ..db.table import ChangeSet
from ..errors import DatabaseError, ViewError
from ..obs.runtime import OBS
from ..obs.trace import NULL_SPAN
from ..sync.batching import IMMEDIATE, DeltaCoalescer, PolicyGate, PropagationPolicy
from .delta import Delta
from .maintenance import apply_delta
from .view import ViewDefinition


@dataclass
class ViewStats:
    """Bookkeeping for one registered view."""

    recomputes: int = 0
    deltas_applied: int = 0
    delta_rows: int = 0
    #: Flushes of buffered (non-immediate policy) batches.
    batched_flushes: int = 0
    #: Raw operations removed by coalescing before application.
    coalesced_ops: int = 0


class ViewRegistry:
    """Owns materialized views over one database."""

    def __init__(self, database: Database) -> None:
        self._database = database
        self._views: dict[str, ViewDefinition] = {}
        self._stats: dict[str, ViewStats] = {}
        self._trigger_names: dict[str, list[str]] = {}
        # Propagation policies, keyed (view, base table): one view may
        # span tables, and each buffers its own delta.
        self._gate = PolicyGate(database.lock, self._deliver_flush)

    def register(self, view: ViewDefinition, populate: bool = True) -> ViewDefinition:
        """Add a view, install its triggers, and (by default) populate it."""
        if view.name in self._views:
            raise ViewError(f"view {view.name!r} already registered")
        self._views[view.name] = view
        self._stats[view.name] = ViewStats()
        triggers: list[str] = []
        for table in sorted(view.base_tables()):
            name = self._database.on(
                table,
                ("insert", "update", "delete"),
                self._make_handler(view, table),
                name=f"ivm_{view.name}_{table}",
            )
            triggers.append(name)
        self._trigger_names[view.name] = triggers
        # Lineage-enabled views become provenance-queryable through the
        # database's lineage manager (when capture is on).
        manager = getattr(self._database, "lineage", None)
        if manager is not None and getattr(view, "lineage", None) is not None:
            manager.register_view(view)
        if populate:
            self.recompute(view.name)
        return view

    # ------------------------------------------------------------------
    # Propagation policies
    def _keys(self, view_name: str) -> list[tuple[str, str]]:
        """The gate keys of ``view_name`` (none for an unknown view)."""
        view = self._views.get(view_name)
        if view is None:
            return []
        return [(view_name, table) for table in sorted(view.base_tables())]

    def set_policy(self, view_name: str, policy: PropagationPolicy) -> None:
        """Configure how base-table changes reach ``view_name``.

        Anything buffered under the old policy is flushed first, so a
        policy switch never strands deltas.
        """
        self.view(view_name)  # must exist
        for key in self._keys(view_name):
            self._gate.set_policy(key, policy)

    def policy(self, view_name: str) -> PropagationPolicy:
        keys = self._keys(view_name)
        return self._gate.policy(keys[0]) if keys else IMMEDIATE

    def pending_ops(self, view_name: str) -> int:
        """Buffered raw operations awaiting a flush for ``view_name``."""
        return sum(self._gate.pending_ops(key) for key in self._keys(view_name))

    def flush_view(self, view_name: str) -> int:
        """Apply buffered deltas of ``view_name`` as combined batches.

        Returns the number of net operations applied.  One call per base
        table: a flush of 10k coalesced inserts costs one ``apply_delta``
        invocation instead of 10k trigger firings.
        """
        return sum(self._gate.flush(key) for key in self._keys(view_name))

    def flush_table(self, table: str) -> int:
        """Apply what is buffered from ``table`` to every view over it."""
        return sum(
            self._gate.flush((name, table))
            for name, view in list(self._views.items())
            if table in view.base_tables()
        )

    def flush_all(self) -> int:
        """Flush every view with buffered deltas; returns total net ops."""
        return self._gate.flush_all()

    def close(self) -> None:
        """Flush every view and stop the gate's timer."""
        self._gate.close()

    # ------------------------------------------------------------------
    def _make_handler(self, view: ViewDefinition, table: str):
        key = (view.name, table)

        def handler(change: ChangeSet) -> None:
            # Trigger context: database lock held.
            if not self._gate.offer(key, change):
                self._apply_now(view, change)

        return handler

    def _deliver_flush(self, key: tuple[str, str], coalescer: DeltaCoalescer) -> int:
        # The gate's delivery: database lock held, gate lock not.
        view = self._views[key[0]]
        stats = self._stats[view.name]
        stats.coalesced_ops += coalescer.coalesced_away()
        if coalescer.is_empty():
            return 0  # batch annihilated itself; savings counted
        stats.batched_flushes += 1
        self._apply_now(view, coalescer.net_changeset())
        return coalescer.net_ops()

    def _apply_now(self, view: ViewDefinition, change: ChangeSet) -> None:
        traced = OBS.enabled
        span = NULL_SPAN
        if traced:
            tags = {"view": view.name, "table": change.table}
            span = OBS.tracer.span("ivm.delta_apply", tags=tags)
        with span:
            applied = apply_delta(view, Delta.from_changeset(change), self._database)
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
        for trigger in self._trigger_names.pop(name, []):
            try:
                self._database.drop_trigger(trigger)
            except DatabaseError:
                # Table may have been dropped, taking triggers with it.
                # Count the skip instead of swallowing it invisibly.
                if OBS.enabled:
                    OBS.metrics.counter(
                        "ivm.trigger_drop_errors", view=name
                    ).inc()
        manager = getattr(self._database, "lineage", None)
        if manager is not None:
            manager.unregister_view(name)
        # Under the database lock, as every delivery is: a flush already
        # on its way (the gate's timer) runs wholly before or finds nothing.
        with self._database.lock:
            for key in self._keys(name):
                self._gate.drop(key)
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
