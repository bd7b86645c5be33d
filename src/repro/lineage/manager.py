"""Per-database lineage coordination: sampling, persistence, view lookup.

The manager is what :meth:`Database.enable_lineage` installs.  It owns

* the **capture policy** for ordinary SELECT traffic: deterministic
  every-Nth sampling (capturing a query costs roughly 10x executing it,
  so the default ``sample=256`` keeps amortized overhead well under the
  10% columnar-bench gate; ``sample=1`` captures everything);
* the optional :class:`~repro.lineage.store.LineageStore` that persists
  sampled captures as ``sys_lineage_*`` rows;
* the registry of lineage-enabled IVM views, which answer
  :meth:`backward`/:meth:`forward` provenance queries (the
  brushing-and-linking direction) without re-running anything.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterable, Optional

from ..db.vector import running_plan
from ..errors import LineageError
from ..obs.runtime import OBS
from ..obs.systable import is_system_table
from .capture import Lineage, capture_plan
from .store import LineageStore

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..db.algebra import Plan, Row
    from ..db.database import Database


class LineageManager:
    """Sampled lineage capture + provenance query surface for one database."""

    def __init__(
        self,
        database: "Database",
        sample: int = 256,
        store: "LineageStore | bool | None" = True,
    ) -> None:
        if sample < 1:
            raise ValueError(f"sample must be >= 1, got {sample}")
        self.database = database
        self.sample = sample
        if store is True or store is None:
            self.store: Optional[LineageStore] = LineageStore(database)
        elif store is False:
            self.store = None
        else:
            self.store = store
        self._select_counter = 0
        self._views: dict[str, Any] = {}
        # Lifetime counters.
        self.captures = 0
        self.sampled_out = 0

    # ------------------------------------------------------------------
    # Capture path (called from Database.execute on SELECTs)
    def maybe_capture(self, sql: str, plan: "Plan") -> "Optional[list[Row]]":
        """Sampled in-band capture hook.

        Returns the result rows when this statement was sampled (capture
        produces exactly the rows normal execution would, so the caller
        uses them directly and the query runs once), or None when the
        statement was sampled out -- the caller executes normally.
        """
        self._select_counter += 1
        if (self._select_counter - 1) % self.sample:
            self.sampled_out += 1
            return None
        # Never capture provenance of system-table reads, even unsampled:
        # the store would refuse to record them anyway, and the
        # dashboard's own mirror refreshes must not pay the capture tax.
        if any(map(is_system_table, plan.base_tables())):
            self.sampled_out += 1
            return None
        return self.capture(sql, plan)[0]

    def capture(self, sql: str, plan: "Plan", record: bool = True) -> "tuple[list[Row], list[Lineage]]":
        """Unconditional capture (EXPLAIN LINEAGE / ``query_lineage``)."""
        # Resolve the run-time engine choice first, so the record names
        # the engine that actually captured.
        plan = running_plan(plan, self.database)
        rows, lins = capture_plan(plan, self.database)
        self.captures += 1
        if record and self.store is not None:
            self.store.record(
                sql, getattr(plan, "engine", "row"), lins, plan.base_tables()
            )
        return rows, lins

    # ------------------------------------------------------------------
    # Lineage-enabled IVM views
    def register_view(self, view: Any) -> None:
        if getattr(view, "lineage", None) is None:
            raise LineageError(
                f"view {view.name!r} has no lineage index; call "
                "enable_lineage() on the view before registering it"
            )
        self._views[view.name] = view
        if OBS.enabled:
            OBS.metrics.counter("lineage.views_registered").inc()

    def unregister_view(self, name: str) -> None:
        self._views.pop(name, None)

    def view(self, name: str) -> Any:
        try:
            return self._views[name]
        except KeyError:
            raise LineageError(
                f"no lineage-enabled view named {name!r} "
                f"(registered: {sorted(self._views)})"
            ) from None

    def views(self) -> dict[str, Any]:
        return dict(self._views)

    def backward(self, view_name: str, key: Any) -> set[tuple[str, Any]]:
        """Base ``(table, tid)`` pairs behind one output key of a view."""
        return self.view(view_name).lineage.backward(key)

    def forward(
        self, table: str, tids: Iterable[Any]
    ) -> dict[str, set[Any]]:
        """Which outputs of every registered view do these base tuples feed?

        Returns ``{view_name: {output keys}}`` with empty views omitted.
        """
        srcs = [(table, tid) for tid in tids]
        out: dict[str, set[Any]] = {}
        for name, view in self._views.items():
            keys = view.lineage.forward_many(srcs)
            if keys:
                out[name] = keys
        return out

    def counters(self) -> dict[str, int]:
        out = {
            "captures": self.captures,
            "sampled_out": self.sampled_out,
            "views": len(self._views),
        }
        if self.store is not None:
            out.update(self.store.counters())
        return out
