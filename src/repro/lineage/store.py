"""Queryable lineage system tables, following the TelemetrySink pattern.

Captured query lineage is persisted into two system tables so provenance
is itself a relation -- queryable, joinable, watchable through the same
machinery as any other table:

``sys_lineage_queries``
    one row per recorded capture: ``query_id`` (monotonic), logical
    timestamp, SQL text, executing engine, output row count, edge count.
``sys_lineage_edges``
    one row per (output row, base tuple) edge: ``query_id``, ``out_row``
    (0-based output position), ``src_table``, ``src_tid``.

Guards are the telemetry sink's (:mod:`repro.obs.systable`):

* **recursion guard** -- a capture whose plan reads any system table
  (the lineage tables themselves, telemetry tables, a dashboard
  refreshing its mirrors) is never recorded; recording it would make
  every provenance query spawn provenance of its own.  Skips are counted
  in ``guard_skipped``.
* **bounded retention** -- each table is a
  :class:`~repro.obs.systable.SysTable` whose generation is the
  ``query_id``: only the most recent ``retention`` recorded queries and
  their edges are kept, and a ``query_id`` is one past the newest
  stored, so a store reopened on the same tables numbers on from them.
* **edge cap** -- a single capture contributes at most
  ``max_edges_per_query`` edges (oldest output rows first); truncation
  is flagged on the query row rather than silently dropped.

Deterministic *query* sampling (capture every Nth SELECT) lives in
:class:`~repro.lineage.manager.LineageManager`, which decides what to
capture; the store only persists what it is handed.
"""

from __future__ import annotations

from typing import Any, Iterable, Optional

from ..db.database import Database
from ..db.schema import Column
from ..db.types import ANY, INTEGER, TEXT
from ..obs.systable import SysTable, is_system_table

__all__ = [
    "SYS_LINEAGE_EDGES",
    "SYS_LINEAGE_QUERIES",
    "LINEAGE_TABLES",
    "LineageStore",
]

SYS_LINEAGE_QUERIES = "sys_lineage_queries"
SYS_LINEAGE_EDGES = "sys_lineage_edges"

LINEAGE_TABLES = (SYS_LINEAGE_QUERIES, SYS_LINEAGE_EDGES)

QUERY_COLUMNS = [
    Column("query_id", INTEGER, nullable=False),
    Column("ts", INTEGER, nullable=False),
    Column("sql", TEXT, nullable=False),
    Column("engine", TEXT, nullable=False),
    Column("rows", INTEGER, nullable=False),
    Column("edges", INTEGER, nullable=False),
    Column("truncated", INTEGER, nullable=False),
]
EDGE_COLUMNS = [
    Column("query_id", INTEGER, nullable=False),
    Column("out_row", INTEGER, nullable=False),
    Column("src_table", TEXT, nullable=False),
    Column("src_tid", ANY, nullable=False),
]


class LineageStore:
    """Persists captured lineage as bounded, guarded system tables.

    Parameters
    ----------
    database:
        Where the lineage tables live.  Typically the workload database
        itself (lineage next to the data it describes); a dedicated
        database also works and keeps lineage writes off the workload's
        trigger path.
    retention:
        Keep at most this many recent recorded queries (default 64).
    max_edges_per_query:
        Edge cap per recorded capture (default 1000 -- keeps the
        sampled in-band write small and the edges table bounded at
        ``retention * max_edges_per_query`` rows).
    """

    def __init__(
        self,
        database: Optional[Database] = None,
        retention: int = 64,
        max_edges_per_query: int = 1_000,
    ) -> None:
        if retention < 1:
            raise ValueError(f"retention must be >= 1, got {retention}")
        if max_edges_per_query < 1:
            raise ValueError(
                f"max_edges_per_query must be >= 1, got {max_edges_per_query}"
            )
        self.database = database if database is not None else Database("lineage")
        self.retention = retention
        self.max_edges_per_query = max_edges_per_query
        self._queries = SysTable(
            self.database,
            SYS_LINEAGE_QUERIES,
            QUERY_COLUMNS,
            gen="query_id",
            keep=retention,
        )
        self._edges = SysTable(
            self.database,
            SYS_LINEAGE_EDGES,
            EDGE_COLUMNS,
            gen="query_id",
            keep=retention,
            indexes=[("ix_sys_lineage_edges_table", ("src_table",))],
        )
        # Lifetime counters (tests and the dashboard read these).
        self.queries_stored = 0
        self.edges_stored = 0
        self.guard_skipped = 0
        self.truncated = 0
        self.pruned = 0

    # ------------------------------------------------------------------
    def record(
        self,
        sql: str,
        engine: str,
        lins: list[tuple],
        base_tables: Iterable[str],
    ) -> Optional[int]:
        """Persist one capture; returns its query_id, or None when guarded.

        ``lins`` is the canonicalized per-output-row lineage from
        :func:`~repro.lineage.capture.capture_plan`.
        """
        if any(map(is_system_table, base_tables)):
            self.guard_skipped += 1
            return None
        db = self.database
        with db.lock:
            query_id = self._queries.newest() + 1
            edge_rows: list[dict[str, Any]] = []
            truncated = 0
            cap = self.max_edges_per_query
            for out_row, pairs in enumerate(lins):
                if len(edge_rows) + len(pairs) > cap:
                    truncated = 1
                    break
                for src_table, src_tid in pairs:
                    edge_rows.append(
                        {
                            "query_id": query_id,
                            "out_row": out_row,
                            "src_table": src_table,
                            "src_tid": src_tid,
                        }
                    )
            query_row = {
                "query_id": query_id,
                "ts": db.now(),
                "sql": sql,
                "engine": engine,
                "rows": len(lins),
                "edges": len(edge_rows),
                "truncated": truncated,
            }
            self.pruned += self._queries.write([query_row])
            # A query without edges still ages the edges of older ones.
            self._edges.write(edge_rows, newest=query_id)
        self.queries_stored += 1
        self.edges_stored += len(edge_rows)
        self.truncated += truncated
        return query_id

    # ------------------------------------------------------------------
    def edges_for(self, query_id: int) -> list[dict[str, Any]]:
        """All lineage edges of one recorded query, in output-row order."""
        return self.database.query(
            f"SELECT out_row, src_table, src_tid FROM {SYS_LINEAGE_EDGES} "
            f"WHERE query_id = ? ORDER BY out_row",
            [query_id],
        )

    def backward(self, query_id: int, out_row: int) -> set[tuple[str, Any]]:
        """Base ``(table, tid)`` pairs behind one output row of a query."""
        rows = self.database.query(
            f"SELECT src_table, src_tid FROM {SYS_LINEAGE_EDGES} "
            f"WHERE query_id = ? AND out_row = ?",
            [query_id, out_row],
        )
        return {(r["src_table"], r["src_tid"]) for r in rows}

    def latest_query_id(self) -> Optional[int]:
        return self._queries.newest() or None

    def counters(self) -> dict[str, int]:
        """Lifetime store counters (tests, dashboard, debugging)."""
        return {
            "queries_stored": self.queries_stored,
            "edges_stored": self.edges_stored,
            "guard_skipped": self.guard_skipped,
            "truncated": self.truncated,
            "pruned": self.pruned,
        }
