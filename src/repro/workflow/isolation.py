"""Isolation between concurrent processes (Section VI-A of the paper).

Three mechanisms:

**Time-based isolation.**  Every tuple has a creation timestamp (kept by
its table, beside the row image); an instance with snapshot time ``t``
sees only tuples created at or before ``t``.  By default the snapshot is
taken at *process-instance* start ("each process operates on exactly the
data which was available when the process started"); activities marked
``fresh_snapshot`` re-snapshot at activity start (UP option 2).

**Deletion tables.**  A process instance deleting from ``R`` does not
physically remove tuples: they are recorded in ``R_deleted`` as
``(tid, t_del, pid, process_end)``.  Queries are rewritten:

* for the deleting instance ``p3``:
  ``... WHERE tid NOT IN (SELECT tid FROM R_deleted WHERE pid = p3)``
* for instances started at ``t0 > p3.end``:
  ``... WHERE tid NOT IN (SELECT tid FROM R_deleted WHERE process_end < t0)``

**Deferred physical deletion.**  When the deleting process ends, tuples
are physically removed once every process instance started before that
end has itself terminated (the ``wait`` sets of the paper).

**Process/activity-based isolation** rides on provenance relationships
(``createdBy``): :meth:`IsolationManager.own_rows` filters a relation to
the tuples created by a given process instance.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Any, Iterable, Iterator, Optional, Sequence

from ..core import datamodel
from ..db.database import Database, Result
from ..db.expression import Binding, Expression, col
from ..db.routing import matching_tids
from ..db.schema import CREATED_AT, TID, Column
from ..db.sql.ast import DeleteStmt, InsertStmt, SelectStmt
from ..db.sql.planner import _Scope, lower_expr
from ..db.table import Table
from ..db.types import INTEGER, TIMESTAMP
from ..errors import IsolationError

Row = dict[str, Any]


@dataclass
class IsolationContext:
    """Visibility parameters of one executing instance.

    ``snapshot_time=None`` means "see everything" (used by propagation
    handlers that must observe fresh data).  ``own_tids`` maps table name
    to the tids this process instance itself wrote -- a process always
    sees its own writes, regardless of the snapshot.
    """

    process_instance_id: int
    start_time: int
    snapshot_time: Optional[int]
    own_tids: Optional[dict[str, set[int]]] = None

    def record_own(self, table: str, tids: Iterable[int]) -> None:
        if self.own_tids is not None:
            self.own_tids.setdefault(table, set()).update(tids)


class _IsolatedTable:
    """Read-only view of a table filtered by an isolation context."""

    def __init__(self, table: Table, manager: "IsolationManager", ctx: IsolationContext) -> None:
        self._table = table
        self._manager = manager
        self._ctx = ctx
        self.schema = table.schema
        self.name = table.name

    def rows(self) -> Iterator[Row]:
        hidden = self._manager.hidden_tids(self._table.name, self._ctx)
        snapshot = self._ctx.snapshot_time
        ctx = self._ctx
        name = self._table.name
        table = self._table
        if snapshot is None:
            for row in table.rows():
                if row[TID] not in hidden:
                    yield row
            return
        # Snapshot isolation, with the instance's own writes always
        # visible (they necessarily carry timestamps past the snapshot).
        # Tids ascend with creation stamps, so the snapshot is tids 1..k,
        # k one bisect of the table's stamp list; the own writes follow.
        k = table.find_sorted_index(CREATED_AT).count_range(None, snapshot)
        own = sorted(tid for tid in (ctx.own_tids or {}).get(name, ()) if tid > k)
        for row in map(table.get, chain(range(1, k + 1), own)):
            if row is not None and row[TID] not in hidden:
                yield row

    def scan(self) -> Iterator[Row]:
        return self.rows()

    def __len__(self) -> int:
        return sum(1 for _ in self.rows())


class _IsolatedSource:
    """Database adapter handing out isolated tables to the planner."""

    def __init__(self, manager: "IsolationManager", ctx: IsolationContext) -> None:
        self._manager = manager
        self._ctx = ctx

    def table(self, name: str) -> Any:
        table = self._manager.database.table(name)
        if self._manager.is_managed(name):
            return _IsolatedTable(table, self._manager, self._ctx)
        return table


class IsolationManager:
    """Implements deletion tables, query rewriting, and deferred deletes."""

    def __init__(self, database: Database) -> None:
        self.database = database
        self._managed: set[str] = set()
        # pid -> set of tables it deleted from (to resolve at process end)
        self._pending_deletes: dict[int, set[str]] = {}
        # Running process instances: pid -> start_time (maintained by engine)
        self._running: dict[int, int] = {}

    # -- registration ------------------------------------------------------
    def manage(self, table: str) -> None:
        """Put ``table`` under isolation management (creates ``R_deleted``)."""
        if table in self._managed:
            return
        self.database.table(table)  # must exist
        deletion = datamodel.deletion_table_name(table)
        if not self.database.has_table(deletion):
            self.database.create_table(
                deletion,
                [
                    Column("tid", INTEGER, nullable=False),
                    Column("t_del", TIMESTAMP, nullable=False),
                    Column("pid", INTEGER, nullable=False),
                    Column("process_end", TIMESTAMP),
                ],
            )
        # hidden_tids probes by pid (the deleting instance's own entries)
        # and by process_end range (finished-before-start entries); index
        # both so visibility checks stay sublinear in the deletion log.
        deletion_table = self.database.table(deletion)
        if not deletion_table.has_index(f"ix_{deletion}_pid"):
            deletion_table.create_index(f"ix_{deletion}_pid", ("pid",))
        if not deletion_table.has_index(f"ix_{deletion}_end"):
            deletion_table.create_index(
                f"ix_{deletion}_end", ("process_end",), sorted=True
            )
        self._managed.add(table)

    def is_managed(self, table: str) -> bool:
        return table in self._managed

    # -- engine lifecycle hooks ---------------------------------------------
    def process_started(self, pid: int, start_time: int) -> None:
        self._running[pid] = start_time

    def process_ended(self, pid: int) -> None:
        """Stamp the instance's deletions and attempt physical deletion."""
        self._running.pop(pid, None)
        end_time = self.database.tick()
        tables = self._pending_deletes.pop(pid, set())
        for table in tables:
            deletion = datamodel.deletion_table_name(table)
            self.database.update(
                deletion, {"process_end": end_time}, col("pid") == pid
            )
        for table in self._managed:
            self.collect_garbage(table)

    # -- visibility ---------------------------------------------------------
    def hidden_tids(self, table: str, ctx: IsolationContext) -> set[int]:
        """Tids of ``table`` that ``ctx`` must not see.

        A tuple is hidden when (a) this very instance deleted it, or
        (b) the deleting process finished before this instance started.
        """
        if table not in self._managed:
            return set()
        deletion = datamodel.deletion_table_name(table)
        deletion_table = self.database.table(deletion)
        # manage() indexed both columns.  (a) own deletions: hash probe on
        # pid.  (b) deletions whose process finished before this instance
        # started: sorted-index range on process_end (NULL ends are
        # unindexed: an unfinished process hides nothing from others).
        hidden: set[int] = set()
        for entry_tid in deletion_table.find_hash_index("pid").lookup(
            ctx.process_instance_id
        ):
            entry = deletion_table.get(entry_tid)
            if entry is not None:
                hidden.add(entry["tid"])
        for entry_tid in deletion_table.find_sorted_index("process_end").range(
            None, ctx.start_time, include_high=False
        ):
            entry = deletion_table.get(entry_tid)
            if entry is not None:
                hidden.add(entry["tid"])
        return hidden

    def visible_rows(self, table: str, ctx: IsolationContext) -> list[Row]:
        base = self.database.table(table)
        return list(_IsolatedTable(base, self, ctx).rows())

    def own_rows(self, table: str, process_instance_id: int) -> list[Row]:
        """Process-based isolation: tuples created by one process instance.

        Resolved through provenance records ("such isolation is easily
        enforced using relationships between the application relations and
        the ActivityInstance table", Section VI-A).
        """
        prov = self.database.table(datamodel.T_PROVENANCE)
        instances = self.database.table(datamodel.T_ACTIVITY_INSTANCE)
        activity_ids = {
            row["id"]
            for row in instances.scan()
            if row["process_instance_id"] == process_instance_id
        }
        tids = {
            row["entity_tid"]
            for row in prov.scan()
            if row["entity_table"] == table
            and row["activity_instance_id"] in activity_ids
        }
        base = self.database.table(table)
        return [row for row in base.rows() if row[TID] in tids]

    # -- statement interface --------------------------------------------------
    def query(self, sql: str, params: Sequence[Any], ctx: IsolationContext) -> list[Row]:
        """Run a SELECT with isolation applied at every scan."""
        if not isinstance(self.database.statement(sql), SelectStmt):
            raise IsolationError("isolation.query() accepts SELECT only")
        return self.database.execute_from(_IsolatedSource(self, ctx), sql, params).rows

    def execute(self, sql: str, params: Sequence[Any], ctx: IsolationContext) -> Result:
        """Run any statement; SELECTs are isolated, DELETEs deferred.

        Everything but the deferred DELETE runs on the database's own
        statement path (caches, ``db.execute`` span, slow log); a SELECT
        only swaps in this instance's view of the tables as its source.
        """
        statement = self.database.statement(sql)
        if isinstance(statement, SelectStmt):
            return self.database.execute_from(_IsolatedSource(self, ctx), sql, params)
        if isinstance(statement, DeleteStmt) and statement.table in self._managed:
            scope = _Scope(self.database, params)
            scope.add_table(statement.table, None)
            where = (
                lower_expr(statement.where, scope)
                if statement.where is not None
                else None
            )
            with Binding(params):
                count = self.logical_delete(statement.table, where, ctx)
            return Result(rowcount=count)
        result = self.database.execute(sql, params)
        if isinstance(statement, InsertStmt):
            # The instance sees its own writes.
            ctx.record_own(statement.table, (r[TID] for r in result.change.inserted))
        return result

    def logical_delete(
        self, table: str, where: Expression | None, ctx: IsolationContext
    ) -> int:
        """Record deletions in ``R_deleted`` instead of removing rows."""
        if table not in self._managed:
            raise IsolationError(f"table {table!r} is not isolation-managed")
        base = self.database.table(table)
        already_hidden = self.hidden_tids(table, ctx)
        now = self.database.tick()
        deletion = datamodel.deletion_table_name(table)
        entries = []
        for tid in matching_tids(base, where):
            if tid in already_hidden:
                continue
            entries.append(
                {
                    "tid": tid,
                    "t_del": now,
                    "pid": ctx.process_instance_id,
                    "process_end": None,
                }
            )
        if entries:
            self.database.insert_many(deletion, entries)
            self._pending_deletes.setdefault(ctx.process_instance_id, set()).add(table)
        return len(entries)

    # -- SQL text rewriting (the paper's presentation of the mechanism) ----
    def rewrite_select_star(self, table: str, ctx: IsolationContext) -> str:
        """Produce the rewritten SQL of Section VI-A for ``SELECT * FROM R``.

        For the deleting instance:
            ``... WHERE __tid__ NOT IN (SELECT tid FROM R_deleted WHERE pid = <p>)``
        For a later-started instance:
            ``... WHERE __tid__ NOT IN (SELECT tid FROM R_deleted WHERE process_end < <t0>)``

        The executable path uses :meth:`query`; this method exists so the
        rewriting is observable/testable in the paper's own terms.
        """
        deletion = datamodel.deletion_table_name(table)
        if ctx.process_instance_id in self._pending_deletes and table in self._pending_deletes[ctx.process_instance_id]:
            return (
                f"SELECT * FROM {table} WHERE __tid__ NOT IN "
                f"(SELECT tid FROM {deletion} WHERE pid = {ctx.process_instance_id})"
            )
        return (
            f"SELECT * FROM {table} WHERE __tid__ NOT IN "
            f"(SELECT tid FROM {deletion} WHERE process_end < {ctx.start_time})"
        )

    # -- deferred physical deletion -----------------------------------------
    def collect_garbage(self, table: str) -> int:
        """Physically delete tuples whose deletion no running instance can
        still observe; returns the number of tuples removed.

        A deletion entry is collectible once its ``process_end`` is set and
        no running process instance started before that end.
        """
        if table not in self._managed:
            return 0
        deletion = datamodel.deletion_table_name(table)
        running_starts = list(self._running.values())
        collectible: list[int] = []
        entry_tids: list[int] = []
        for entry in self.database.table(deletion).scan():
            end = entry["process_end"]
            if end is None:
                continue
            if any(start < end for start in running_starts):
                continue  # someone may still rely on seeing the tuple
            collectible.append(entry["tid"])
            entry_tids.append(entry[TID])
        if not collectible:
            return 0
        removed = self.database.delete_by_tids(table, collectible)
        self.database.delete_by_tids(deletion, entry_tids)
        return removed
