"""The embedded database facade.

:class:`Database` plays the role Oracle 11g / MySQL 5 play in the paper's
deployment (Section VI-D): persistent relations, a SQL interface,
statement-level triggers, and a logical clock stamping every tuple --
everything the EdiFlow layers above (workflow, propagation, isolation,
synchronization) require of "a standard DBMS".

All public methods are thread-safe behind one reentrant lock: the
synchronization server (Section VI-C) serves remote clients from threads.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from ..errors import DatabaseError, SchemaError, UnknownTableError
from ..obs.runtime import OBS
from .algebra import (
    Plan,
    format_plan,
    instrument_plan,
    operator_rows,
    plan_access_kind,
)
from .expression import Expression
from .plancache import LRUCache, plan_cachable
from .routing import matching_tids
from .schema import HIDDEN_FIELDS, Column, ForeignKey, TableSchema
from .sql.ast import (
    CreateTableStmt,
    DeleteStmt,
    DropTableStmt,
    ExplainStmt,
    InsertStmt,
    SelectStmt,
    Statement,
    UpdateStmt,
)
from .sql.parser import parse
from .sql.planner import _Scope, lower_expr, plan_select
from .table import ChangeSet, Table
from .transactions import Transaction, TransactionContext
from .triggers import TriggerManager
from .types import type_from_name


class Result:
    """Outcome of one statement.

    For SELECT: ``rows`` holds the result (list of dicts).  For mutations:
    ``rowcount`` is the number of affected rows and ``rows`` is empty.
    """

    def __init__(self, rows: list[dict[str, Any]] | None = None, rowcount: int = 0) -> None:
        self.rows = rows if rows is not None else []
        self.rowcount = rowcount

    def __iter__(self) -> Iterator[dict[str, Any]]:
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def scalar(self) -> Any:
        """First column of the first row (or None on empty results)."""
        if not self.rows:
            return None
        return next(iter(self.rows[0].values()))

    def column(self, name: str) -> list[Any]:
        return [row[name] for row in self.rows]


class Database:
    """An embedded, in-process relational database.

    Parameters
    ----------
    name:
        Purely informational label (shows up in repr and snapshots).
    """

    def __init__(self, name: str = "ediflow") -> None:
        self.name = name
        self._tables: dict[str, Table] = {}
        self._triggers = TriggerManager()
        self._clock = 0
        self._lock = threading.RLock()
        self._current_transaction: Transaction | None = None
        self._trigger_counter = 0
        # Durability hooks (see repro.db.durability): commit hooks see
        # every committed statement batch *before* triggers fire; DDL
        # hooks see create/drop table.  Empty lists cost one truth test
        # per statement.
        self._commit_hooks: list[Callable[[list[ChangeSet]], None]] = []
        self._ddl_hooks: list[Callable[[str, TableSchema | None, str], None]] = []
        # SQL fast path: text -> AST (never invalidated) and text -> plan
        # (evicted on DDL); see repro.db.plancache for the cachability rules.
        self._statement_cache = LRUCache(capacity=512)
        self._plan_cache = LRUCache(capacity=256)
        # Vectorized execution (repro.db.vector).  "auto" lets the router
        # vectorize unrouted plans over tables of at least vector_min_rows
        # rows; "row"/"vector" force one engine; "oracle" runs both and
        # diffs (the row/vector equivalence oracle).
        self._engine_mode = "auto"
        self.vector_min_rows = 4096
        # Lineage capture (repro.lineage).  Off by default -- queries pay
        # nothing until enable_lineage() installs a manager.
        self._lineage: Any = None
        # Slow-path attributor (repro.obs.slowlog).  Off by default --
        # traced statements pay one attribute check until
        # enable_slowlog() installs a log.
        self._slowlog: Any = None

    # ------------------------------------------------------------------
    # Lineage
    @property
    def lineage(self) -> Any:
        """The installed :class:`~repro.lineage.manager.LineageManager`,
        or None when lineage capture is disabled (the default)."""
        return self._lineage

    def enable_lineage(
        self, sample: int = 256, store: Any = True
    ) -> Any:
        """Turn on tuple lineage capture; returns the manager.

        ``sample`` captures every Nth SELECT (deterministically); pass
        ``sample=1`` to capture everything.  ``store`` keeps the default
        :class:`~repro.lineage.store.LineageStore` persisting captures as
        ``sys_lineage_*`` tables in this database, ``store=False`` skips
        persistence, or pass a configured store instance.  Idempotent in
        the sense that calling it again replaces the manager (fresh
        counters, same tables).
        """
        from ..lineage.manager import LineageManager

        with self._lock:
            self._lineage = LineageManager(self, sample=sample, store=store)
            return self._lineage

    def disable_lineage(self) -> None:
        """Stop capturing lineage (sys_lineage_* tables are left as-is)."""
        with self._lock:
            self._lineage = None

    # ------------------------------------------------------------------
    # Slow-path attribution
    def slowlog(self) -> Any:
        """The installed :class:`~repro.obs.slowlog.SlowLog`, or None
        when slow-path capture is disabled (the default)."""
        return self._slowlog

    def enable_slowlog(self, budget_ms: float = 50.0, **kwargs: Any) -> Any:
        """Record over-budget statements/spans into ``sys_slowlog``.

        Creates a :class:`~repro.obs.slowlog.SlowLog` on this database:
        any traced statement slower than ``budget_ms`` is persisted with
        its EXPLAIN ANALYZE operator rows, and (via a tracer hook) any
        other over-budget span with its profile stacks.  Requires
        tracing (``obs.enable()``) to see statements.  Returns the log.
        """
        from ..obs.slowlog import SlowLog

        with self._lock:
            if self._slowlog is not None:
                return self._slowlog
            self._slowlog = SlowLog(self, budget_ms=budget_ms, **kwargs)
            return self._slowlog

    def disable_slowlog(self) -> None:
        """Stop slow-path capture (sys_slowlog rows are left as-is)."""
        with self._lock:
            log, self._slowlog = self._slowlog, None
        if log is not None:
            log.close()

    def query_lineage(
        self, sql: str, params: Sequence[Any] = ()
    ) -> tuple[list[dict[str, Any]], list[tuple]]:
        """Run a SELECT with unconditional lineage capture.

        Returns ``(rows, lineage)`` where ``lineage[i]`` is the tuple of
        ``(table, tid)`` pairs behind ``rows[i]``.  Requires
        :meth:`enable_lineage`.
        """
        if self._lineage is None:
            raise DatabaseError(
                "lineage capture is disabled; call enable_lineage() first"
            )
        with self._lock:
            plan = self.plan(sql, params)
            return self._lineage.capture(sql, plan)

    def backward_lineage(self, view_name: str, key: Any) -> set[tuple[str, Any]]:
        """Base ``(table, tid)`` pairs behind one output key of a
        lineage-enabled IVM view ("why is this group here")."""
        if self._lineage is None:
            raise DatabaseError(
                "lineage capture is disabled; call enable_lineage() first"
            )
        return self._lineage.backward(view_name, key)

    def forward_lineage(
        self, table: str, tids: Iterable[Any]
    ) -> dict[str, set[Any]]:
        """Which outputs of every lineage-enabled view do these base
        tuples feed ("where did this row go")."""
        if self._lineage is None:
            raise DatabaseError(
                "lineage capture is disabled; call enable_lineage() first"
            )
        return self._lineage.forward(table, tids)

    @property
    def engine_mode(self) -> str:
        return self._engine_mode

    def set_engine(self, mode: str) -> None:
        """Select the query engine: ``auto``, ``row``, ``vector``, ``oracle``.

        Cached plans keep the engine decision made when they were
        planned, so switching clears the plan cache.
        """
        if mode not in ("auto", "row", "vector", "oracle"):
            raise DatabaseError(
                f"unknown engine mode {mode!r}; "
                "expected auto, row, vector, or oracle"
            )
        with self._lock:
            self._engine_mode = mode
            self._plan_cache.clear()

    @property
    def lock(self) -> threading.RLock:
        """The database's global lock.

        Triggers fire while it is held, so any subsystem that must take
        both this lock and its own (the notification center's batching
        flush, the purge path) acquires *this one first* to keep a single
        global order and stay deadlock-free.
        """
        return self._lock

    # ------------------------------------------------------------------
    # Clock
    def now(self) -> int:
        """Current logical time (does not advance the clock)."""
        with self._lock:
            return self._clock

    def tick(self, n: int = 1) -> int:
        """Advance the logical clock ``n`` ticks and return the last.

        Every row mutation takes one tick (a multi-row statement reserves
        its ``n`` here in one step), so creation/update timestamps are
        unique and totally ordered -- the property time-based isolation
        (Section VI-A) depends on.
        """
        with self._lock:
            self._clock += n
            return self._clock

    def restore_clock(self, value: int) -> None:
        """Reset the logical clock to a recovered value.

        Recovery code only (snapshot load, WAL replay): sets the clock so
        that post-restart timestamps continue strictly after every
        pre-crash timestamp.  Never lowers the clock below its current
        value -- time-based isolation depends on monotonicity.
        """
        with self._lock:
            self._clock = max(self._clock, int(value))

    # ------------------------------------------------------------------
    # Schema management
    def create_table(
        self,
        name: str,
        columns: Sequence[Column] | None = None,
        primary_key: str | None = None,
        unique: Iterable[Sequence[str] | str] = (),
        foreign_keys: Iterable[ForeignKey] = (),
        schema: TableSchema | None = None,
        if_not_exists: bool = False,
    ) -> Table:
        """Create a table from a schema or from column definitions."""
        with self._lock:
            if schema is None:
                if columns is None:
                    raise SchemaError("create_table needs columns or a schema")
                schema = TableSchema(
                    name,
                    columns,
                    primary_key=primary_key,
                    unique=unique,
                    foreign_keys=foreign_keys,
                )
            if schema.name in self._tables:
                if if_not_exists:
                    return self._tables[schema.name]
                raise SchemaError(f"table {schema.name!r} already exists")
            table = Table(schema, self.tick)
            self._tables[schema.name] = table
            self._plan_cache.clear()
            if self._ddl_hooks:
                self._notify_ddl("create", schema, schema.name)
            return table

    def drop_table(self, name: str, if_exists: bool = False) -> None:
        with self._lock:
            if name not in self._tables:
                if if_exists:
                    return
                raise UnknownTableError(f"no table named {name!r}")
            del self._tables[name]
            self._triggers.drop_for_table(name)
            self._plan_cache.clear()
            if self._ddl_hooks:
                self._notify_ddl("drop", None, name)

    def table(self, name: str) -> Table:
        try:
            return self._tables[name]
        except KeyError:
            raise UnknownTableError(f"no table named {name!r}") from None

    def has_table(self, name: str) -> bool:
        return name in self._tables

    def table_names(self) -> list[str]:
        return sorted(self._tables)

    # ------------------------------------------------------------------
    # Triggers
    def on(
        self,
        table: str,
        events: str | tuple[str, ...],
        fn: Callable[[ChangeSet], None],
        name: str | None = None,
    ) -> str:
        """Install a statement-level trigger; returns its name."""
        with self._lock:
            self.table(table)  # validate existence
            if name is None:
                self._trigger_counter += 1
                name = f"trg_{table}_{self._trigger_counter}"
            self._triggers.create(name, table, events, fn)
            return name

    def drop_trigger(self, name: str) -> None:
        with self._lock:
            self._triggers.drop(name)

    def trigger_names(self) -> list[str]:
        return self._triggers.names()

    # ------------------------------------------------------------------
    # Transactions
    def transaction(self) -> TransactionContext:
        """Context manager for an atomic statement batch."""
        return TransactionContext(self)

    def in_transaction(self) -> bool:
        return self._current_transaction is not None

    def _dispatch(self, change: ChangeSet) -> None:
        """Route a change set to triggers now, or defer to commit."""
        if change.is_empty():
            return
        transaction = self._current_transaction
        if transaction is not None:
            transaction.defer_triggers(change)
        else:
            # Auto-commit: the statement IS the transaction.  Durability
            # hooks run first -- write-ahead means the log records a
            # change before any downstream effect becomes observable.
            if self._commit_hooks:
                self._notify_commit([change])
            self._triggers.fire(change)

    # ------------------------------------------------------------------
    # Durability hooks
    def add_commit_hook(self, hook: Callable[[list[ChangeSet]], None]) -> None:
        """Register a hook receiving every committed statement batch.

        Hooks run once per commit -- with the single change set of an
        auto-committed statement, or with the ordered list of change
        sets of an explicit transaction -- *before* triggers fire.  A
        raising hook aborts the commit's downstream effects (triggers
        never observe a change the log refused), so hooks must only
        raise for genuine durability failures.
        """
        with self._lock:
            self._commit_hooks.append(hook)

    def remove_commit_hook(self, hook: Callable[[list[ChangeSet]], None]) -> None:
        with self._lock:
            if hook in self._commit_hooks:
                self._commit_hooks.remove(hook)

    def add_ddl_hook(self, hook: Callable[[str, TableSchema | None, str], None]) -> None:
        """Register a hook called as ``hook(op, schema, name)`` on DDL.

        ``op`` is ``"create"`` (schema given) or ``"drop"`` (schema None).
        """
        with self._lock:
            self._ddl_hooks.append(hook)

    def remove_ddl_hook(self, hook: Callable[[str, TableSchema | None, str], None]) -> None:
        with self._lock:
            if hook in self._ddl_hooks:
                self._ddl_hooks.remove(hook)

    def _notify_commit(self, changes: list[ChangeSet]) -> None:
        for hook in list(self._commit_hooks):
            hook(changes)

    def _notify_ddl(self, op: str, schema: TableSchema | None, name: str) -> None:
        for hook in list(self._ddl_hooks):
            hook(op, schema, name)

    # ------------------------------------------------------------------
    # Programmatic mutations
    def _write_span(self, op: str, table_name: str):
        """A ``db.write`` span for one mutation statement (obs enabled)."""
        return OBS.tracer.span("db.write", tags={"table": table_name, "op": op})

    def _record_write(self, op: str, table_name: str, span: Any, rows: int) -> None:
        span.set_tag("rows", rows)
        OBS.metrics.counter("db.writes", table=table_name, op=op).inc()

    def insert(self, table_name: str, values: Mapping[str, Any]) -> dict[str, Any]:
        """Insert one row; fires insert triggers; returns the stored row."""
        if OBS.enabled:
            with self._write_span("insert", table_name) as span:
                row = self._insert_impl(table_name, values)
                self._record_write("insert", table_name, span, 1)
                return row
        return self._insert_impl(table_name, values)

    def _insert_impl(self, table_name: str, values: Mapping[str, Any]) -> dict[str, Any]:
        with self._lock:
            table = self.table(table_name)
            row = table.insert(values)
            if self._current_transaction is not None:
                self._current_transaction.record_insert(table_name, row)
            change = ChangeSet(table_name, inserted=[row])
            self._dispatch(change)
            return row

    def insert_many(
        self, table_name: str, rows: Iterable[Mapping[str, Any]]
    ) -> list[dict[str, Any]]:
        """Insert many rows as ONE statement: triggers fire once.

        This is the write path the Figure-8 experiment exercises -- a batch
        of tuples arrives and a single statement-level trigger notification
        is emitted for the whole batch.
        """
        if OBS.enabled:
            with self._write_span("insert", table_name) as span:
                inserted = self._insert_many_impl(table_name, rows)
                self._record_write("insert", table_name, span, len(inserted))
                return inserted
        return self._insert_many_impl(table_name, rows)

    def _insert_many_impl(
        self, table_name: str, rows: Iterable[Mapping[str, Any]]
    ) -> list[dict[str, Any]]:
        with self._lock:
            # Statement atomicity is the table's: it validates the whole
            # batch before touching anything (see Table.insert_many).
            inserted = self.table(table_name).insert_many(rows)
            if self._current_transaction is not None:
                for row in inserted:
                    self._current_transaction.record_insert(table_name, row)
            self._dispatch(ChangeSet(table_name, inserted=inserted))
            return inserted

    def update(
        self,
        table_name: str,
        changes: Mapping[str, Any],
        where: Expression | None = None,
    ) -> int:
        """Update all rows matching ``where``; returns the affected count."""
        if OBS.enabled:
            with self._write_span("update", table_name) as span:
                count = self._update_impl(table_name, changes, where)
                self._record_write("update", table_name, span, count)
                return count
        return self._update_impl(table_name, changes, where)

    def _update_impl(
        self,
        table_name: str,
        changes: Mapping[str, Any],
        where: Expression | None = None,
    ) -> int:
        with self._lock:
            table = self.table(table_name)
            matching = matching_tids(table, where)
            updated: list[tuple[dict[str, Any], dict[str, Any]]] = []
            for tid in matching:
                before, after = table.update_row(tid, changes)
                updated.append((before, after))
                if self._current_transaction is not None:
                    self._current_transaction.record_update(table_name, before, after)
            self._dispatch(ChangeSet(table_name, updated=updated))
            return len(updated)

    def update_by_tid(
        self, table_name: str, tid: int, changes: Mapping[str, Any]
    ) -> dict[str, Any]:
        """Point update through the tid (used by sync write-back)."""
        if OBS.enabled:
            with self._write_span("update", table_name) as span:
                after = self._update_by_tid_impl(table_name, tid, changes)
                self._record_write("update", table_name, span, 1)
                return after
        return self._update_by_tid_impl(table_name, tid, changes)

    def _update_by_tid_impl(
        self, table_name: str, tid: int, changes: Mapping[str, Any]
    ) -> dict[str, Any]:
        with self._lock:
            table = self.table(table_name)
            before, after = table.update_row(tid, changes)
            if self._current_transaction is not None:
                self._current_transaction.record_update(table_name, before, after)
            self._dispatch(ChangeSet(table_name, updated=[(before, after)]))
            return after

    def delete(self, table_name: str, where: Expression | None = None) -> int:
        """Delete all rows matching ``where``; returns the affected count."""
        if OBS.enabled:
            with self._write_span("delete", table_name) as span:
                count = self._delete_impl(table_name, where)
                self._record_write("delete", table_name, span, count)
                return count
        return self._delete_impl(table_name, where)

    def _delete_impl(self, table_name: str, where: Expression | None = None) -> int:
        with self._lock:
            table = self.table(table_name)
            return self._delete_rows(table, matching_tids(table, where))

    def _delete_rows(self, table: Table, tids: Iterable[int]) -> int:
        """One DELETE statement over ``tids`` (distinct, all present)."""
        deleted = table.delete_many(tids)
        if self._current_transaction is not None:
            for row in deleted:
                self._current_transaction.record_delete(table.name, row)
        self._dispatch(ChangeSet(table.name, deleted=deleted))
        return len(deleted)

    def delete_by_tids(self, table_name: str, tids: Iterable[int]) -> int:
        """Delete specific rows by tid (used by deferred physical deletes)."""
        if OBS.enabled:
            with self._write_span("delete", table_name) as span:
                count = self._delete_by_tids_impl(table_name, tids)
                self._record_write("delete", table_name, span, count)
                return count
        return self._delete_by_tids_impl(table_name, tids)

    def _delete_by_tids_impl(self, table_name: str, tids: Iterable[int]) -> int:
        with self._lock:
            table = self.table(table_name)
            # Absent and repeated tids are skipped, as a loop would.
            present = [tid for tid in dict.fromkeys(tids) if tid in table]
            return self._delete_rows(table, present)

    # ------------------------------------------------------------------
    # SQL interface
    def execute(self, sql: str, params: Sequence[Any] = ()) -> Result:
        """Parse and run one SQL statement.

        ``?`` placeholders are bound to ``params`` positionally.  Parsed
        ASTs are cached on the SQL text, so a hot statement tokenizes
        once; parameter-free SELECT plans are cached too (see
        :mod:`repro.db.plancache`).
        """
        if OBS.enabled:
            return self._execute_traced(sql, params)
        return self._execute_impl(sql, params)

    def _execute_impl(self, sql: str, params: Sequence[Any] = ()) -> Result:
        """The uninstrumented fast path (``execute`` minus observability).

        Benchmarks call this directly as the no-obs baseline when
        asserting the disabled-instrumentation overhead stays negligible.
        """
        statement = self._statement_cache.get(sql)
        if statement is None:
            statement = parse(sql)
            self._statement_cache.put(sql, statement)
        if isinstance(statement, SelectStmt):
            with self._lock:
                plan = self._plan_cache.get(sql)
                if plan is None:
                    plan = plan_select(statement, self, params)
                    if plan_cachable(statement):
                        self._plan_cache.put(sql, plan)
                if self._lineage is not None:
                    captured = self._lineage.maybe_capture(sql, plan)
                    if captured is not None:
                        return Result(rows=captured)
                return Result(rows=plan.to_list(self))
        return self.execute_statement(statement, params)

    def _execute_traced(self, sql: str, params: Sequence[Any]) -> Result:
        """``execute`` with per-statement spans and cache-hit counters."""
        metrics = OBS.metrics
        statement = self._statement_cache.get(sql)
        if statement is None:
            metrics.counter("db.statement_cache", result="miss").inc()
            statement = parse(sql)
            self._statement_cache.put(sql, statement)
        else:
            metrics.counter("db.statement_cache", result="hit").inc()
        kind = type(statement).__name__.removesuffix("Stmt").lower()
        select_plan = None
        with OBS.tracer.span("db.execute", tags={"kind": kind}) as span:
            if isinstance(statement, SelectStmt):
                with self._lock:
                    plan = self._plan_cache.get(sql)
                    if plan is None:
                        metrics.counter("db.plan_cache", result="miss").inc()
                        plan = plan_select(statement, self, params)
                        if plan_cachable(statement):
                            self._plan_cache.put(sql, plan)
                    else:
                        metrics.counter("db.plan_cache", result="hit").inc()
                    span.set_tag("access", plan_access_kind(plan))
                    select_plan = plan
                    captured = (
                        self._lineage.maybe_capture(sql, plan)
                        if self._lineage is not None
                        else None
                    )
                    if captured is not None:
                        span.set_tag("lineage", True)
                        result = Result(rows=captured)
                    else:
                        result = Result(rows=plan.to_list(self))
                    span.set_tag("rows", len(result.rows))
            else:
                result = self.execute_statement(statement, params)
                span.set_tag("rows", result.rowcount)
        metrics.counter("db.statements", kind=kind).inc()
        metrics.histogram("db.execute_ms", kind=kind).observe(span.duration_ms)
        if self._slowlog is not None:
            self._slowlog.maybe_record_query(sql, span, select_plan)
        return result

    def query(self, sql: str, params: Sequence[Any] = ()) -> list[dict[str, Any]]:
        """Shorthand: run a SELECT and return its rows."""
        return self.execute(sql, params).rows

    def cache_info(self) -> dict[str, dict[str, int]]:
        """Hit/miss/size counters for the statement and plan caches."""
        return {
            "statements": self._statement_cache.info(),
            "plans": self._plan_cache.info(),
        }

    def install_metrics(self, registry: Any = None) -> None:
        """Expose this database's cache counters as live gauges.

        Folds :meth:`cache_info` into the observability registry (the
        process-wide one by default) as callable gauges evaluated at
        snapshot/dump time, labelled by database name.  Idempotent per
        (registry, db-name) because gauge registration replaces the
        series.
        """
        registry = registry if registry is not None else OBS.metrics

        def reader(section: str, field: str):
            return lambda: self.cache_info()[section][field]

        for section in ("statements", "plans"):
            for metric_field in ("hits", "misses", "size"):
                registry.gauge_fn(
                    f"db.cache.{section}.{metric_field}",
                    reader(section, metric_field),
                    db=self.name,
                )

    def execute_statement(self, statement: Statement, params: Sequence[Any] = ()) -> Result:
        with self._lock:
            if isinstance(statement, SelectStmt):
                plan = plan_select(statement, self, params)
                return Result(rows=plan.to_list(self))
            if isinstance(statement, ExplainStmt):
                return self._execute_explain(statement, params)
            if isinstance(statement, InsertStmt):
                return self._execute_insert(statement, params)
            if isinstance(statement, UpdateStmt):
                return self._execute_update(statement, params)
            if isinstance(statement, DeleteStmt):
                return self._execute_delete(statement, params)
            if isinstance(statement, CreateTableStmt):
                return self._execute_create(statement)
            if isinstance(statement, DropTableStmt):
                self.drop_table(statement.table, if_exists=statement.if_exists)
                return Result()
            raise DatabaseError(f"unsupported statement {statement!r}")

    def plan(self, sql: str, params: Sequence[Any] = ()) -> Plan:
        """Compile a SELECT to an algebra plan without executing it."""
        statement = parse(sql)
        if not isinstance(statement, SelectStmt):
            raise DatabaseError("plan() accepts SELECT statements only")
        return plan_select(statement, self, params)

    def explain(
        self, sql: str, params: Sequence[Any] = (), analyze: bool = False
    ) -> str:
        """Human-readable plan tree for a SELECT (EXPLAIN-style).

        With ``analyze=True`` the query is actually executed through row
        counters and each operator line gains a ``(rows=N)`` suffix --
        the SQL forms ``EXPLAIN SELECT ...`` / ``EXPLAIN ANALYZE SELECT
        ...`` return the same text one line per row.
        """
        plan = self.plan(sql, params)
        if not analyze:
            return format_plan(plan)
        instrumented, counters = instrument_plan(plan)
        if OBS.enabled:
            with OBS.tracer.span(
                "db.explain", tags={"analyze": True}
            ) as span:
                with self._lock:
                    for _ in instrumented.rows(self):
                        pass
                self._annotate_explain_span(span, plan, counters)
        else:
            with self._lock:
                for _ in instrumented.rows(self):
                    pass
        return format_plan(plan, counters=counters)

    @staticmethod
    def _annotate_explain_span(
        span: Any, plan: Plan, counters: dict[int, int]
    ) -> None:
        """Attach EXPLAIN ANALYZE operator counters to ``span``.

        One event per operator, in ``format_plan`` line order with the
        exact same labels, so the span-level view of the query agrees
        with the printed plan (and persists to ``sys_span_events``).
        """
        operators = operator_rows(plan, counters)
        span.set_tag("operators", len(operators))
        for index, (label, rows) in enumerate(operators):
            span.add_event(
                "explain.operator", index=index, operator=label, rows=rows
            )

    def _execute_explain(self, stmt: ExplainStmt, params: Sequence[Any]) -> Result:
        plan = plan_select(stmt.select, self, params)
        if stmt.lineage:
            return self._execute_explain_lineage(plan)
        if stmt.analyze:
            instrumented, counters = instrument_plan(plan)
            for _ in instrumented.rows(self):
                pass
            text = format_plan(plan, counters=counters)
            if OBS.enabled:
                # EXPLAIN ANALYZE through SQL runs inside the db.execute
                # statement span; hang the counters off it.
                span = OBS.tracer.current_span()
                if span is not None:
                    self._annotate_explain_span(span, plan, counters)
        else:
            text = format_plan(plan)
        return Result(rows=[{"plan": line} for line in text.splitlines()])

    def _execute_explain_lineage(self, plan: Plan) -> Result:
        """EXPLAIN LINEAGE: run the query with capture, one row per edge.

        Works whether or not :meth:`enable_lineage` has been called --
        capture here is explicit and unconditional, and nothing is
        persisted (use ``enable_lineage`` + sampling for that).
        """
        from ..lineage.capture import capture_plan

        rows, lins = capture_plan(plan, self)
        out: list[dict[str, Any]] = []
        for out_row, pairs in enumerate(lins):
            for src_table, src_tid in pairs:
                out.append(
                    {
                        "out_row": out_row,
                        "src_table": src_table,
                        "src_tid": src_tid,
                    }
                )
        return Result(rows=out)

    # -- statement executors --------------------------------------------
    def _execute_insert(self, stmt: InsertStmt, params: Sequence[Any]) -> Result:
        table = self.table(stmt.table)
        columns = stmt.columns or table.schema.column_names
        scope = _Scope(self, params)
        rows_to_insert: list[dict[str, Any]] = []
        if stmt.select is not None:
            select_rows = plan_select(stmt.select, self, params).to_list(self)
            for src in select_rows:
                if stmt.columns:
                    values = list(src.values())
                    if len(values) != len(columns):
                        raise DatabaseError(
                            "INSERT ... SELECT column count mismatch: "
                            f"{len(columns)} target(s), {len(values)} value(s)"
                        )
                    rows_to_insert.append(dict(zip(columns, values)))
                else:
                    rows_to_insert.append(
                        {k: v for k, v in src.items() if k not in HIDDEN_FIELDS}
                    )
        else:
            for value_tuple in stmt.rows:
                if len(value_tuple) != len(columns):
                    raise DatabaseError(
                        f"INSERT column count mismatch: {len(columns)} "
                        f"column(s), {len(value_tuple)} value(s)"
                    )
                rows_to_insert.append(
                    {
                        column: lower_expr(expr, scope).eval({})
                        for column, expr in zip(columns, value_tuple)
                    }
                )
        inserted = self.insert_many(stmt.table, rows_to_insert)
        return Result(rowcount=len(inserted))

    def _execute_update(self, stmt: UpdateStmt, params: Sequence[Any]) -> Result:
        # SET expressions evaluate per row, so this path cannot delegate
        # to update(); it gets the same db.write span independently.
        if OBS.enabled:
            with self._write_span("update", stmt.table) as span:
                result = self._execute_update_impl(stmt, params)
                self._record_write("update", stmt.table, span, result.rowcount)
                return result
        return self._execute_update_impl(stmt, params)

    def _execute_update_impl(self, stmt: UpdateStmt, params: Sequence[Any]) -> Result:
        scope = _Scope(self, params)
        scope.add_table(stmt.table, None)
        where = lower_expr(stmt.where, scope) if stmt.where is not None else None
        table = self.table(stmt.table)
        # Assignments may reference the row (SET x = x + 1), so evaluate
        # per row before applying.
        assignment_exprs = [
            (name, lower_expr(expr, scope)) for name, expr in stmt.assignments
        ]
        matching = matching_tids(table, where)
        updated: list[tuple[dict[str, Any], dict[str, Any]]] = []
        for tid in matching:
            row = table.get(tid)
            assert row is not None
            changes = {name: expr.eval(row) for name, expr in assignment_exprs}
            before, after = table.update_row(tid, changes)
            updated.append((before, after))
            if self._current_transaction is not None:
                self._current_transaction.record_update(stmt.table, before, after)
        self._dispatch(ChangeSet(stmt.table, updated=updated))
        return Result(rowcount=len(updated))

    def _execute_delete(self, stmt: DeleteStmt, params: Sequence[Any]) -> Result:
        scope = _Scope(self, params)
        scope.add_table(stmt.table, None)
        where = lower_expr(stmt.where, scope) if stmt.where is not None else None
        count = self.delete(stmt.table, where)
        return Result(rowcount=count)

    def _execute_create(self, stmt: CreateTableStmt) -> Result:
        columns: list[Column] = []
        primary_key: str | None = None
        unique: list[str] = []
        foreign_keys: list[ForeignKey] = []
        for cdef in stmt.columns:
            columns.append(
                Column(
                    name=cdef.name,
                    type=type_from_name(cdef.type_name),
                    nullable=not (cdef.not_null or cdef.primary_key),
                )
            )
            if cdef.primary_key:
                if primary_key is not None:
                    raise SchemaError("multiple PRIMARY KEY columns")
                primary_key = cdef.name
            if cdef.unique:
                unique.append(cdef.name)
            if cdef.references is not None:
                foreign_keys.append(
                    ForeignKey(cdef.name, cdef.references[0], cdef.references[1])
                )
        self.create_table(
            stmt.table,
            columns,
            primary_key=primary_key,
            unique=unique,
            foreign_keys=foreign_keys,
            if_not_exists=stmt.if_not_exists,
        )
        return Result()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Database {self.name!r} tables={self.table_names()}>"
