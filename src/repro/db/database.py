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
from ..obs.trace import NULL_SPAN
from .algebra import (
    Bound,
    Plan,
    TableProvider,
    format_plan,
    instrument_plan,
    operator_rows,
    plan_access_kind,
)
from .expression import Binding, Expression
from .plancache import LRUCache, param_count, plan_cachable
from .routing import matching_tids
from .schema import HIDDEN_FIELDS, TID, Column, ForeignKey, TableSchema
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
from .table import ChangeSet, DeltaCoalescer, Table
from .transactions import Transaction, TransactionContext
from .triggers import Subscription, TriggerManager
from .types import type_from_name
from .vector import running_plan


class Result:
    """Outcome of one statement.

    For SELECT: ``rows`` holds the result (list of dicts).  For mutations:
    ``rowcount`` is the number of affected rows, ``rows`` is empty and
    ``change`` is the statement's :class:`ChangeSet` (the one its commit
    and triggers saw; read it, never change it).
    """

    def __init__(
        self,
        rows: list[dict[str, Any]] | None = None,
        rowcount: int = 0,
        change: ChangeSet | None = None,
    ) -> None:
        self.rows = rows if rows is not None else []
        self.rowcount = rowcount
        self.change = change

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
        self._clock = 0
        self._lock = threading.RLock()
        self._triggers = TriggerManager(self._lock, self._commit)
        self._current_transaction: Transaction | None = None
        # The commit being made (see _commit): its ordered change sets
        # while its triggers fire, and the effects they deferred.
        self._committing: list[ChangeSet] | None = None
        self._deferred: list[tuple[Callable[..., None], tuple[Any, ...]]] = []
        self._trigger_counter = 0
        # Durability hooks (see repro.db.durability): commit hooks see
        # every commit's whole change list once its triggers have run;
        # DDL hooks see create/drop table.  Empty lists cost one truth
        # test per statement.
        self._commit_hooks: list[Callable[[list[ChangeSet]], None]] = []
        self._ddl_hooks: list[Callable[[str, TableSchema | None, str], None]] = []
        # SQL fast path: text -> AST (never invalidated) and text -> plan
        # (evicted on DDL); see repro.db.plancache for the cachability rules.
        self._statement_cache = LRUCache(capacity=512)
        self._plan_cache = LRUCache(capacity=256)
        # Lineage capture (repro.lineage).  Off by default -- queries pay
        # nothing until enable_lineage() installs a manager.
        self._lineage: Any = None
        # Slow-path attributor (repro.obs.slowlog).  Off by default --
        # traced statements pay one attribute check until
        # enable_slowlog() installs a log.
        self._slowlog: Any = None
        #: ``"table.column"`` -> id counter: one set of sequences per
        #: database, shared by every ``repro.core.datamodel.IdAllocator``.
        self.sequences: dict[str, Iterator[int]] = {}

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
        with self._lock, Binding(params):
            return self._lineage_manager().capture(sql, self._select_plan(sql, params))

    def _lineage_manager(self) -> Any:
        if self._lineage is None:
            raise DatabaseError(
                "lineage capture is disabled; call enable_lineage() first"
            )
        return self._lineage

    def backward_lineage(self, view_name: str, key: Any) -> set[tuple[str, Any]]:
        """Base ``(table, tid)`` pairs behind one output key of a
        lineage-enabled IVM view ("why is this group here")."""
        return self._lineage_manager().backward(view_name, key)

    def forward_lineage(
        self, table: str, tids: Iterable[Any]
    ) -> dict[str, set[Any]]:
        """Which outputs of every lineage-enabled view do these base
        tuples feed ("where did this row go")."""
        return self._lineage_manager().forward(table, tids)

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

        Every inserted row takes one tick (a multi-row statement reserves
        its ``n`` here in one step), so creation timestamps are unique and
        totally ordered -- the property time-based isolation (Section
        VI-A) depends on.
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

    def subscribe(
        self, table: str, deliver: Callable[[ChangeSet], Any], name: str
    ) -> Subscription:
        """Install ``deliver`` as a consumer of ``table``'s changes: a
        trigger named ``name`` on every event, whose handle carries the
        edge's Section V policy (immediate until ``set_policy``)."""
        with self._lock:
            self.table(table)  # validate existence
            return self._triggers.subscribe(name, table, deliver)

    def appender(self, table_name: str) -> Callable[[list[dict[str, Any]]], None]:
        """Claim ``table_name`` as a log; returns its write path.
        ``append(rows)``, called in a commit's trigger phase, stores rows
        its one writer built (unchecked, see :meth:`Table.append`) and
        joins them to that commit, after its triggers, as one change set.
        So a log takes no trigger: :meth:`on` and :meth:`subscribe`
        refuse it."""
        with self._lock:
            self._triggers.claim_log(table_name)

        def append(rows: list[dict[str, Any]]) -> None:
            with self._lock:
                change = ChangeSet(table_name, self.table(table_name).append(rows))
                self._committing.append(change)

        return append

    def subscriptions(self, table: str | None = None) -> list[Subscription]:
        """Every consumer's edge out of ``table`` (``None``: every table)."""
        with self._lock:
            return self._triggers.subscriptions(table)

    # ------------------------------------------------------------------
    # Transactions
    def transaction(self) -> TransactionContext:
        """Context manager for an atomic statement batch."""
        return TransactionContext(self)

    def in_transaction(self) -> bool:
        return self._current_transaction is not None

    def _dispatch(self, span: Any, op: str, change: ChangeSet) -> None:
        """Finish one mutation statement: commit it (inside a transaction
        block, when the block exits), then its ``db.write`` span."""
        if not change.is_empty():
            transaction = self._current_transaction
            if transaction is not None:
                transaction.changes.append(change)
            else:
                # Auto-commit: the statement IS the transaction.
                self._commit([change])
        if OBS.enabled:
            span.set_tag(
                "rows",
                len(change.inserted) + len(change.updated) + len(change.deleted),
            )
            OBS.metrics.counter("db.writes", table=change.table, op=op).inc()

    def _commit(
        self,
        changes: list[ChangeSet],
        trigger_phase: Callable[[], None] | None = None,
    ) -> None:
        """The one commit routine: an auto-committed statement's change
        set (a list of one) or a transaction's, in statement order -- or
        a policy flush's ``[]``, whose trigger phase is its delivery.

        Three phases, under the database lock.  *Trigger phase*: the
        commit's triggers fire, and every database write they make -- a
        nested call of this routine -- joins ``changes`` instead of
        committing on its own.  *Log*: the commit hooks see the whole
        list once (user rows, then the rows their triggers wrote).
        *Publish*: the effects triggers handed to :meth:`after_commit`
        run, so nothing leaves the database ahead of its log record.  A
        raising trigger (AFTER semantics) still leaves the commit logged,
        with whatever the triggers had written, and published.
        """
        outer = self._committing
        if outer is None:
            self._committing = changes
        else:
            outer.extend(changes)  # a trigger's own write joins its commit
        try:
            if trigger_phase is not None:
                trigger_phase()
            elif len(changes) == 1:
                self._triggers.fire(changes[0])
            else:
                self._fire_net(changes)
        finally:
            if outer is None:
                self._committing = None
                for change in changes:  # a statement's tids ascend
                    table = self._tables.get(change.table)
                    if change.inserted and table is not None:
                        last = change.inserted[-1][TID]
                        table.named_tids = max(table.named_tids, last)
                effects = self._deferred
                if effects:
                    self._deferred = []
                if self._commit_hooks and changes:
                    self._notify_commit(changes)
                for effect, args in effects:
                    effect(*args)

    def _fire_net(self, changes: list[ChangeSet]) -> None:
        """Several statements are a propagation window: each table's
        triggers see its net delta, once (the log keeps the statements --
        redoing a netted delete and re-insert of one key would not be
        order-safe)."""
        by_table: dict[str, list[ChangeSet]] = {}
        for change in changes:
            by_table.setdefault(change.table, []).append(change)
        for table, statements in by_table.items():
            net = statements[0]
            if len(statements) > 1:
                coalescer = DeltaCoalescer(table)
                for change in statements:
                    coalescer.add(change)
                net = coalescer.net_changeset()
            self._triggers.fire(net)

    def after_commit(self, effect: Callable[..., None], *args: Any) -> None:
        """Run ``effect(*args)`` once the commit being made is logged --
        at once when none is.  For what a trigger makes visible outside
        the database (a NOTIFY): write-ahead means the log comes first.
        """
        with self._lock:
            if self._committing is not None:
                self._deferred.append((effect, args))
                return
        effect(*args)

    # ------------------------------------------------------------------
    # Durability hooks
    def add_commit_hook(self, hook: Callable[[list[ChangeSet]], None]) -> None:
        """Register a hook receiving every commit's whole change list.

        Hooks run once per commit -- an auto-committed statement or an
        explicit transaction -- with its change sets in statement order
        followed by those its triggers wrote, *after* the triggers and
        before anything they deferred is published.  A raising hook
        drops those effects (no NOTIFY for a change the log refused), so
        hooks must only raise for genuine durability failures.
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
    # Programmatic mutations: each is one statement -- a ``db.write``
    # span around the lock, the table call, then _dispatch.
    def insert(self, table_name: str, values: Mapping[str, Any]) -> dict[str, Any]:
        """Insert one row; fires insert triggers; returns the stored row."""
        span = OBS.span("db.write", {"table": table_name, "op": "insert"})
        with span, self._lock:
            row = self.table(table_name).insert(values)
            self._dispatch(span, "insert", ChangeSet(table_name, inserted=[row]))
            return row

    def insert_many(
        self, table_name: str, rows: Iterable[Mapping[str, Any]]
    ) -> list[dict[str, Any]]:
        """Insert many rows as ONE statement: triggers fire once.

        This is the write path the Figure-8 experiment exercises -- a batch
        of tuples arrives and a single statement-level trigger notification
        is emitted for the whole batch.
        """
        return self._insert_rows(table_name, rows).inserted

    def _insert_rows(
        self, table_name: str, rows: Iterable[Mapping[str, Any]]
    ) -> ChangeSet:
        """One INSERT statement; returns its change set."""
        span = OBS.span("db.write", {"table": table_name, "op": "insert"})
        with span, self._lock:
            # Statement atomicity is the table's: it validates the whole
            # batch before touching anything (see Table.insert_many).
            inserted = self.table(table_name).insert_many(rows)
            change = ChangeSet(table_name, inserted=inserted)
            self._dispatch(span, "insert", change)
            return change

    def update(
        self,
        table_name: str,
        changes: Mapping[str, Any],
        where: Expression | None = None,
    ) -> int:
        """Update all rows matching ``where``; returns the affected count."""
        return len(
            self._update_rows(
                table_name,
                lambda table: dict.fromkeys(matching_tids(table, where), changes),
            ).updated
        )

    def update_by_tid(
        self, table_name: str, tid: int, changes: Mapping[str, Any]
    ) -> dict[str, Any]:
        """Point update through the tid (used by sync write-back)."""
        return self._update_rows(table_name, {tid: changes}).updated[0][1]

    def update_by_tids(
        self, table_name: str, changes_by_tid: Mapping[int, Mapping[str, Any]]
    ) -> int:
        """Update specific rows by tid, each with its own change map, as
        ONE statement; returns the affected count.  Every tid must be
        present, as :meth:`update_by_tid` demands of its one."""
        return len(self._update_rows(table_name, changes_by_tid).updated)

    def _update_rows(
        self,
        table_name: str,
        changes: Mapping[int, Mapping[str, Any]]
        | Callable[[Table], Mapping[int, Mapping[str, Any]]],
    ) -> ChangeSet:
        """One UPDATE statement applying ``changes`` (tid -> change map, or
        a function of the table that finds them under the statement's
        lock); returns its change set."""
        span = OBS.span("db.write", {"table": table_name, "op": "update"})
        with span, self._lock:
            table = self.table(table_name)
            if callable(changes):
                changes = changes(table)
            # Statement atomicity is the table's: it validates the whole
            # statement before touching anything (see Table.update_many).
            change = ChangeSet(table_name, updated=table.update_many(changes))
            self._dispatch(span, "update", change)
            return change

    def delete(self, table_name: str, where: Expression | None = None) -> int:
        """Delete all rows matching ``where``; returns the affected count."""
        return len(
            self._delete_rows(
                table_name, lambda table: matching_tids(table, where)
            ).deleted
        )

    def delete_by_tids(self, table_name: str, tids: Iterable[int]) -> int:
        """Delete specific rows by tid (used by deferred physical deletes)."""
        # Absent and repeated tids are skipped, as a loop would.
        return len(
            self._delete_rows(
                table_name,
                lambda table: [tid for tid in dict.fromkeys(tids) if tid in table],
            ).deleted
        )

    def _delete_rows(
        self, table_name: str, tids_of: Callable[[Table], Iterable[int]]
    ) -> ChangeSet:
        """One DELETE statement over ``tids_of(table)`` (distinct, all
        present); returns its change set."""
        span = OBS.span("db.write", {"table": table_name, "op": "delete"})
        with span, self._lock:
            table = self.table(table_name)
            change = ChangeSet(table_name, deleted=table.delete_many(tids_of(table)))
            self._dispatch(span, "delete", change)
            return change

    # ------------------------------------------------------------------
    # SQL interface.  Every statement takes one path: prepare (text ->
    # AST -> plan, through the caches), then run under a span.
    def execute(self, sql: str, params: Sequence[Any] = ()) -> Result:
        """Parse and run one SQL statement.

        ``?`` placeholders are bound to ``params`` positionally.  Parsed
        ASTs are cached on the SQL text, so a hot statement tokenizes
        once, and so are SELECT plans: a ``?`` is a slot each execution
        binds, so one plan serves every binding -- except where planning
        itself reads a value (``IN (SELECT ...)``, ``IN (?, ...)``,
        ``LIMIT ?``; see :mod:`repro.db.plancache`).
        """
        return self.execute_from(self, sql, params)

    def execute_from(
        self, source: TableProvider, sql: str, params: Sequence[Any] = ()
    ) -> Result:
        """:meth:`execute`, with SELECTs reading their tables from ``source``
        -- this database, or a filtered view of it (workflow isolation
        hands in a per-instance snapshot).  Other statements act on the
        database whatever the source.

        The one statement path: prepare, then run under a ``db.execute``
        span -- the shared no-op while tracing is off -- with ``params``
        bound for the whole statement.
        """
        traced = OBS.enabled
        span = OBS.tracer.span("db.execute") if traced else NULL_SPAN
        with span, self._lock, Binding(params):
            statement, plan = self._prepare(sql, params, source)
            if traced:
                kind = type(statement).__name__.removesuffix("Stmt").lower()
                span.set_tag("kind", kind)
            if plan is None:
                result = self._run(statement, params, span)
            else:
                # The lineage probe: every Nth SELECT is run with capture.
                lineage = self._lineage if source is self else None
                rows = lineage.maybe_capture(sql, plan) if lineage is not None else None
                if traced:
                    span.set_tag("access", plan_access_kind(running_plan(plan, source)))
                    if rows is not None:
                        span.set_tag("lineage", True)
                if rows is None:
                    rows = plan.to_list(source)
                result = Result(rows=rows)
            if traced:
                span.set_tag("rows", result.rowcount if plan is None else len(rows))
        if traced:
            OBS.metrics.counter("db.statements", kind=kind).inc()
            OBS.metrics.histogram("db.execute_ms", kind=kind).observe(span.duration_ms)
            if self._slowlog is not None:
                self._slowlog.maybe_record_query(
                    sql,
                    span,
                    None
                    if plan is None
                    else lambda: operator_rows(*self._analyze(plan, source, params)),
                )
        return result

    def query(self, sql: str, params: Sequence[Any] = ()) -> list[dict[str, Any]]:
        """Shorthand: run a SELECT and return its rows."""
        return self.execute(sql, params).rows

    def statement(self, sql: str) -> Statement:
        """The parsed form of ``sql``, through the statement cache."""
        return self._prepare(sql)[0]

    def _prepare(
        self,
        sql: str,
        params: Sequence[Any] = (),
        source: TableProvider | None = None,
    ) -> tuple[Statement, Plan | None]:
        """SQL text -> ``(AST, plan)``, through both caches.

        The plan is made only for a SELECT with a ``source`` to read, and
        cached only when that is the database itself (what a snapshot
        shows differs per caller).  A cached plan's ``?`` slots are bound
        by whoever runs it; it is never re-planned for new values.
        Planning reads tables -- index sizes, ``IN (SELECT ...)``
        materialisation -- so the caller holds the lock.
        """
        statement = self._statement_cache.get(sql)
        if statement is None:
            statement = parse(sql)
            self._statement_cache.put(sql, statement)
        if source is None or not isinstance(statement, SelectStmt):
            return statement, None
        if source is not self:
            return statement, self._plan(statement, params, source)
        cached = self._plan_cache.get(sql)
        if cached is None:
            return statement, self._plan(statement, params, self, cache_as=sql)
        plan, slots = cached
        if len(params) < slots:
            # Too few values: planning raises the error a fresh plan would.
            self._plan(statement, params, self)
        return statement, plan

    def _plan(
        self,
        select: SelectStmt,
        params: Sequence[Any],
        source: TableProvider,
        cache_as: str | None = None,
    ) -> Plan:
        """Plan one SELECT -- every plan the database runs is made here.

        ``cache_as`` is the statement's own SQL text (the inner SELECT of
        EXPLAIN or INSERT ... SELECT has none) to remember the plan under.
        """
        plan = plan_select(select, source, params)
        if cache_as is not None and plan_cachable(select):
            self._plan_cache.put(cache_as, (plan, param_count(select)))
        return plan

    def _run(self, statement: Statement, params: Sequence[Any], span: Any) -> Result:
        """Run one statement that is not a SELECT under ``span`` (the
        caller holds the lock)."""
        if isinstance(statement, ExplainStmt):
            return self._execute_explain(statement, params, span)
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

    def plan(self, sql: str, params: Sequence[Any] = ()) -> Plan:
        """Compile a SELECT to an algebra plan without executing it.

        With ``params`` the (shared) plan comes wrapped in a
        :class:`~repro.db.algebra.Bound` that runs it with those values.
        """
        with self._lock:
            plan = self._select_plan(sql, params)
        return Bound(plan, params) if params else plan

    def _select_plan(self, sql: str, params: Sequence[Any]) -> Plan:
        """The plan of a SELECT, through the caches (the caller holds the
        lock, and binds ``params`` to run it)."""
        plan = self._prepare(sql, params, self)[1]
        if plan is None:
            raise DatabaseError("plan() accepts SELECT statements only")
        return plan

    def explain(
        self, sql: str, params: Sequence[Any] = (), analyze: bool = False
    ) -> str:
        """Human-readable plan tree for a SELECT (EXPLAIN-style).

        With ``analyze=True`` the query is actually executed through row
        counters and each operator line gains a ``(rows=N)`` suffix --
        the SQL forms ``EXPLAIN SELECT ...`` / ``EXPLAIN ANALYZE SELECT
        ...`` return the same text one line per row.
        """
        span = OBS.span("db.explain", {"analyze": True}) if analyze else NULL_SPAN
        with span, self._lock:
            plan = self._select_plan(sql, params)
            return self._explain(plan, params, span, analyze)

    def _analyze(
        self, plan: Plan, source: TableProvider, params: Sequence[Any]
    ) -> tuple[Plan, dict[int, int]]:
        """Execute ``plan`` with ``params`` bound, under per-operator row
        counters; returns it as it ran against ``source`` (engine
        resolved) with the counters."""
        with self._lock, Binding(params):
            plan = running_plan(plan, source)
            instrumented, counters = instrument_plan(plan)
            for _ in instrumented.rows(source):
                pass
        return plan, counters

    def _explain(
        self, plan: Plan, params: Sequence[Any], span: Any, analyze: bool
    ) -> str:
        """EXPLAIN [ANALYZE] text of ``plan`` on the engine that runs now.

        ANALYZE also hangs the counters off ``span``: one event per
        operator, in ``format_plan`` line order with the same labels, so
        the span-level view (``sys_span_events``) matches the printed plan.
        """
        if not analyze:
            return format_plan(running_plan(plan, self))
        plan, counters = self._analyze(plan, self, params)
        operators = operator_rows(plan, counters)
        span.set_tag("operators", len(operators))
        for index, (label, rows) in enumerate(operators):
            span.add_event(
                "explain.operator", index=index, operator=label, rows=rows
            )
        return format_plan(plan, counters=counters)

    def _execute_explain(
        self, stmt: ExplainStmt, params: Sequence[Any], span: Any
    ) -> Result:
        plan = self._prepare(stmt.sql, params, self)[1]
        assert plan is not None
        if stmt.lineage:
            return self._execute_explain_lineage(plan)
        text = self._explain(plan, params, span, stmt.analyze)
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
            select_rows = self._plan(stmt.select, params, self).to_list(self)
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
        change = self._insert_rows(stmt.table, rows_to_insert)
        return Result(rowcount=len(change.inserted), change=change)

    def _execute_update(self, stmt: UpdateStmt, params: Sequence[Any]) -> Result:
        scope = _Scope(self, params)
        scope.add_table(stmt.table, None)
        where = lower_expr(stmt.where, scope) if stmt.where is not None else None
        # Assignments may reference the row (SET x = x + 1): each row's are
        # evaluated against its before-image, ahead of any write.
        assignments = [
            (name, lower_expr(expr, scope)) for name, expr in stmt.assignments
        ]
        change = self._update_rows(
            stmt.table,
            lambda table: {
                row[TID]: {name: expr.eval(row) for name, expr in assignments}
                for row in map(table.get, matching_tids(table, where))
            },
        )
        return Result(rowcount=len(change.updated), change=change)

    def _execute_delete(self, stmt: DeleteStmt, params: Sequence[Any]) -> Result:
        scope = _Scope(self, params)
        scope.add_table(stmt.table, None)
        where = lower_expr(stmt.where, scope) if stmt.where is not None else None
        change = self._delete_rows(
            stmt.table, lambda table: matching_tids(table, where)
        )
        return Result(rowcount=len(change.deleted), change=change)

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
