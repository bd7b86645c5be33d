"""Lowering of SQL ASTs to executable algebra plans.

The planner binds column references against the tables in scope, lowers
SQL expressions to :mod:`repro.db.expression` trees, evaluates ``IN
(SELECT ...)`` subqueries eagerly into materialized sets (the exact shape
EdiFlow's isolation rewriting produces, Section VI-A of the paper), and
assembles the operator tree:

    Scan -> [joins] -> Select -> (Aggregate | Project) -> Distinct
         -> Sort -> Limit -> [Union/Except]
"""

from __future__ import annotations

import re
from typing import Any, Sequence

from ...errors import DatabaseError, SQLSyntaxError
from ..algebra import (
    AggSpec,
    Aggregate,
    Difference,
    Distinct,
    HashJoin,
    KeepAll,
    Limit,
    Plan,
    Project,
    Scan,
    Select,
    Sort,
    Union,
)
from ..expression import (
    And,
    Arithmetic,
    Binding,
    ColumnRef,
    Comparison,
    Expression,
    FunctionCall,
    InList,
    InSet,
    IsNull,
    Lambda,
    Literal,
    Negate,
    Not,
    Or,
    Param,
    too_few_params,
)
from .ast import (
    AGGREGATE_FUNCS,
    OrderItem,
    SelectItem,
    SelectStmt,
    SqlBetween,
    SqlBinary,
    SqlCall,
    SqlColumn,
    SqlExpr,
    SqlIn,
    SqlIsNull,
    SqlLike,
    SqlLiteral,
    SqlParam,
    SqlUnary,
    contains_aggregate,
)


class _Scope:
    """Column-resolution scope: tables visible to the current SELECT."""

    def __init__(self, database: Any, params: Sequence[Any]) -> None:
        self.database = database
        self.params = params
        # alias -> table name; insertion order = join order
        self.tables: dict[str, str] = {}

    def add_table(self, name: str, alias: str | None) -> str:
        table = self.database.table(name)  # raises UnknownTableError
        key = alias or name
        if key in self.tables:
            raise SQLSyntaxError(f"duplicate table alias {key!r}")
        self.tables[key] = table.name
        return key

    def resolve(self, column: SqlColumn) -> str:
        """Return the row-dict key for a column reference."""
        if column.table is not None:
            if column.table not in self.tables:
                raise SQLSyntaxError(
                    f"unknown table alias {column.table!r} for column {column.name!r}"
                )
            if len(self.tables) == 1:
                # Single table in scope: rows carry plain keys.
                return column.name
            return f"{column.table}.{column.name}"
        return column.name

    def columns_of(self, alias: str) -> tuple[str, ...]:
        table = self.database.table(self.tables[alias])
        return table.schema.column_names


_LIKE_CACHE: dict[str, re.Pattern[str]] = {}


def _like_regex(pattern: str) -> re.Pattern[str]:
    compiled = _LIKE_CACHE.get(pattern)
    if compiled is None:
        regex = "".join(
            ".*" if ch == "%" else "." if ch == "_" else re.escape(ch)
            for ch in pattern
        )
        compiled = re.compile(f"^{regex}$", re.IGNORECASE)
        _LIKE_CACHE[pattern] = compiled
    return compiled


def lower_expr(expr: SqlExpr, scope: _Scope) -> Expression:
    """Lower a SQL expression AST to an evaluable Expression."""
    if isinstance(expr, SqlLiteral):
        return Literal(expr.value)
    if isinstance(expr, SqlParam):
        # A slot, not the value: the plan is the same for every binding.
        if expr.index >= len(scope.params):
            raise too_few_params(expr.index, len(scope.params))
        return Param(expr.index)
    if isinstance(expr, SqlColumn):
        return ColumnRef(scope.resolve(expr))
    if isinstance(expr, SqlUnary):
        operand = lower_expr(expr.operand, scope)
        return Not(operand) if expr.op == "NOT" else Negate(operand)
    if isinstance(expr, SqlBinary):
        left = lower_expr(expr.left, scope)
        right = lower_expr(expr.right, scope)
        if expr.op == "AND":
            return And(left, right)
        if expr.op == "OR":
            return Or(left, right)
        if expr.op in ("+", "-", "*", "/", "%"):
            return Arithmetic(expr.op, left, right)
        return Comparison(expr.op, left, right)
    if isinstance(expr, SqlIsNull):
        return IsNull(lower_expr(expr.operand, scope), negate=expr.negate)
    if isinstance(expr, SqlBetween):
        operand = lower_expr(expr.operand, scope)
        low = lower_expr(expr.low, scope)
        high = lower_expr(expr.high, scope)
        between = And(Comparison(">=", operand, low), Comparison("<=", operand, high))
        return Not(between) if expr.negate else between
    if isinstance(expr, SqlLike):
        operand = lower_expr(expr.operand, scope)
        pattern = lower_expr(expr.pattern, scope)

        def like(row: Any, operand: Expression = operand, pattern: Expression = pattern) -> bool | None:
            value = operand.eval(row)
            pat = pattern.eval(row)
            if value is None or pat is None:
                return None
            return bool(_like_regex(pat).match(str(value)))

        like_expr: Expression = Lambda(like, columns=operand.columns())
        return Not(like_expr) if expr.negate else like_expr
    if isinstance(expr, SqlIn):
        operand = lower_expr(expr.operand, scope)
        if expr.subquery is not None:
            # Materialize the subquery once.  Section VI-A's rewritten
            # queries (tid NOT IN (SELECT tid FROM R_delta ...)) hit this.
            # Its ``?``s are read here, at plan time: such a statement is
            # planned per call (plancache.plan_cachable).
            sub_plan = plan_select(expr.subquery, scope.database, scope.params)
            values: set[Any] = set()
            for row in sub_plan.rows(scope.database):
                if len(row) != 1:
                    raise DatabaseError("IN subquery must select exactly one column")
                value = next(iter(row.values()))
                if value is not None:
                    values.add(value)
            return InSet(operand, values, negate=expr.negate)
        literal_values = [_plan_time_value(v, scope) for v in expr.values or ()]
        return InList(operand, literal_values, negate=expr.negate)
    if isinstance(expr, SqlCall):
        if expr.name in AGGREGATE_FUNCS:
            raise SQLSyntaxError(
                f"aggregate {expr.name} is not allowed in this context"
            )
        return FunctionCall(expr.name, [lower_expr(a, scope) for a in expr.args])
    raise DatabaseError(f"cannot lower SQL expression {expr!r}")


def _plan_time_value(expr: SqlExpr, scope: _Scope) -> Any:
    """Evaluate ``expr`` while planning: the values of an ``IN (...)`` list
    and LIMIT / OFFSET counts are fixed in the plan, so a ``?`` among them
    makes the statement one that is planned per call
    (:func:`repro.db.plancache.plan_cachable` refuses exactly these)."""
    return lower_expr(expr, scope).eval({})


def _item_name(item: SelectItem, index: int) -> str:
    if item.alias:
        return item.alias
    expr = item.expr
    if isinstance(expr, SqlColumn):
        return expr.name
    if isinstance(expr, SqlCall):
        if expr.star:
            return f"{expr.name.lower()}_star"
        if len(expr.args) == 1 and isinstance(expr.args[0], SqlColumn):
            return f"{expr.name.lower()}_{expr.args[0].name}"
        return expr.name.lower()
    return f"col{index}"


def plan_select(
    stmt: SelectStmt,
    database: Any,
    params: Sequence[Any] = (),
    optimize: bool = True,
) -> Plan:
    """Build an executable plan for a SELECT statement.

    With ``optimize`` (the default) the finished tree goes through
    :func:`repro.db.routing.optimize_plan`: selection pushdown, index-leaf
    routing (point, composite, and range probes), and index-nested-loop
    join selection.  Pass ``optimize=False`` to get the naive tree --
    useful for equivalence testing, since optimization never changes
    results, only cost.

    Every ``?`` in an expression becomes a :class:`Param` slot, so the
    plan serves any binding; ``params`` is the binding planning runs
    under (index estimates, ``IN (SELECT ...)``, ``IN (?, ...)``, LIMIT).
    The caller binds again whenever it runs the plan.
    """
    with Binding(params):
        return _plan(stmt, database, params, optimize)


def _plan(
    stmt: SelectStmt, database: Any, params: Sequence[Any], optimize: bool
) -> Plan:
    scope = _Scope(database, params)
    plan: Plan
    if stmt.table is None:
        # SELECT without FROM: evaluate items over a single empty row.
        from ..algebra import RowSource

        plan = RowSource([{}], label="<const>")
    else:
        alias = scope.add_table(stmt.table.name, stmt.table.alias)
        multi = bool(stmt.joins)
        plan = Scan(stmt.table.name, alias=alias if multi else None)
        for join in stmt.joins:
            jalias = scope.add_table(join.table.name, join.table.alias)
            right: Plan = Scan(join.table.name, alias=jalias)
            left_key = scope.resolve(join.left)
            right_key = scope.resolve(join.right)
            plan = HashJoin(plan, right, left_key, right_key, how=join.kind)

    if stmt.where is not None:
        plan = Select(plan, lower_expr(stmt.where, scope))

    has_aggregates = any(
        item.expr is not None and contains_aggregate(item.expr) for item in stmt.items
    )
    sorted_early = False
    alias_map: dict[str, str] = {}
    if stmt.group_by or has_aggregates:
        plan = _plan_aggregate(stmt, plan, scope)
        # ORDER BY may reference grouped columns by their base name
        # (``t.name``) while the projected output uses an alias (``team``).
        for i, item in enumerate(stmt.items):
            if isinstance(item.expr, SqlColumn):
                output = _item_name(item, i)
                alias_map[scope.resolve(item.expr)] = output
                alias_map[item.expr.name] = output
    else:
        if stmt.having is not None:
            raise SQLSyntaxError("HAVING requires GROUP BY or aggregates")
        if stmt.order_by and not _order_keys_in_output(stmt):
            # ORDER BY references base-table columns dropped by the
            # projection: sort before projecting (standard SQL allows it).
            plan = _plan_sort(stmt.order_by, (), plan, scope)
            sorted_early = True
        plan = _plan_projection(stmt, plan, scope)

    if stmt.distinct:
        plan = Distinct(plan)
    if stmt.order_by and not sorted_early:
        plan = _plan_sort(stmt.order_by, stmt.items, plan, scope, alias_map)
    if stmt.limit is not None:
        count = _plan_time_value(stmt.limit, scope)
        offset = _plan_time_value(stmt.offset, scope) if stmt.offset else 0
        plan = Limit(plan, int(count), int(offset or 0))
    if stmt.compound is not None:
        op, rhs_stmt = stmt.compound
        # ORDER BY / LIMIT written after the compound parse as part of the
        # right-hand SELECT; standard SQL applies them to the whole result.
        import dataclasses

        trailing_order = rhs_stmt.order_by
        trailing_limit = rhs_stmt.limit
        trailing_offset = rhs_stmt.offset
        if trailing_order or trailing_limit is not None:
            rhs_stmt = dataclasses.replace(
                rhs_stmt, order_by=(), limit=None, offset=None
            )
        rhs = plan_select(rhs_stmt, database, params)
        if op == "UNION":
            plan = Union(plan, rhs, all=False)
        elif op == "UNION ALL":
            plan = Union(plan, rhs, all=True)
        else:
            plan = Difference(plan, rhs)
        if trailing_order:
            keys = []
            for order in trailing_order:
                if not isinstance(order.expr, SqlColumn):
                    raise SQLSyntaxError(
                        "ORDER BY after UNION supports plain columns only"
                    )
                keys.append((order.expr.name, order.ascending))
            plan = Sort(plan, keys)
        if trailing_limit is not None:
            count = _plan_time_value(trailing_limit, scope)
            offset = (
                _plan_time_value(trailing_offset, scope)
                if trailing_offset is not None
                else 0
            )
            plan = Limit(plan, int(count), int(offset or 0))
    if optimize:
        from ..routing import optimize_plan

        plan = optimize_plan(plan, database)
    return plan


def _plan_projection(stmt: SelectStmt, plan: Plan, scope: _Scope) -> Plan:
    if len(stmt.items) == 1 and stmt.items[0].star and stmt.items[0].star_table is None:
        return KeepAll(plan)
    items: list[tuple[str, Expression]] = []
    for i, item in enumerate(stmt.items):
        if item.star:
            aliases = [item.star_table] if item.star_table else list(scope.tables)
            for alias in aliases:
                if alias not in scope.tables:
                    raise SQLSyntaxError(f"unknown table alias {alias!r} in {alias}.*")
                for column in scope.columns_of(alias):
                    key = scope.resolve(SqlColumn(column, alias))
                    items.append((column, ColumnRef(key)))
            continue
        assert item.expr is not None
        items.append((_item_name(item, i), lower_expr(item.expr, scope)))
    return Project(plan, items)


def _plan_aggregate(stmt: SelectStmt, plan: Plan, scope: _Scope) -> Plan:
    group_keys: list[str] = []
    pre_items: list[tuple[str, Expression]] = []
    for g in stmt.group_by:
        if not isinstance(g, SqlColumn):
            raise SQLSyntaxError("GROUP BY supports plain column references only")
        key = scope.resolve(g)
        group_keys.append(key)
        pre_items.append((key, ColumnRef(key)))

    aggregates: list[AggSpec] = []
    out_items: list[tuple[str, Expression]] = []
    agg_index = 0
    for i, item in enumerate(stmt.items):
        if item.star:
            raise SQLSyntaxError("SELECT * cannot be combined with aggregates")
        assert item.expr is not None
        name = _item_name(item, i)
        expr = item.expr
        if isinstance(expr, SqlCall) and expr.name in AGGREGATE_FUNCS:
            if expr.star:
                aggregates.append(AggSpec("COUNT", None, name))
            else:
                arg = lower_expr(expr.args[0], scope)
                arg_name = f"__agg_in_{agg_index}"
                agg_index += 1
                pre_items.append((arg_name, arg))
                aggregates.append(
                    AggSpec(
                        expr.name,
                        ColumnRef(arg_name),
                        name,
                        distinct=expr.distinct,
                    )
                )
            out_items.append((name, ColumnRef(name)))
        elif isinstance(expr, SqlColumn):
            key = scope.resolve(expr)
            if key not in group_keys:
                raise SQLSyntaxError(
                    f"column {key!r} must appear in GROUP BY or an aggregate"
                )
            out_items.append((name, ColumnRef(key)))
        elif contains_aggregate(expr):
            raise SQLSyntaxError(
                "aggregates nested inside expressions are not supported; "
                "select the aggregate and compute over it in a wrapping query"
            )
        else:
            raise SQLSyntaxError(
                "non-aggregated expression in an aggregate query must be a "
                "grouped column"
            )

    # Pre-projection computes group keys and aggregate inputs.
    if pre_items:
        plan = Project(plan, pre_items)
    having = None
    if stmt.having is not None:
        having_scope = _HavingScope(scope, aggregates, stmt.items)
        having = lower_having(stmt.having, having_scope)
    plan = Aggregate(plan, group_keys, aggregates, having=having)
    return Project(plan, out_items)


class _HavingScope:
    """Resolves HAVING expressions against aggregate output rows."""

    def __init__(
        self, scope: _Scope, aggregates: list[AggSpec], items: tuple[SelectItem, ...]
    ) -> None:
        self.scope = scope
        self.by_call: dict[tuple[str, str | None], str] = {}
        for item, spec in _pair_items_with_specs(items, aggregates):
            expr = item.expr
            assert isinstance(expr, SqlCall)
            arg_col = (
                expr.args[0].name
                if expr.args and isinstance(expr.args[0], SqlColumn)
                else None
            )
            self.by_call[(expr.name, arg_col)] = spec.name


def _pair_items_with_specs(
    items: tuple[SelectItem, ...], aggregates: list[AggSpec]
) -> list[tuple[SelectItem, AggSpec]]:
    pairs = []
    agg_iter = iter(aggregates)
    for item in items:
        expr = item.expr
        if isinstance(expr, SqlCall) and expr.name in AGGREGATE_FUNCS:
            pairs.append((item, next(agg_iter)))
    return pairs


def lower_having(expr: SqlExpr, hscope: _HavingScope) -> Expression:
    """Lower a HAVING expression; aggregate calls resolve to output columns."""
    if isinstance(expr, SqlCall) and expr.name in AGGREGATE_FUNCS:
        arg_col = (
            expr.args[0].name
            if expr.args and isinstance(expr.args[0], SqlColumn)
            else None
        )
        name = hscope.by_call.get((expr.name, arg_col))
        if name is None:
            raise SQLSyntaxError(
                "HAVING may only use aggregates that appear in the SELECT list"
            )
        return ColumnRef(name)
    if isinstance(expr, SqlBinary):
        left = lower_having(expr.left, hscope)
        right = lower_having(expr.right, hscope)
        if expr.op == "AND":
            return And(left, right)
        if expr.op == "OR":
            return Or(left, right)
        if expr.op in ("+", "-", "*", "/", "%"):
            return Arithmetic(expr.op, left, right)
        return Comparison(expr.op, left, right)
    if isinstance(expr, SqlUnary):
        operand = lower_having(expr.operand, hscope)
        return Not(operand) if expr.op == "NOT" else Negate(operand)
    if isinstance(expr, SqlLiteral):
        return Literal(expr.value)
    if isinstance(expr, SqlColumn):
        return ColumnRef(hscope.scope.resolve(expr))
    raise SQLSyntaxError("unsupported expression in HAVING")


def _order_keys_in_output(stmt: SelectStmt) -> bool:
    """True when every ORDER BY key names a projected output column."""
    if any(item.star for item in stmt.items):
        return True  # star projection keeps every column
    output_names = {
        _item_name(item, i) for i, item in enumerate(stmt.items)
    }
    for order in stmt.order_by:
        if not isinstance(order.expr, SqlColumn):
            return True  # let _plan_sort raise the proper error later
        if order.expr.name not in output_names:
            return False
    return True


def _plan_sort(
    order_by: tuple[OrderItem, ...],
    items: tuple[SelectItem, ...],
    plan: Plan,
    scope: _Scope,
    alias_map: dict[str, str] | None = None,
) -> Plan:
    keys: list[tuple[str, bool]] = []
    output_names = {_item_name(item, i) for i, item in enumerate(items) if not item.star}
    for order in order_by:
        if not isinstance(order.expr, SqlColumn):
            raise SQLSyntaxError("ORDER BY supports plain column references only")
        name = order.expr.name
        resolved = scope.resolve(order.expr) if order.expr.table is not None else name
        if name in output_names:
            key = name
        elif alias_map and resolved in alias_map:
            key = alias_map[resolved]
        elif alias_map and name in alias_map:
            key = alias_map[name]
        else:
            key = resolved
        keys.append((key, order.ascending))
    return Sort(plan, keys)
