"""Abstract syntax trees produced by the SQL parser.

These are syntax-only: names are unresolved, expressions untyped.  The
planner (:mod:`repro.db.sql.planner`) binds them against the catalog and
lowers them to algebra plans / mutation commands.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Union


# ---------------------------------------------------------------------------
# Expressions
@dataclass(frozen=True)
class SqlLiteral:
    value: Any


@dataclass(frozen=True)
class SqlParam:
    """A ``?`` placeholder; ``index`` is its 0-based position in the statement."""

    index: int


@dataclass(frozen=True)
class SqlColumn:
    name: str
    table: Optional[str] = None

    @property
    def qualified(self) -> str:
        return f"{self.table}.{self.name}" if self.table else self.name


@dataclass(frozen=True)
class SqlUnary:
    op: str  # '-' | 'NOT'
    operand: "SqlExpr"


@dataclass(frozen=True)
class SqlBinary:
    op: str  # comparison, arithmetic, AND, OR
    left: "SqlExpr"
    right: "SqlExpr"


@dataclass(frozen=True)
class SqlIsNull:
    operand: "SqlExpr"
    negate: bool


@dataclass(frozen=True)
class SqlIn:
    operand: "SqlExpr"
    values: Optional[tuple["SqlExpr", ...]]  # literal list form
    subquery: Optional["SelectStmt"]  # subquery form
    negate: bool


@dataclass(frozen=True)
class SqlBetween:
    operand: "SqlExpr"
    low: "SqlExpr"
    high: "SqlExpr"
    negate: bool


@dataclass(frozen=True)
class SqlLike:
    operand: "SqlExpr"
    pattern: "SqlExpr"
    negate: bool


@dataclass(frozen=True)
class SqlCall:
    """Scalar or aggregate function call.

    ``star`` marks ``COUNT(*)``; ``distinct`` marks ``COUNT(DISTINCT x)``
    (and the other aggregates' DISTINCT forms).
    """

    name: str
    args: tuple["SqlExpr", ...]
    star: bool = False
    distinct: bool = False


SqlExpr = Union[
    SqlLiteral, SqlParam, SqlColumn, SqlUnary, SqlBinary,
    SqlIsNull, SqlIn, SqlBetween, SqlLike, SqlCall,
]

AGGREGATE_FUNCS = ("COUNT", "SUM", "AVG", "MIN", "MAX")


def contains_aggregate(expr: SqlExpr) -> bool:
    """True if any aggregate call appears in ``expr``."""
    if isinstance(expr, SqlCall):
        if expr.name in AGGREGATE_FUNCS:
            return True
        return any(contains_aggregate(a) for a in expr.args)
    if isinstance(expr, SqlUnary):
        return contains_aggregate(expr.operand)
    if isinstance(expr, SqlBinary):
        return contains_aggregate(expr.left) or contains_aggregate(expr.right)
    if isinstance(expr, SqlIsNull):
        return contains_aggregate(expr.operand)
    if isinstance(expr, (SqlIn, SqlBetween, SqlLike)):
        return contains_aggregate(expr.operand)
    return False


# ---------------------------------------------------------------------------
# Statements
@dataclass(frozen=True)
class SelectItem:
    """One output column: expression plus optional alias; ``star`` = ``*``."""

    expr: Optional[SqlExpr]
    alias: Optional[str]
    star: bool = False
    star_table: Optional[str] = None  # for ``t.*``


@dataclass(frozen=True)
class TableRef:
    name: str
    alias: Optional[str] = None


@dataclass(frozen=True)
class JoinClause:
    table: TableRef
    kind: str  # 'inner' | 'left'
    left: SqlColumn
    right: SqlColumn


@dataclass(frozen=True)
class OrderItem:
    expr: SqlExpr
    ascending: bool


@dataclass(frozen=True)
class SelectStmt:
    items: tuple[SelectItem, ...]
    table: Optional[TableRef]
    joins: tuple[JoinClause, ...] = ()
    where: Optional[SqlExpr] = None
    group_by: tuple[SqlExpr, ...] = ()
    having: Optional[SqlExpr] = None
    order_by: tuple[OrderItem, ...] = ()
    limit: Optional[SqlExpr] = None
    offset: Optional[SqlExpr] = None
    distinct: bool = False
    compound: Optional[tuple[str, "SelectStmt"]] = None  # ('UNION'|'UNION ALL'|'EXCEPT', rhs)


@dataclass(frozen=True)
class InsertStmt:
    table: str
    columns: tuple[str, ...]
    rows: tuple[tuple[SqlExpr, ...], ...]
    select: Optional[SelectStmt] = None  # INSERT INTO t SELECT ...


@dataclass(frozen=True)
class UpdateStmt:
    table: str
    assignments: tuple[tuple[str, SqlExpr], ...]
    where: Optional[SqlExpr] = None


@dataclass(frozen=True)
class DeleteStmt:
    table: str
    where: Optional[SqlExpr] = None


@dataclass(frozen=True)
class ColumnDef:
    name: str
    type_name: str
    not_null: bool = False
    primary_key: bool = False
    unique: bool = False
    references: Optional[tuple[str, str]] = None  # (table, column)


@dataclass(frozen=True)
class CreateTableStmt:
    table: str
    columns: tuple[ColumnDef, ...]
    if_not_exists: bool = False


@dataclass(frozen=True)
class DropTableStmt:
    table: str
    if_exists: bool = False


@dataclass(frozen=True)
class ExplainStmt:
    """``EXPLAIN [ANALYZE | LINEAGE] SELECT ...`` -- show the plan the
    optimizer picks for a query.  ANALYZE runs it and annotates operator
    row counts; LINEAGE runs it with tuple-lineage capture and returns
    one row per (output row, source tuple) provenance edge.  ``sql`` is
    the SELECT's own text, so EXPLAIN runs the plan that text caches."""

    select: SelectStmt
    sql: str
    analyze: bool = False
    lineage: bool = False


Statement = Union[
    SelectStmt, InsertStmt, UpdateStmt, DeleteStmt, CreateTableStmt,
    DropTableStmt, ExplainStmt,
]
