"""Statement and plan caching for the SQL fast path.

``Database.execute`` re-parsed every SQL string on every call; for the hot
statements of the sync/notification loops (Sections VI-C/VI-D run the same
handful of queries thousands of times) parsing and planning dominate the
cost of the actual row work.  Two LRU caches, both keyed on the raw SQL
text, remove that:

* the **statement cache** maps SQL text -> parsed AST.  ASTs are frozen
  dataclasses and depend only on the text, so this cache never needs
  invalidation.
* the **plan cache** maps SQL text -> optimized algebra plan.  A ``?`` in
  an expression is planned as a slot (:class:`repro.db.expression.Param`)
  that each execution binds to its own values, so one plan serves every
  binding: the dashboard's point and range queries plan once per text.
  Only what is fixed *while planning* keeps a SELECT out of the cache
  (:func:`plan_cachable`): ``IN (SELECT ...)`` (materialized to a data
  snapshot), ``IN (?, ...)`` lists and ``LIMIT ?`` / ``OFFSET ?``.  A
  slot plan keeps the access path chosen for the binding that planned
  it, as a literal plan keeps its own until evicted; routing never
  changes results.  Plans name tables but resolve them at execution,
  so the cache is evicted wholesale on CREATE/DROP TABLE; index creation
  after caching leaves plans stale-but-correct (they keep their full-scan
  shape until evicted) because every routed leaf falls back gracefully.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Hashable, Iterator

from .sql.ast import (
    SelectStmt,
    SqlBetween,
    SqlBinary,
    SqlCall,
    SqlExpr,
    SqlIn,
    SqlIsNull,
    SqlLike,
    SqlParam,
    SqlUnary,
)


class LRUCache:
    """Thread-safe least-recently-used cache with hit/miss accounting."""

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 1:
            raise ValueError("cache capacity must be >= 1")
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self._data: OrderedDict[Hashable, Any] = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key: Hashable) -> Any | None:
        with self._lock:
            try:
                value = self._data[key]
            except KeyError:
                self.misses += 1
                return None
            self._data.move_to_end(key)
            self.hits += 1
            return value

    def put(self, key: Hashable, value: Any) -> None:
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            while len(self._data) > self.capacity:
                self._data.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._data.clear()

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._data

    def info(self) -> dict[str, int]:
        return {
            "size": len(self._data),
            "capacity": self.capacity,
            "hits": self.hits,
            "misses": self.misses,
        }


def _subexprs(expr: SqlExpr | None) -> Iterator[SqlExpr]:
    """``expr`` and every expression nested in it (not into subqueries)."""
    if expr is None:
        return
    yield expr
    children: tuple[SqlExpr | None, ...] = ()
    if isinstance(expr, SqlIn):
        children = (expr.operand, *(expr.values or ()))
    elif isinstance(expr, (SqlUnary, SqlIsNull)):
        children = (expr.operand,)
    elif isinstance(expr, SqlBinary):
        children = (expr.left, expr.right)
    elif isinstance(expr, SqlBetween):
        children = (expr.operand, expr.low, expr.high)
    elif isinstance(expr, SqlLike):
        children = (expr.operand, expr.pattern)
    elif isinstance(expr, SqlCall):
        children = tuple(expr.args)
    for child in children:
        yield from _subexprs(child)


def _has_param(expr: SqlExpr | None) -> bool:
    return any(isinstance(e, SqlParam) for e in _subexprs(expr))


def _selects(stmt: SelectStmt) -> Iterator[SelectStmt]:
    """``stmt`` and the SELECTs chained to it by UNION / EXCEPT."""
    while True:
        yield stmt
        if stmt.compound is None:
            return
        stmt = stmt.compound[1]


def _expressions(stmt: SelectStmt) -> Iterator[SqlExpr]:
    """Every expression of ``stmt`` outside LIMIT / OFFSET, nested ones too."""
    for select in _selects(stmt):
        roots: list[SqlExpr | None] = [item.expr for item in select.items]
        roots += [select.where, select.having, *select.group_by]
        roots += [order.expr for order in select.order_by]
        for root in roots:
            yield from _subexprs(root)


def plan_cachable(stmt: SelectStmt) -> bool:
    """True when one plan of ``stmt`` serves every execution of its text.

    A ``?`` in an expression is a slot the execution binds, so it does
    not stop caching.  What does is a value fixed *while planning*: an
    ``IN (SELECT ...)`` (materialized to a value-set snapshot), a ``?``
    among the values of an ``IN (...)`` list, and a ``?`` as LIMIT or
    OFFSET -- such statements are planned on every execution.
    """
    for select in _selects(stmt):
        if _has_param(select.limit) or _has_param(select.offset):
            return False
    for expr in _expressions(stmt):
        if isinstance(expr, SqlIn) and (
            expr.subquery is not None or any(map(_has_param, expr.values or ()))
        ):
            return False
    return True


def param_count(stmt: SelectStmt) -> int:
    """How many ``?`` values a cachable ``stmt`` reads."""
    indexes = [e.index for e in _expressions(stmt) if isinstance(e, SqlParam)]
    return max(indexes, default=-1) + 1
