"""Relational algebra plans and their pull-based executor.

The paper's query language is "a relational algebraic expression over the
relations... selection, projection, and cartesian product" (Section V).
We implement those plus the operators every realistic deployment of the
model needs: hash joins, grouping/aggregation, sort, distinct, limit,
union, and difference.

Plans are immutable trees of :class:`Plan` nodes; :meth:`Plan.rows` pulls
result rows as dicts.  A plan executes against any object exposing
``table(name) -> Table`` -- in practice the :class:`repro.db.database.Database`.

Lineage capture is a mode of the same operators, not a second
interpreter: ``rows(source, lineage=True)`` makes every row carry its
backward lineage -- the ``(table, tid)`` pairs of the stored tuples it was
computed from -- under the hidden key :data:`LIN`, and
:meth:`Plan.to_list_lineage` pops it off again.  Each operator's docstring
says what it does to the lineage of the rows it builds; operators that
only pass rows on (selection, sort, limit, distinct, union, difference)
pass their lineage on with them.
"""

from __future__ import annotations

import copy
import numbers
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Protocol, Sequence

from ..errors import DatabaseError, UnknownTableError
from .aggstate import _DedupSet, new_states, put_results
from .expression import (
    Binding,
    ColumnRef,
    Expression,
    evaluate_predicate,
    row_maker,
    slot_value,
)
from .schema import TID
from .table import Table


class TableProvider(Protocol):
    """Anything that can resolve table names (Database implements this)."""

    def table(self, name: str) -> Table: ...


Row = dict[str, Any]

#: One row's backward lineage: ``(table, tid)`` pairs, in the order the
#: operators met them (see :func:`repro.lineage.capture.canon_lineage`).
Lineage = tuple[tuple[str, Any], ...]

#: Row key holding a row's :data:`Lineage` while a plan runs in lineage
#: mode.  Hidden like ``__tid__`` (user columns cannot start with ``__``),
#: so ``SELECT *``, DISTINCT/UNION keys and LEFT-join padding never see it.
LIN = "__lin__"


class Plan:
    """Base class for algebra operators."""

    def rows(self, source: TableProvider, lineage: bool = False) -> Iterator[Row]:
        """Pull result rows; with ``lineage`` each carries a :data:`LIN` key."""
        raise NotImplementedError

    def to_list(self, source: TableProvider) -> list[Row]:
        return list(self.rows(source))

    def to_list_lineage(
        self, source: TableProvider
    ) -> tuple[list[Row], list[Lineage]]:
        """:meth:`to_list` plus, in lockstep, each row's backward lineage
        (uncanonicalized: accumulation order, repeats possible)."""
        rows = list(self.rows(source, True))
        return rows, [row.pop(LIN) for row in rows]

    # -- fluent builders ------------------------------------------------
    def where(self, predicate: Expression) -> "Select":
        return Select(self, predicate)

    def project(self, *items: str | tuple[str, Expression]) -> "Project":
        return Project(self, _normalize_items(items))

    def base_tables(self) -> set[str]:
        """Names of the stored tables this plan reads (for IVM wiring)."""
        out: set[str] = set()
        for child in self.children():
            out |= child.base_tables()
        return out

    def children(self) -> tuple["Plan", ...]:
        return ()

    def output_columns(self, source: TableProvider) -> set[str] | None:
        """Column names this plan's rows carry, or None when unknown.

        Used by the planner's selection pushdown (to decide which side of
        a join a conjunct belongs to) and by LEFT JOIN null padding over
        derived right-hand plans.
        """
        return None


def _scan_columns(
    source: TableProvider, table_name: str, alias: str | None
) -> set[str] | None:
    """Catalog columns of a stored-table leaf, plus alias-qualified names."""
    try:
        schema = source.table(table_name).schema
    except UnknownTableError:
        # Planning against a source that can't resolve the name (delta
        # RowSources, isolation wrappers) degrades gracefully; any other
        # failure means the catalog itself is broken and must surface.
        return None
    columns = set(schema.column_names)
    if alias:
        columns |= {f"{alias}.{c}" for c in schema.column_names}
    return columns


def _qualify_row(row: Row, alias: str) -> Row:
    """Copy ``row`` adding ``alias.col`` keys (the Scan alias behavior)."""
    qualified = dict(row)
    for key, value in row.items():
        if not key.startswith("__"):
            qualified[f"{alias}.{key}"] = value
    return qualified


def _normalize_items(
    items: Sequence[str | tuple[str, Expression]],
) -> list[tuple[str, Expression]]:
    out: list[tuple[str, Expression]] = []
    for item in items:
        if isinstance(item, str):
            out.append((item, ColumnRef(item)))
        else:
            out.append(item)
    return out


class TableLeaf(Plan):
    """A leaf over one stored table: a full scan or an index probe.

    Subclasses say which stored rows they select (:meth:`_stored`); how a
    selected row leaves the leaf is decided here.  Without an ``alias``
    the table's internal row dicts are yielded directly (the fast path
    the Figure-8 pipeline depends on); with one, each row is a copy that
    also carries qualified keys (``alias.col``) so joins between tables
    with overlapping column names stay unambiguous.

    Lineage is seeded here: ``((table, tid),)`` on a copy of the row, so
    a capture never writes into a stored row.
    """

    table_name: str
    alias: str | None

    def _stored(self, table: Table) -> Iterator[Row]:
        """The stored rows of ``table`` this leaf selects, in tid order."""
        raise NotImplementedError

    def rows(self, source: TableProvider, lineage: bool = False) -> Iterator[Row]:
        rows = self._stored(source.table(self.table_name))
        alias = self.alias
        if alias is not None:
            rows = (_qualify_row(row, alias) for row in rows)
        elif lineage:
            rows = map(dict, rows)
        return self._seeded(rows) if lineage else rows

    def _seeded(self, copies: Iterable[Row]) -> Iterator[Row]:
        name = self.table_name
        for row in copies:
            row[LIN] = ((name, row[TID]),)
            yield row

    def base_tables(self) -> set[str]:
        return {self.table_name}

    def output_columns(self, source: TableProvider) -> set[str] | None:
        return _scan_columns(source, self.table_name, self.alias)


class Scan(TableLeaf):
    """Full scan of a stored table."""

    def __init__(self, table: str, alias: str | None = None) -> None:
        self.table_name = table
        self.alias = alias

    def _stored(self, table: Table) -> Iterator[Row]:
        return table.rows()

    def __repr__(self) -> str:
        return f"Scan({self.table_name!r})"


class IndexLeaf(TableLeaf):
    """A probe through an index on one stored table.

    Its keys are values or ``?`` slots (:class:`~repro.db.expression.Param`)
    read when the probe runs, so a cached plan serves every binding; a
    key bound to NULL selects nothing (no comparison with NULL is true).
    Every probe falls back to a filtered scan when the source cannot
    serve the index (isolation-filtered views wrap tables without
    exposing indexes) -- the result is identical, only the cost differs.

    ``rivals`` are the slot leaves the router weighed against this one.
    The choice stays the one made for the binding that planned it, but a
    rival's estimate still runs for each binding, so a value no index
    could be probed with raises here exactly as it would while planning.
    """

    rivals: tuple["IndexLeaf", ...] = ()

    def _index(self, table: Table) -> Any | None:
        """The index serving this probe on ``table``, or None."""
        raise NotImplementedError

    def _keys(self) -> tuple[Any, ...] | None:
        """This execution's keys, or None when one is bound to NULL."""
        raise NotImplementedError

    def _count(self, index: Any, keys: tuple[Any, ...]) -> int:
        raise NotImplementedError

    def _probe(self, index: Any, keys: tuple[Any, ...]) -> Iterable[int]:
        raise NotImplementedError

    def _matches(self, row: Row, keys: tuple[Any, ...]) -> bool:
        """The fallback scan's test of one row."""
        raise NotImplementedError

    def estimate(self, table: Table) -> int | None:
        """Exact rows this probe selects now, or None without the index."""
        index = self._index(table)
        if index is None:
            return None
        keys = self._keys()
        return 0 if keys is None else self._count(index, keys)

    def tids(self, table: Table) -> Iterable[int]:
        """The selected tids, unordered; ``table`` must serve the index."""
        keys = self._keys()
        return () if keys is None else self._probe(self._index(table), keys)

    def _stored(self, table: Table) -> Iterator[Row]:
        for rival in self.rivals:
            rival.estimate(table)
        keys = self._keys()
        if keys is None:
            return
        index = self._index(table)
        if index is None:
            for row in table.rows():
                if self._matches(row, keys):
                    yield row
            return
        # Sorted tids keep output in tid order, byte-identical to a full scan.
        tids = sorted(self._probe(index, keys))
        if len(tids) > 1:
            # One batch read; a point probe's one get costs less than a batch.
            yield from filter(None, table.images(tids))
            return
        for tid in tids:
            row = table.get(tid)
            if row is not None:
                yield row


class IndexScan(IndexLeaf):
    """Point lookup through a hash index: ``WHERE col = value``."""

    def __init__(
        self, table: str, column: str, value: Any, alias: str | None = None
    ) -> None:
        self.table_name = table
        self.column = column
        self.value = value
        self.alias = alias

    def _index(self, table: Table) -> Any | None:
        find = getattr(table, "find_hash_index", None)
        return find(self.column) if find is not None else None

    def _keys(self) -> tuple[Any, ...] | None:
        value = slot_value(self.value)
        return None if value is None else (value,)

    def _count(self, index: Any, keys: tuple[Any, ...]) -> int:
        return index.bucket_size(keys)

    def _probe(self, index: Any, keys: tuple[Any, ...]) -> Iterable[int]:
        return index.lookup(keys[0])

    def _matches(self, row: Row, keys: tuple[Any, ...]) -> bool:
        return row.get(self.column) == keys[0]

    def __repr__(self) -> str:
        return f"IndexScan({self.table_name}.{self.column} = {self.value!r})"


class CompositeIndexScan(IndexLeaf):
    """Composite-key equality probe through a multi-column hash index.

    ``WHERE a = x AND b = y`` with a hash index on ``(a, b)`` resolves to
    one ``lookup_tuple`` probe.
    """

    def __init__(
        self,
        table: str,
        columns: Sequence[str],
        values: Sequence[Any],
        alias: str | None = None,
    ) -> None:
        if len(columns) != len(values):
            raise DatabaseError("CompositeIndexScan needs one value per column")
        self.table_name = table
        self.columns = tuple(columns)
        self.values = tuple(values)
        self.alias = alias

    def _index(self, table: Table) -> Any | None:
        wanted = frozenset(self.columns)
        for index in getattr(table, "hash_indexes", lambda: ())():
            if frozenset(index.columns) == wanted:
                return index
        return None

    def _keys(self) -> tuple[Any, ...] | None:
        keys = tuple(slot_value(v) for v in self.values)
        return None if None in keys else keys

    def _ordered(self, index: Any, keys: tuple[Any, ...]) -> list[Any]:
        by_name = dict(zip(self.columns, keys))
        return [by_name[c] for c in index.columns]

    def _count(self, index: Any, keys: tuple[Any, ...]) -> int:
        return index.bucket_size(self._ordered(index, keys))

    def _probe(self, index: Any, keys: tuple[Any, ...]) -> Iterable[int]:
        return index.lookup_tuple(self._ordered(index, keys))

    def _matches(self, row: Row, keys: tuple[Any, ...]) -> bool:
        return all(row.get(c) == v for c, v in zip(self.columns, keys))

    def __repr__(self) -> str:
        pairs = ", ".join(
            f"{c} = {v!r}" for c, v in zip(self.columns, self.values)
        )
        return f"CompositeIndexScan({self.table_name}: {pairs})"


class RangeIndexScan(IndexLeaf):
    """Range probe through a sorted index: ``WHERE col >= low AND col <= high``.

    Backs the isolation-predicate scans of Section VI-A (creation-timestamp
    ranges) and the ``seq_no`` scans of VI-C.  Bounds are optional on
    either side (None: unbounded); inclusivity is tracked per bound.
    """

    def __init__(
        self,
        table: str,
        column: str,
        low: Any = None,
        high: Any = None,
        include_low: bool = True,
        include_high: bool = True,
        alias: str | None = None,
    ) -> None:
        self.table_name = table
        self.column = column
        self.low = low
        self.high = high
        self.include_low = include_low
        self.include_high = include_high
        self.alias = alias

    def _index(self, table: Table) -> Any | None:
        find = getattr(table, "find_sorted_index", None)
        return find(self.column) if find is not None else None

    def _keys(self) -> tuple[Any, ...] | None:
        low, high = slot_value(self.low), slot_value(self.high)
        if (low is None and self.low is not None) or (
            high is None and self.high is not None
        ):
            return None  # a slot bound to NULL: no row is in range
        return low, high

    def _count(self, index: Any, keys: tuple[Any, ...]) -> int:
        return index.count_range(*keys, self.include_low, self.include_high)

    def _probe(self, index: Any, keys: tuple[Any, ...]) -> Iterable[int]:
        return index.range(*keys, self.include_low, self.include_high)

    def _matches(self, row: Row, keys: tuple[Any, ...]) -> bool:
        value = row.get(self.column)
        if value is None:
            return False  # range predicates never match NULL
        low, high = keys
        if low is not None:
            if self.include_low:
                if value < low:
                    return False
            elif value <= low:
                return False
        if high is not None:
            if self.include_high:
                if value > high:
                    return False
            elif value >= high:
                return False
        return True

    def bounds_repr(self) -> str:
        lo = "(-inf" if self.low is None else ("[" if self.include_low else "(") + repr(self.low)
        hi = "+inf)" if self.high is None else repr(self.high) + ("]" if self.include_high else ")")
        return f"{lo}, {hi}"

    def __repr__(self) -> str:
        return (
            f"RangeIndexScan({self.table_name}.{self.column} in {self.bounds_repr()})"
        )


class RowSource(Plan):
    """Adapter exposing an in-memory row collection as a plan leaf.

    Used by delta propagation: the incremental maintenance algorithms
    (Section VI-B, citing Gupta-Mumick) re-run query fragments over delta
    rows instead of stored tables.  Its rows come from no stored table,
    so their lineage is empty.
    """

    def __init__(self, rows: Iterable[Row], label: str = "<rows>") -> None:
        self._rows = list(rows)
        self.label = label

    def rows(self, source: TableProvider, lineage: bool = False) -> Iterator[Row]:
        if lineage:
            return ({**row, LIN: ()} for row in self._rows)
        return iter(self._rows)

    def __len__(self) -> int:
        return len(self._rows)

    def output_columns(self, source: TableProvider) -> set[str] | None:
        out: set[str] = set()
        for row in self._rows:
            out.update(k for k in row if not k.startswith("__"))
        return out

    def __repr__(self) -> str:
        return f"RowSource({self.label}, n={len(self._rows)})"


class Bound(Plan):
    """``child`` run with one execution's ``?`` values bound.

    What :meth:`repro.db.database.Database.plan` hands out for a
    parameterized SELECT: the child is the shared (cached) plan, which a
    binding never writes; the values ride on this wrapper instead.
    """

    def __init__(self, child: Plan, values: Sequence[Any]) -> None:
        self.child = child
        self.values = tuple(values)

    @property
    def explain_label(self) -> str:
        return f"Bound {list(self.values)!r}"

    def rows(self, source: TableProvider, lineage: bool = False) -> Iterator[Row]:
        # Materialized inside the binding: a row pulled after it closed
        # would read whatever binding the caller had then.
        with Binding(self.values):
            return iter(list(self.child.rows(source, lineage)))

    def children(self) -> tuple[Plan, ...]:
        return (self.child,)

    def output_columns(self, source: TableProvider) -> set[str] | None:
        return self.child.output_columns(source)


class Select(Plan):
    """Selection: keep rows whose predicate evaluates to TRUE."""

    def __init__(self, child: Plan, predicate: Expression) -> None:
        self.child = child
        self.predicate = predicate

    def rows(self, source: TableProvider, lineage: bool = False) -> Iterator[Row]:
        predicate = self.predicate
        for row in self.child.rows(source, lineage):
            if predicate.eval(row) is True:
                yield row

    def children(self) -> tuple[Plan, ...]:
        return (self.child,)

    def output_columns(self, source: TableProvider) -> set[str] | None:
        return self.child.output_columns(source)

    def __repr__(self) -> str:
        return f"Select({self.predicate!r}, {self.child!r})"


class Project(Plan):
    """Projection with computed items: ``[(output_name, expression), ...]``.

    An output row has the lineage of the input row it was computed from.
    Rows are built by a compiled :func:`~repro.db.expression.row_maker`,
    made once here: a plan is immutable and the plan cache keeps it.
    """

    def __init__(self, child: Plan, items: Sequence[tuple[str, Expression]]) -> None:
        if not items:
            raise DatabaseError("projection needs at least one item")
        self.child = child
        self.items = list(items)
        self._make = row_maker(self.items)
        self._make_lineage = row_maker(self.items, keep=(LIN,))

    def rows(self, source: TableProvider, lineage: bool = False) -> Iterator[Row]:
        make = self._make_lineage if lineage else self._make
        return map(make, self.child.rows(source, lineage))

    def children(self) -> tuple[Plan, ...]:
        return (self.child,)

    def output_columns(self, source: TableProvider) -> set[str] | None:
        return {name for name, _ in self.items}

    def __repr__(self) -> str:
        names = [name for name, _ in self.items]
        return f"Project({names}, {self.child!r})"


class KeepAll(Plan):
    """Identity projection that strips hidden engine fields.

    ``SELECT * FROM t`` compiles to this so users never see ``__tid__``
    unless they ask for it.  Lineage, itself a hidden field, is carried
    across the strip.
    """

    def __init__(self, child: Plan) -> None:
        self.child = child

    def rows(self, source: TableProvider, lineage: bool = False) -> Iterator[Row]:
        for row in self.child.rows(source, lineage):
            out = {
                k: v
                for k, v in row.items()
                if not k.startswith("__") and "." not in k
            }
            if lineage:
                out[LIN] = row[LIN]
            yield out

    def children(self) -> tuple[Plan, ...]:
        return (self.child,)

    def output_columns(self, source: TableProvider) -> set[str] | None:
        below = self.child.output_columns(source)
        if below is None:
            return None
        return {c for c in below if not c.startswith("__") and "." not in c}


class Product(Plan):
    """Cartesian product.  Right side is materialized once.

    A combined row's lineage is its left row's followed by its right row's.
    """

    def __init__(self, left: Plan, right: Plan) -> None:
        self.left = left
        self.right = right

    def rows(self, source: TableProvider, lineage: bool = False) -> Iterator[Row]:
        right_rows = list(self.right.rows(source, lineage))
        for lrow in self.left.rows(source, lineage):
            for rrow in right_rows:
                out = {**lrow, **rrow}
                if lineage:
                    out[LIN] = lrow[LIN] + rrow[LIN]
                yield out

    def children(self) -> tuple[Plan, ...]:
        return (self.left, self.right)


class HashJoin(Plan):
    """Equi-join implemented by building a hash table on the right input.

    A matched row's lineage is its left row's followed by its right row's;
    an unmatched LEFT-join row keeps its left row's (NULL padding comes
    from no tuple).
    """

    def __init__(
        self,
        left: Plan,
        right: Plan,
        left_on: str,
        right_on: str,
        how: str = "inner",
    ) -> None:
        if how not in ("inner", "left"):
            raise DatabaseError(f"unsupported join type {how!r}")
        self.left = left
        self.right = right
        self.left_on = left_on
        self.right_on = right_on
        self.how = how

    def rows(self, source: TableProvider, lineage: bool = False) -> Iterator[Row]:
        buckets: dict[Any, list[Row]] = {}
        right_key = ColumnRef(self.right_on)
        right_cols: set[str] = set()
        for rrow in self.right.rows(source, lineage):
            key = right_key.eval(rrow)
            right_cols.update(k for k in rrow if not k.startswith("__"))
            if key is None:
                continue
            buckets.setdefault(key, []).append(rrow)
        if self.how == "left" and not right_cols:
            # Empty right input: derive padding columns from the right
            # plan's own output shape (works for subqueries/derived plans,
            # not just stored-table scans), falling back to the catalog.
            derived = self.right.output_columns(source)
            if derived:
                right_cols = {c for c in derived if not c.startswith("__")}
            else:
                right_cols = self._schema_columns(source)
        left_key = ColumnRef(self.left_on)
        null_pad = {c: None for c in right_cols}
        for lrow in self.left.rows(source, lineage):
            key = left_key.eval(lrow)
            matches = buckets.get(key, ()) if key is not None else ()
            if matches:
                for rrow in matches:
                    out = {**lrow, **rrow}
                    if lineage:
                        out[LIN] = lrow[LIN] + rrow[LIN]
                    yield out
            elif self.how == "left":
                yield {**null_pad, **lrow}

    def _schema_columns(self, source: TableProvider) -> set[str]:
        """Right-side column names (plain + qualified) from the catalog."""
        child = self.right
        if not isinstance(child, TableLeaf):
            return set()
        # Unknown name -> no padding columns; genuinely broken catalogs
        # raise out of ``_scan_columns`` rather than flatten to an empty pad.
        return child.output_columns(source) or set()

    def children(self) -> tuple[Plan, ...]:
        return (self.left, self.right)

    def output_columns(self, source: TableProvider) -> set[str] | None:
        left = self.left.output_columns(source)
        right = self.right.output_columns(source)
        if left is None or right is None:
            return None
        return left | right

    def __repr__(self) -> str:
        return (
            f"HashJoin({self.left!r} {self.left_on} = "
            f"{self.right_on} {self.right!r}, how={self.how})"
        )


class IndexNestedLoopJoin(Plan):
    """Equi-join probing the right table's hash index once per left row.

    Chosen by the planner when the outer (left) side is estimated to be
    much smaller than the inner table: it avoids materializing a hash
    table over the whole inner side.  Degrades to a HashJoin when the
    source cannot serve the index (isolation-filtered tables).  Lineage
    as for :class:`HashJoin`, the probed tuple seeding the right side.
    """

    def __init__(
        self,
        left: Plan,
        right_table: str,
        left_on: str,
        right_on: str,
        right_column: str,
        right_alias: str | None = None,
        how: str = "inner",
    ) -> None:
        if how not in ("inner", "left"):
            raise DatabaseError(f"unsupported join type {how!r}")
        self.left = left
        self.right_table = right_table
        self.left_on = left_on
        self.right_on = right_on
        self.right_column = right_column  # unqualified index column
        self.right_alias = right_alias
        self.how = how

    def _hash_join(self) -> HashJoin:
        return HashJoin(
            self.left,
            Scan(self.right_table, alias=self.right_alias),
            self.left_on,
            self.right_on,
            how=self.how,
        )

    def rows(self, source: TableProvider, lineage: bool = False) -> Iterator[Row]:
        table = source.table(self.right_table)
        find = getattr(table, "find_hash_index", None)
        index = find(self.right_column) if find is not None else None
        if index is None:
            yield from self._hash_join().rows(source, lineage)
            return
        left_key = ColumnRef(self.left_on)
        null_pad: Row = {}
        if self.how == "left":
            columns = _scan_columns(source, self.right_table, self.right_alias)
            null_pad = {c: None for c in (columns or ())}
        get = table.get
        alias = self.right_alias
        right_table = self.right_table
        for lrow in self.left.rows(source, lineage):
            key = left_key.eval(lrow)
            matched = False
            if key is not None:
                for tid in sorted(index.lookup(key)):
                    rrow = get(tid)
                    if rrow is None:
                        continue
                    matched = True
                    if alias is not None:
                        rrow = _qualify_row(rrow, alias)
                    out = {**lrow, **rrow}
                    if lineage:
                        out[LIN] = lrow[LIN] + ((right_table, tid),)
                    yield out
            if not matched and self.how == "left":
                yield {**null_pad, **lrow}

    def children(self) -> tuple[Plan, ...]:
        return (self.left,)

    def base_tables(self) -> set[str]:
        return self.left.base_tables() | {self.right_table}

    def output_columns(self, source: TableProvider) -> set[str] | None:
        left = self.left.output_columns(source)
        right = _scan_columns(source, self.right_table, self.right_alias)
        if left is None or right is None:
            return None
        return left | right

    def __repr__(self) -> str:
        return (
            f"IndexNestedLoopJoin({self.left!r} {self.left_on} = "
            f"{self.right_table}.{self.right_column}, how={self.how})"
        )


@dataclass(frozen=True)
class AggSpec:
    """One aggregate output: ``func([DISTINCT] arg) AS name``.

    ``func`` is one of COUNT, SUM, AVG, MIN, MAX; ``arg is None`` means
    ``COUNT(*)``.  With ``distinct=True`` duplicate argument values are
    folded once (``COUNT(DISTINCT x)`` and friends).
    """

    func: str
    arg: Expression | None
    name: str
    distinct: bool = False

    def __post_init__(self) -> None:
        if self.func not in ("COUNT", "SUM", "AVG", "MIN", "MAX"):
            raise DatabaseError(f"unknown aggregate {self.func!r}")
        if self.arg is None and self.func != "COUNT":
            raise DatabaseError(f"{self.func} requires an argument")
        if self.distinct and self.arg is None:
            raise DatabaseError("DISTINCT requires an aggregate argument")


class Aggregate(Plan):
    """GROUP BY + aggregates.  Empty ``group_by`` yields one global row.

    A group's lineage is the lineage of every input row of the group, in
    input order (so the global row over an empty input has none).
    """

    def __init__(
        self,
        child: Plan,
        group_by: Sequence[str],
        aggregates: Sequence[AggSpec],
        having: Expression | None = None,
    ) -> None:
        self.child = child
        self.group_by = list(group_by)
        self.aggregates = list(aggregates)
        self.having = having

    def rows(self, source: TableProvider, lineage: bool = False) -> Iterator[Row]:
        specs = self.aggregates
        # key -> [star, states], in first-occurrence order.
        groups: dict[tuple[Any, ...], list[Any]] = {}
        group_lins: dict[tuple[Any, ...], list[tuple[str, Any]]] = {}
        group_refs = [ColumnRef(g) for g in self.group_by]
        for row in self.child.rows(source, lineage):
            key = tuple(ref.eval(row) for ref in group_refs)
            entry = groups.get(key)
            if entry is None:
                entry = groups[key] = [0, new_states(specs)]
            entry[0] += 1
            if lineage:
                group_lins.setdefault(key, []).extend(row[LIN])
            for spec, state in zip(specs, entry[1]):
                if state is not None:
                    state.add(spec.arg.eval(row))
        if not groups and not self.group_by:
            # Global aggregate over an empty input still yields one row.
            groups[()] = [0, new_states(specs)]
        names = [s.name for s in specs]
        for key, (star, states) in groups.items():
            out: Row = dict(zip(self.group_by, key))
            put_results(out, names, star, states)
            if lineage:
                out[LIN] = tuple(group_lins.get(key, ()))
            if self.having is None or evaluate_predicate(self.having, out):
                yield out

    def children(self) -> tuple[Plan, ...]:
        return (self.child,)

    def output_columns(self, source: TableProvider) -> set[str] | None:
        return set(self.group_by) | {s.name for s in self.aggregates}


def sort_key_total(value: Any) -> tuple[Any, ...]:
    """Total, deterministic ordering key over heterogeneous cell values.

    Values are ranked by type class first -- NULL, numbers, strings,
    bytes, sequences, mappings, everything else -- then compared within
    the class, so a column holding both ints and strs (schema-less ANY
    columns) sorts deterministically instead of crashing on ``int < str``.
    Within a homogeneous comparable column the ordering is identical to
    plain value comparison, which keeps existing results byte-stable.
    The vectorized sort uses the same key, so both engines agree.
    """
    if value is None:
        return (0, 0)
    if isinstance(value, numbers.Number) and not isinstance(value, complex):
        # bool/int/float/Decimal/Fraction all inter-compare numerically.
        return (1, value)
    if isinstance(value, str):
        return (2, value)
    if isinstance(value, bytes):
        return (3, value)
    if isinstance(value, (tuple, list)):
        return (4, [sort_key_total(v) for v in value])
    if isinstance(value, dict):
        return (5, sorted((str(k), sort_key_total(v)) for k, v in value.items()))
    return (6, type(value).__name__, repr(value))


class Sort(Plan):
    """ORDER BY.  NULLs sort first ascending, last descending.

    Ordering is total: mixed-type key columns rank by type class (via
    :func:`sort_key_total`) instead of raising ``TypeError``.
    """

    def __init__(self, child: Plan, keys: Sequence[tuple[str, bool]]) -> None:
        self.child = child
        self.keys = list(keys)

    def rows(self, source: TableProvider, lineage: bool = False) -> Iterator[Row]:
        rows = list(self.child.rows(source, lineage))
        # Stable multi-key sort: apply keys right-to-left.
        for name, ascending in reversed(self.keys):
            ref = ColumnRef(name)

            def sort_key(row: Row, ref: ColumnRef = ref) -> tuple[Any, ...]:
                return sort_key_total(ref.eval(row))

            rows.sort(key=sort_key, reverse=not ascending)
        return iter(rows)

    def children(self) -> tuple[Plan, ...]:
        return (self.child,)

    def output_columns(self, source: TableProvider) -> set[str] | None:
        return self.child.output_columns(source)


class Limit(Plan):
    """LIMIT/OFFSET."""

    def __init__(self, child: Plan, count: int, offset: int = 0) -> None:
        if count < 0 or offset < 0:
            raise DatabaseError("LIMIT/OFFSET must be non-negative")
        self.child = child
        self.count = count
        self.offset = offset

    def rows(self, source: TableProvider, lineage: bool = False) -> Iterator[Row]:
        it = self.child.rows(source, lineage)
        for _ in range(self.offset):
            try:
                next(it)
            except StopIteration:
                return
        for i, row in enumerate(it):
            if i >= self.count:
                return
            yield row

    def children(self) -> tuple[Plan, ...]:
        return (self.child,)

    def output_columns(self, source: TableProvider) -> set[str] | None:
        return self.child.output_columns(source)


def _row_key(row: Row) -> tuple[tuple[str, Any], ...]:
    return tuple(sorted((k, v) for k, v in row.items() if not k.startswith("__")))


class Distinct(Plan):
    """Duplicate elimination over visible columns.

    The first occurrence is the row that survives, and with it its
    lineage: the key ignores hidden fields, lineage included.
    """

    def __init__(self, child: Plan) -> None:
        self.child = child

    def rows(self, source: TableProvider, lineage: bool = False) -> Iterator[Row]:
        seen = _DedupSet()
        for row in self.child.rows(source, lineage):
            if seen.add(_row_key(row)):
                yield row

    def children(self) -> tuple[Plan, ...]:
        return (self.child,)

    def output_columns(self, source: TableProvider) -> set[str] | None:
        return self.child.output_columns(source)


class Union(Plan):
    """UNION (set) or UNION ALL (bag); as :class:`Distinct`, the first
    occurrence of a UNION row survives with its own lineage."""

    def __init__(self, left: Plan, right: Plan, all: bool = False) -> None:
        self.left = left
        self.right = right
        self.all = all

    def rows(self, source: TableProvider, lineage: bool = False) -> Iterator[Row]:
        if self.all:
            yield from self.left.rows(source, lineage)
            yield from self.right.rows(source, lineage)
            return
        seen = _DedupSet()
        for row in self.left.rows(source, lineage):
            if seen.add(_row_key(row)):
                yield row
        for row in self.right.rows(source, lineage):
            if seen.add(_row_key(row)):
                yield row

    def children(self) -> tuple[Plan, ...]:
        return (self.left, self.right)

    def output_columns(self, source: TableProvider) -> set[str] | None:
        return self.left.output_columns(source)


class Difference(Plan):
    """Set difference (EXCEPT).

    Output rows come from the left input and carry its lineage only: the
    right side is why-*not* provenance, which lineage does not record.
    """

    def __init__(self, left: Plan, right: Plan) -> None:
        self.left = left
        self.right = right

    def rows(self, source: TableProvider, lineage: bool = False) -> Iterator[Row]:
        exclude = _DedupSet()
        for r in self.right.rows(source):
            exclude.add(_row_key(r))
        seen = _DedupSet()
        for row in self.left.rows(source, lineage):
            key = _row_key(row)
            if key not in exclude and seen.add(key):
                yield row

    def children(self) -> tuple[Plan, ...]:
        return (self.left, self.right)

    def output_columns(self, source: TableProvider) -> set[str] | None:
        return self.left.output_columns(source)


class MapRows(Plan):
    """Apply an arbitrary row transformation (procedure escape hatch).

    ``fn`` is opaque, so its result is taken to derive from its argument
    and nothing else: the output row has the input row's lineage.
    """

    def __init__(self, child: Plan, fn: Callable[[Row], Row], label: str = "map") -> None:
        self.child = child
        self.fn = fn
        self.label = label

    def rows(self, source: TableProvider, lineage: bool = False) -> Iterator[Row]:
        fn = self.fn
        for row in self.child.rows(source, lineage):
            out = fn(row)
            if lineage:
                out = {**out, LIN: row[LIN]}
            yield out

    def children(self) -> tuple[Plan, ...]:
        return (self.child,)


def plan_node_label(plan: Plan) -> str:
    """One operator's EXPLAIN label: type name plus operator detail.

    This is the exact text :func:`format_plan` puts on the operator's
    line (sans indentation and row suffix), shared with
    :func:`operator_rows` so plan-level and span-level views of the same
    query agree character for character.
    """
    custom = getattr(plan, "explain_label", None)
    if custom is not None:
        # Vectorized operators (repro.db.vector) label themselves; the
        # duck-typed hook keeps this module free of an import cycle.
        return custom
    label = type(plan).__name__
    detail = ""
    if isinstance(plan, Scan):
        detail = f" {plan.table_name}" + (f" AS {plan.alias}" if plan.alias else "")
    elif isinstance(plan, IndexScan):
        detail = f" {plan.table_name}.{plan.column} = {plan.value!r}"
    elif isinstance(plan, CompositeIndexScan):
        pairs = ", ".join(
            f"{c} = {v!r}" for c, v in zip(plan.columns, plan.values)
        )
        detail = f" {plan.table_name}: {pairs}"
    elif isinstance(plan, RangeIndexScan):
        detail = f" {plan.table_name}.{plan.column} in {plan.bounds_repr()}"
    elif isinstance(plan, Select):
        detail = f" {plan.predicate!r}"
    elif isinstance(plan, Project):
        detail = f" {[name for name, _ in plan.items]}"
    elif isinstance(plan, HashJoin):
        detail = f" {plan.left_on} = {plan.right_on} ({plan.how})"
    elif isinstance(plan, IndexNestedLoopJoin):
        detail = (
            f" {plan.left_on} = {plan.right_table}.{plan.right_column}"
            f" ({plan.how})"
        )
    elif isinstance(plan, Aggregate):
        aggs = [f"{s.func}({'DISTINCT ' if s.distinct else ''}...) AS {s.name}"
                for s in plan.aggregates]
        detail = f" group_by={plan.group_by} aggs={aggs}"
    elif isinstance(plan, Sort):
        detail = f" {plan.keys}"
    elif isinstance(plan, Limit):
        detail = f" {plan.count} offset {plan.offset}"
    elif isinstance(plan, Union):
        detail = " ALL" if plan.all else ""
    elif isinstance(plan, RowSource):
        detail = f" {plan.label}"
    return f"{label}{detail}"


def operator_rows(plan: Plan, counters: dict[int, int]) -> list[tuple[str, int]]:
    """``(label, rows)`` per operator, in :func:`format_plan` line order.

    The bridge between EXPLAIN ANALYZE and the tracing layer: executing
    an instrumented plan fills ``counters``; this flattens them into the
    same pre-order walk ``format_plan`` renders, so span attributes and
    the printed plan describe the operators identically.
    """
    out = [(_analyzed_label(plan), counters.get(id(plan), 0))]
    for child in plan.children():
        out.extend(operator_rows(child, counters))
    return out


def _analyzed_label(plan: Plan) -> str:
    """The label plus what the operator reports of its last execution
    (``analyze_note``; the vectorized aggregate's reused chunks)."""
    note = getattr(plan, "analyze_note", None)
    label = plan_node_label(plan)
    return label if note is None else f"{label} {note()}"


def format_plan(
    plan: Plan, indent: int = 0, counters: dict[int, int] | None = None
) -> str:
    """Render a plan tree, one operator per line (EXPLAIN output).

    When ``counters`` (from :func:`instrument_plan`) is given, each line is
    suffixed with ``(rows=N)`` -- the number of rows the operator produced
    during execution (EXPLAIN ANALYZE output) -- after any note the
    operator keeps of that execution (``reused=k/n chunks``).
    """
    pad = "  " * indent
    if counters is None:
        line = plan_node_label(plan)
    else:
        line = f"{_analyzed_label(plan)} (rows={counters.get(id(plan), 0)})"
    lines = [f"{pad}{line}"]
    for child in plan.children():
        lines.append(format_plan(child, indent + 1, counters))
    return "\n".join(lines)


class _Counted(Plan):
    """Wrapper that counts the rows an operator yields (EXPLAIN ANALYZE)."""

    def __init__(self, inner: Plan, original_id: int, counters: dict[int, int]) -> None:
        self.inner = inner
        self.original_id = original_id
        self.counters = counters

    def rows(self, source: TableProvider, lineage: bool = False) -> Iterator[Row]:
        counters = self.counters
        key = self.original_id
        for row in self.inner.rows(source, lineage):
            counters[key] = counters.get(key, 0) + 1
            yield row

    def children(self) -> tuple[Plan, ...]:
        return self.inner.children()

    def base_tables(self) -> set[str]:
        return self.inner.base_tables()

    def output_columns(self, source: TableProvider) -> set[str] | None:
        return self.inner.output_columns(source)


def instrument_plan(plan: Plan) -> tuple[Plan, dict[int, int]]:
    """Wrap every operator of ``plan`` with a row counter.

    Returns ``(instrumented_plan, counters)``.  Executing the instrumented
    plan fills ``counters`` keyed by ``id(original_node)``, so the counts
    can be rendered back onto the *original* tree via
    ``format_plan(plan, counters=counters)``.  The original tree is left
    untouched (nodes are shallow-copied before their child links are
    rewritten).
    """
    counters: dict[int, int] = {}

    def wrap(node: Plan) -> Plan:
        attach = getattr(node, "attach_counters", None)
        if attach is not None:
            # Vectorized subtrees count rows chunk-wise inside their own
            # operators (keyed by the original node ids, so format_plan
            # on the untouched tree still lines up); the wrapper clone
            # only counts the subtree's final output.
            return _Counted(attach(counters), id(node), counters)
        clone = copy.copy(node)
        for attr in ("child", "left", "right"):
            sub = getattr(clone, attr, None)
            if isinstance(sub, Plan):
                setattr(clone, attr, wrap(sub))
        return _Counted(clone, id(node), counters)

    return wrap(plan), counters


#: Operators that reach rows through an index rather than a table scan.
_INDEXED_OPERATORS = (IndexLeaf, IndexNestedLoopJoin)


def plan_access_kind(plan: Plan) -> str:
    """``"vectorized"``/``"routed"``/``"scan"`` access classification.

    ``"vectorized"`` when the plan executes on the columnar batch engine,
    ``"routed"`` when any operator uses an index, else ``"scan"``.  The
    observability layer tags every executed SELECT with this, so a
    metrics snapshot shows at a glance whether hot statements are being
    served by the vectorized engine, the router, or full scans.
    """
    stack: list[Plan] = [plan]
    while stack:
        node = stack.pop()
        if getattr(node, "engine", None) == "vectorized":
            return "vectorized"
        if isinstance(node, _INDEXED_OPERATORS):
            return "routed"
        stack.extend(node.children())
    return "scan"
