"""Vectorized (columnar batch) query execution.

This module is the batch counterpart of :mod:`repro.db.algebra`: the same
operator semantics, but processing :class:`Batch` objects (dicts of
parallel column arrays from :class:`repro.db.columnar.ColumnStore`)
instead of per-row dicts.  List comprehensions and builtins over parallel
arrays run at C speed, which is where the 10-100x wins on large scans,
filters, and aggregates come from.

Three invariants keep both engines interchangeable:

* **Byte-identical results.**  Every vectorized operator replicates the
  row engine's observable semantics exactly -- NULL handling, group
  first-occurrence order, ``{**lrow, **rrow}`` join overlap rules, SUM
  accumulation order (the row engine's left fold, written out; C
  ``sum()`` only over integer columns, where every grouping is exact),
  tie-keeping MIN/MAX, dict key order of emitted rows.
  ``tests/db/engines.py`` holds the oracle that runs both and diffs.
* **Silent translation fallback.**  :func:`vectorize_plan` returns None
  for plans it cannot translate (index scans, lambdas, set operations);
  the router keeps the row plan.
* **Engine chosen per execution.**  A translated plan checks on every
  run that each base table is a real :class:`~repro.db.table.Table`
  (isolation snapshots wrap tables in non-Table proxies) and that
  together they are large enough to repay chunk set-up; otherwise, or if
  a join's shape turns ragged mid-run (the internal ``_Fallback``), the
  wrapper transparently executes the row plan instead.

Documented, deliberate divergences from the row engine (SQL permits all
of them; the oracle's property tests avoid them):

* ``AND``/``OR`` evaluate both sides column-at-a-time, so a right-hand
  side the row engine would have short-circuited past may raise here
  (predicate reordering).
* MIN/MAX over values with no total order (NaN, sets) may pick another
  extreme on a memo-served re-run: merging a chunk's kept extreme is not
  comparing its values one at a time, as both engines' fold does.
"""

from __future__ import annotations

import copy
from collections import Counter
from itertools import compress
from typing import Any, Callable, Iterator

from ..errors import UnknownColumnError
from .algebra import (
    Aggregate,
    Distinct,
    HashJoin,
    KeepAll,
    LIN,
    Limit,
    Lineage,
    Plan,
    Project,
    Row,
    Scan,
    Select,
    Sort,
    TableProvider,
    evaluate_predicate,
    sort_key_total,
)
from .aggstate import MERGEABLE_SUM_KINDS, _DedupSet, new_states, put_results
from .columnar import K_NULL
from .schema import TID
from .expression import (
    And,
    Arithmetic,
    ColumnRef,
    Comparison,
    Expression,
    FunctionCall,
    InList,
    InSet,
    IsNull,
    Literal,
    Negate,
    Not,
    Or,
    Param,
    _ARITH_OPS,
    _CMP_OPS,
    _FUNCTIONS,
    has_param,
    values_maker,
)
from .table import Table


class Unvectorizable(Exception):
    """Raised at translation time: this plan shape has no batch form."""


class _Fallback(Exception):
    """Raised at execution time: re-run the row plan instead."""


class Batch:
    """One chunk of rows in column-major form.

    ``columns`` maps column name to a parallel value list of length
    ``n``; alias-qualified keys (``t.col``) may share the same list
    object as their plain counterpart.  ``kinds`` optionally carries the
    column store's advisory type tags (see :mod:`repro.db.columnar`);
    operators that cannot cheaply preserve them drop them to None.

    ``lin`` is the lineage sidecar: when a plan executes under lineage
    capture, each batch carries one entry per row -- a tuple of
    ``(table, tid)`` pairs naming the base tuples that produced that row.
    Operators thread it through exactly like a column (filtered, sliced,
    reordered, concatenated on joins, unioned on aggregation).

    ``origin`` is the stamp of the full column chunk this batch is a pure
    function of, for a fixed plan (see :mod:`repro.db.columnar`), or None.
    :class:`VScan` sets it; :class:`VFilter` and :class:`VProject` pass
    it on; every other operator's output has none.
    """

    __slots__ = ("columns", "n", "kinds", "lin", "origin")

    def __init__(
        self,
        columns: dict[str, list[Any]],
        n: int,
        kinds: dict[str, int] | None = None,
        lin: list[tuple] | None = None,
        origin: int | None = None,
    ) -> None:
        self.columns = columns
        self.n = n
        self.kinds = kinds
        self.lin = lin
        self.origin = origin


def batch_rows(batch: Batch) -> list[Row]:
    """Transpose a batch back into row dicts (batch column key order)."""
    columns = batch.columns
    if not columns:
        return [{} for _ in range(batch.n)]
    return list(map(values_maker(tuple(columns)), *columns.values()))


def rows_to_batch(rows: list[Row]) -> Batch | None:
    """Column-ize uniform row dicts (operator outputs); None when empty."""
    if not rows:
        return None
    names = list(rows[0])
    return Batch({n: [r[n] for r in rows] for n in names}, len(rows))


def _resolve(batch: Batch, name: str) -> list[Any]:
    """Column lookup with the row engine's qualified-suffix fallback."""
    col = batch.columns.get(name)
    if col is None:
        if "." in name:
            col = batch.columns.get(name.split(".", 1)[1])
        if col is None:
            raise UnknownColumnError(
                f"no column {name!r} in row with columns {sorted(batch.columns)}"
            )
    return col


def _resolve_with_kind(batch: Batch, name: str) -> tuple[list[Any], int | None]:
    """Like :func:`_resolve`, also returning the column's type tag."""
    used = name
    col = batch.columns.get(name)
    if col is None:
        if "." in name:
            used = name.split(".", 1)[1]
            col = batch.columns.get(used)
        if col is None:
            raise UnknownColumnError(
                f"no column {name!r} in row with columns {sorted(batch.columns)}"
            )
    kinds = batch.kinds
    return col, (kinds.get(used) if kinds is not None else None)


# ----------------------------------------------------------------------
# Vector expression compiler: Expression -> Callable[[Batch], list]

VecFn = Callable[[Batch], list]


def _boolean(fn: VecFn) -> VecFn:
    """Mark a compiled evaluator as producing only True/False/None.

    For such masks truthiness coincides with ``is True`` (the row
    engine's selection test), so :class:`VFilter` may select survivors
    with C-speed :func:`itertools.compress` instead of a Python loop.
    """
    fn.boolean = True  # type: ignore[attr-defined]
    return fn


# Column-vs-literal comparisons are the hottest filter shape; inline
# comparison bytecode beats a per-element ``operator.*`` call by ~2x.
# One variant per op for NULL-free columns (proven by the type tag), one
# with the row engine's NULL-propagation test.
_CMP_COL_LIT_NONULL: dict[str, Callable[[list, Any], list]] = {
    "=": lambda col, rv: [a == rv for a in col],
    "!=": lambda col, rv: [a != rv for a in col],
    "<": lambda col, rv: [a < rv for a in col],
    "<=": lambda col, rv: [a <= rv for a in col],
    ">": lambda col, rv: [a > rv for a in col],
    ">=": lambda col, rv: [a >= rv for a in col],
}
_CMP_COL_LIT_NULLS: dict[str, Callable[[list, Any], list]] = {
    "=": lambda col, rv: [None if a is None else a == rv for a in col],
    "!=": lambda col, rv: [None if a is None else a != rv for a in col],
    "<": lambda col, rv: [None if a is None else a < rv for a in col],
    "<=": lambda col, rv: [None if a is None else a <= rv for a in col],
    ">": lambda col, rv: [None if a is None else a > rv for a in col],
    ">=": lambda col, rv: [None if a is None else a >= rv for a in col],
}


def _scalar(expr: Expression) -> Callable[[], Any] | None:
    """A reader of ``expr``'s one value when it reads no column: a
    literal's constant, or the value bound to a ``?`` slot, read each
    time the compiled closure runs (never captured here: one compiled
    plan serves every binding)."""
    if isinstance(expr, Literal):
        value = expr.value
        return lambda: value
    if isinstance(expr, Param):
        return expr.current
    return None


def compile_expr(expr: Expression) -> VecFn:
    """Compile a row expression into a whole-column evaluator.

    The returned closure maps a :class:`Batch` to a value list of length
    ``batch.n``, with exactly the row evaluator's NULL semantics.
    Raises :class:`Unvectorizable` for :class:`Lambda` and unknown
    expression types.
    """
    scalar = _scalar(expr)
    if scalar is not None:
        return lambda batch: [scalar()] * batch.n
    if isinstance(expr, ColumnRef):
        name = expr.name

        def ref(batch: Batch, name: str = name) -> list:
            return _resolve(batch, name)

        return ref
    if isinstance(expr, Comparison):
        op = _CMP_OPS[expr.op]
        if any(
            isinstance(side, Literal) and side.value is None
            for side in (expr.left, expr.right)
        ):
            return _boolean(lambda batch: [None] * batch.n)
        right = _scalar(expr.right)
        if right is not None:
            if isinstance(expr.left, ColumnRef):
                name = expr.left.name
                fast = _CMP_COL_LIT_NONULL[expr.op]
                slow = _CMP_COL_LIT_NULLS[expr.op]

                def cmp_col_lit(
                    batch: Batch,
                    name: str = name,
                    right: Callable[[], Any] = right,
                    fast: Any = fast,
                    slow: Any = slow,
                ) -> list:
                    rv = right()
                    if rv is None:
                        return [None] * batch.n
                    col, kind = _resolve_with_kind(batch, name)
                    if kind is not None and not kind & K_NULL:
                        # Type tag proves no NULL was ever stored: skip
                        # the per-value None test.
                        return fast(col, rv)
                    return slow(col, rv)

                return _boolean(cmp_col_lit)
            lf = compile_expr(expr.left)

            def cmp_lit(
                batch: Batch, lf: VecFn = lf, op: Any = op, right: Callable[[], Any] = right
            ) -> list:
                rv = right()
                if rv is None:
                    return [None] * batch.n
                return [None if a is None else op(a, rv) for a in lf(batch)]

            return _boolean(cmp_lit)
        left = _scalar(expr.left)
        if left is not None:
            rf = compile_expr(expr.right)

            def cmp_lit_l(
                batch: Batch, rf: VecFn = rf, op: Any = op, left: Callable[[], Any] = left
            ) -> list:
                lv = left()
                if lv is None:
                    return [None] * batch.n
                return [None if b is None else op(lv, b) for b in rf(batch)]

            return _boolean(cmp_lit_l)
        lf = compile_expr(expr.left)
        rf = compile_expr(expr.right)

        def cmp(batch: Batch, lf: VecFn = lf, rf: VecFn = rf, op: Any = op) -> list:
            return [
                None if a is None or b is None else op(a, b)
                for a, b in zip(lf(batch), rf(batch))
            ]

        return _boolean(cmp)
    if isinstance(expr, And):
        lf = compile_expr(expr.left)
        rf = compile_expr(expr.right)

        def and_(batch: Batch, lf: VecFn = lf, rf: VecFn = rf) -> list:
            out = []
            append = out.append
            for a, b in zip(lf(batch), rf(batch)):
                if a is False or b is False:
                    append(False)
                elif a is None or b is None:
                    append(None)
                else:
                    append(True)
            return out

        return _boolean(and_)
    if isinstance(expr, Or):
        lf = compile_expr(expr.left)
        rf = compile_expr(expr.right)

        def or_(batch: Batch, lf: VecFn = lf, rf: VecFn = rf) -> list:
            out = []
            append = out.append
            for a, b in zip(lf(batch), rf(batch)):
                if a is True or b is True:
                    append(True)
                elif a is None or b is None:
                    append(None)
                else:
                    append(False)
            return out

        return _boolean(or_)
    if isinstance(expr, Not):
        of = compile_expr(expr.operand)

        def not_(batch: Batch, of: VecFn = of) -> list:
            return [None if v is None else not v for v in of(batch)]

        return _boolean(not_)
    if isinstance(expr, IsNull):
        of = compile_expr(expr.operand)
        if expr.negate:
            return _boolean(lambda batch, of=of: [v is not None for v in of(batch)])
        return _boolean(lambda batch, of=of: [v is None for v in of(batch)])
    if isinstance(expr, Arithmetic):
        op = _ARITH_OPS[expr.op]
        guarded = expr.op in ("/", "%")
        lf = compile_expr(expr.left)
        rf = compile_expr(expr.right)

        def arith(
            batch: Batch, lf: VecFn = lf, rf: VecFn = rf, op: Any = op, guarded: bool = guarded
        ) -> list:
            out = []
            append = out.append
            for a, b in zip(lf(batch), rf(batch)):
                if a is None or b is None:
                    append(None)
                elif guarded and b == 0:
                    append(None)
                else:
                    append(op(a, b))
            return out

        return arith
    if isinstance(expr, Negate):
        of = compile_expr(expr.operand)
        return lambda batch, of=of: [None if v is None else -v for v in of(batch)]
    if isinstance(expr, (InList, InSet)):
        of = compile_expr(expr.operand)
        negate = expr.negate
        if isinstance(expr, InSet):
            members: Any = expr.values
        else:
            members = expr._set if expr._set is not None else expr.values

        def in_(
            batch: Batch, of: VecFn = of, members: Any = members, negate: bool = negate
        ) -> list:
            out = []
            append = out.append
            for v in of(batch):
                if v is None:
                    append(None)
                else:
                    found = v in members
                    append(not found if negate else found)
            return out

        return _boolean(in_)
    if isinstance(expr, FunctionCall):
        argfns = [compile_expr(a) for a in expr.args]
        func = _FUNCTIONS[expr.name]
        coalesce = expr.name == "COALESCE"

        def call(
            batch: Batch,
            argfns: list[VecFn] = argfns,
            func: Any = func,
            coalesce: bool = coalesce,
        ) -> list:
            if not argfns:
                return [func()] * batch.n
            cols = [fn(batch) for fn in argfns]
            if coalesce:
                return [func(*vs) for vs in zip(*cols)]
            return [
                None if any(v is None for v in vs) else func(*vs)
                for vs in zip(*cols)
            ]

        return call
    raise Unvectorizable(f"expression {type(expr).__name__} has no vector form")


# ----------------------------------------------------------------------
# Batch operators


class VOp:
    """Base class for vectorized operators.

    Duck-compatible with :class:`~repro.db.algebra.Plan` where EXPLAIN
    needs it (``children``/``base_tables``/``explain_label``) without
    importing this module into algebra.  ``batches`` pulls column chunks;
    when ``counters`` is given each operator adds the rows of every chunk
    it emits under ``id(self)`` (the per-chunk row counters EXPLAIN
    ANALYZE renders).
    """

    engine = "vectorized"
    explain_label = "VOp"

    def batches(
        self,
        source: TableProvider,
        counters: dict[int, int] | None,
        lineage: bool = False,
    ) -> Iterator[Batch]:
        raise NotImplementedError

    def children(self) -> tuple["VOp", ...]:
        return ()

    def base_tables(self) -> set[str]:
        out: set[str] = set()
        for child in self.children():
            out |= child.base_tables()
        return out

    def output_columns(self, source: TableProvider) -> set[str] | None:
        return None

    def _count(self, counters: dict[int, int] | None, n: int) -> None:
        if counters is not None:
            key = id(self)
            counters[key] = counters.get(key, 0) + n


class VScan(VOp):
    """Columnar scan of a stored table, with needed-column pruning.

    Emits one batch per live column chunk, in tid order, carrying the
    same keys (plain, hidden, alias-qualified) row scans produce --
    restricted to ``needed`` when the plan above proves only a subset is
    referenced.  Alias-qualified keys share the plain key's list object.
    """

    def __init__(self, table: str, alias: str | None, needed: set[str] | None) -> None:
        self.table_name = table
        self.alias = alias
        self.needed = needed

    @property
    def explain_label(self) -> str:
        alias = f" AS {self.alias}" if self.alias else ""
        return f"VScan {self.table_name}{alias}"

    def base_tables(self) -> set[str]:
        return {self.table_name}

    def batches(
        self,
        source: TableProvider,
        counters: dict[int, int] | None,
        lineage: bool = False,
    ) -> Iterator[Batch]:
        store = source.table(self.table_name).column_store()
        needed = self.needed
        alias = self.alias
        tname = self.table_name
        emit: list[tuple[str, str]] | None = None
        kinds: dict[str, int] | None = None
        for cols, n, stamp in store.scan():
            if emit is None:
                emit = []
                for name in store.names:
                    if needed is None or name in needed:
                        emit.append((name, name))
                if alias is not None:
                    for name in store.names:
                        if name.startswith("__"):
                            continue
                        qualified = f"{alias}.{name}"
                        if needed is None or qualified in needed:
                            emit.append((qualified, name))
                types = store.types
                kinds = {key: types[src] for key, src in emit}
            self._count(counters, n)
            lin = None
            if lineage:
                # Chunks always carry the hidden tid column even when the
                # emit pruning drops it: lineage seeds are nearly free.
                lin = [((tname, tid),) for tid in cols[TID]]
            yield Batch({key: cols[src] for key, src in emit}, n, kinds, lin, stamp)


class VFilter(VOp):
    """Selection: keep rows whose predicate is exactly True.

    Compresses surviving rows with a selection vector; a chunk that
    passes intact is forwarded zero-copy.  Alias-qualified keys sharing a
    plain key's list are compressed once (dedup by list identity).
    """

    def __init__(self, child: VOp, predicate: Expression) -> None:
        self.child = child
        self.predicate = predicate
        self._fn = compile_expr(predicate)
        self._boolean_mask = getattr(self._fn, "boolean", False)

    @property
    def explain_label(self) -> str:
        return f"VFilter {self.predicate!r}"

    def children(self) -> tuple[VOp, ...]:
        return (self.child,)

    def batches(
        self,
        source: TableProvider,
        counters: dict[int, int] | None,
        lineage: bool = False,
    ) -> Iterator[Batch]:
        fn = self._fn
        boolean_mask = self._boolean_mask
        for batch in self.child.batches(source, counters, lineage):
            mask = fn(batch)
            if boolean_mask:
                # Mask holds only True/False/None, where truthiness is
                # exactly ``is True``: compress runs at C speed.
                live = list(compress(range(batch.n), mask))
            else:
                live = [i for i, m in enumerate(mask) if m is True]
            if not live:
                continue
            if len(live) == batch.n:
                self._count(counters, batch.n)
                yield batch
                continue
            shared: dict[int, list[Any]] = {}
            columns: dict[str, list[Any]] = {}
            for name, col in batch.columns.items():
                key = id(col)
                packed = shared.get(key)
                if packed is None:
                    packed = [col[i] for i in live]
                    shared[key] = packed
                columns[name] = packed
            self._count(counters, len(live))
            blin = batch.lin
            lin = [blin[i] for i in live] if blin is not None else None
            yield Batch(columns, len(live), batch.kinds, lin, batch.origin)


class VProject(VOp):
    """Projection with computed items (one compiled evaluator per item)."""

    def __init__(self, child: VOp, items: list[tuple[str, Expression]]) -> None:
        self.child = child
        self.items = items
        self._fns = [(name, compile_expr(expr)) for name, expr in items]
        # Identity pass-throughs keep their column's type tag: the tag
        # describes the value list itself, which ref() forwards intact.
        self._passthrough = {
            name: expr.name
            for name, expr in items
            if isinstance(expr, ColumnRef)
        }

    @property
    def explain_label(self) -> str:
        return f"VProject {[name for name, _ in self.items]}"

    def children(self) -> tuple[VOp, ...]:
        return (self.child,)

    def _project_kinds(self, kinds: dict[str, int] | None) -> dict[str, int] | None:
        if kinds is None or not self._passthrough:
            return None
        out: dict[str, int] = {}
        for name, src in self._passthrough.items():
            kind = kinds.get(src)
            if kind is None and "." in src:
                kind = kinds.get(src.split(".", 1)[1])
            if kind is not None:
                out[name] = kind
        return out or None

    def batches(
        self,
        source: TableProvider,
        counters: dict[int, int] | None,
        lineage: bool = False,
    ) -> Iterator[Batch]:
        fns = self._fns
        for batch in self.child.batches(source, counters, lineage):
            self._count(counters, batch.n)
            yield Batch(
                {name: fn(batch) for name, fn in fns},
                batch.n,
                self._project_kinds(batch.kinds),
                batch.lin,
                batch.origin,
            )


class VKeepAll(VOp):
    """Identity projection stripping hidden and alias-qualified keys."""

    explain_label = "VKeepAll"

    def __init__(self, child: VOp) -> None:
        self.child = child

    def children(self) -> tuple[VOp, ...]:
        return (self.child,)

    def batches(
        self,
        source: TableProvider,
        counters: dict[int, int] | None,
        lineage: bool = False,
    ) -> Iterator[Batch]:
        for batch in self.child.batches(source, counters, lineage):
            columns = {
                k: v
                for k, v in batch.columns.items()
                if not k.startswith("__") and "." not in k
            }
            self._count(counters, batch.n)
            yield Batch(columns, batch.n, batch.kinds, batch.lin)


class VLimit(VOp):
    """LIMIT/OFFSET over the batch stream."""

    def __init__(self, child: VOp, count: int, offset: int) -> None:
        self.child = child
        self.count = count
        self.offset = offset

    @property
    def explain_label(self) -> str:
        return f"VLimit {self.count} offset {self.offset}"

    def children(self) -> tuple[VOp, ...]:
        return (self.child,)

    def batches(
        self,
        source: TableProvider,
        counters: dict[int, int] | None,
        lineage: bool = False,
    ) -> Iterator[Batch]:
        skip = self.offset
        remaining = self.count
        if remaining <= 0:
            return
        for batch in self.child.batches(source, counters, lineage):
            start = 0
            if skip:
                if batch.n <= skip:
                    skip -= batch.n
                    continue
                start = skip
                skip = 0
            take = min(batch.n - start, remaining)
            if start == 0 and take == batch.n:
                out = batch
            else:
                stop = start + take
                blin = batch.lin
                out = Batch(
                    {k: v[start:stop] for k, v in batch.columns.items()},
                    take,
                    batch.kinds,
                    blin[start:stop] if blin is not None else None,
                )
            remaining -= take
            self._count(counters, take)
            yield out
            if remaining <= 0:
                return


class VDistinct(VOp):
    """Duplicate elimination over visible columns (row-key semantics)."""

    explain_label = "VDistinct"

    def __init__(self, child: VOp) -> None:
        self.child = child

    def children(self) -> tuple[VOp, ...]:
        return (self.child,)

    def batches(
        self,
        source: TableProvider,
        counters: dict[int, int] | None,
        lineage: bool = False,
    ) -> Iterator[Batch]:
        seen = _DedupSet()
        for batch in self.child.batches(source, counters, lineage):
            visible = sorted(
                name for name in batch.columns if not name.startswith("__")
            )
            cols = [batch.columns[name] for name in visible]
            live = []
            for i in range(batch.n):
                key = tuple((name, col[i]) for name, col in zip(visible, cols))
                if seen.add(key):
                    live.append(i)
            if not live:
                continue
            if len(live) == batch.n:
                out = batch
            else:
                shared: dict[int, list[Any]] = {}
                columns: dict[str, list[Any]] = {}
                for name, col in batch.columns.items():
                    ckey = id(col)
                    packed = shared.get(ckey)
                    if packed is None:
                        packed = [col[i] for i in live]
                        shared[ckey] = packed
                    columns[name] = packed
                blin = batch.lin
                # First occurrence wins, matching the row engine: the
                # surviving row keeps its own lineage.
                lin = [blin[i] for i in live] if blin is not None else None
                out = Batch(columns, len(live), batch.kinds, lin)
            self._count(counters, out.n)
            yield out


class VSort(VOp):
    """ORDER BY via stable index sorts on :func:`sort_key_total` keys."""

    def __init__(self, child: VOp, keys: list[tuple[str, bool]]) -> None:
        self.child = child
        self.keys = keys

    @property
    def explain_label(self) -> str:
        return f"VSort {self.keys}"

    def children(self) -> tuple[VOp, ...]:
        return (self.child,)

    def batches(
        self,
        source: TableProvider,
        counters: dict[int, int] | None,
        lineage: bool = False,
    ) -> Iterator[Batch]:
        batches = list(self.child.batches(source, counters, lineage))
        if not batches:
            return
        columns: dict[str, list[Any]] = {
            k: list(v) for k, v in batches[0].columns.items()
        }
        total = batches[0].n
        merged_lin: list[tuple] | None = None
        if batches[0].lin is not None:
            merged_lin = list(batches[0].lin)
        for batch in batches[1:]:
            for k, v in batch.columns.items():
                columns[k].extend(v)
            if merged_lin is not None and batch.lin is not None:
                merged_lin.extend(batch.lin)
            total += batch.n
        merged = Batch(columns, total)
        order = list(range(total))
        # Stable multi-key sort, right-to-left, same as the row engine.
        for name, ascending in reversed(self.keys):
            keycol = _resolve(merged, name)
            sort_keys = [sort_key_total(v) for v in keycol]
            order.sort(key=sort_keys.__getitem__, reverse=not ascending)
        out = Batch(
            {k: [v[i] for i in order] for k, v in columns.items()},
            total,
            None,
            [merged_lin[i] for i in order] if merged_lin is not None else None,
        )
        self._count(counters, total)
        yield out


class VHashJoin(VOp):
    """Equi-join building a hash table over the materialized right input.

    Replicates ``{**lrow, **rrow}`` semantics column-wise: on overlapping
    names matched rows take the right value and unmatched LEFT-join rows
    keep the left value; right-only visible columns pad with NULL.  A
    LEFT join whose right side carries hidden columns the left side lacks
    cannot be expressed as uniform batches (the row engine emits ragged
    dicts there) -- it raises ``_Fallback``.
    """

    def __init__(
        self,
        left: VOp,
        right: VOp,
        left_on: str,
        right_on: str,
        how: str,
        orig: HashJoin,
    ) -> None:
        self.left = left
        self.right = right
        self.left_on = left_on
        self.right_on = right_on
        self.how = how
        self.orig = orig

    @property
    def explain_label(self) -> str:
        return f"VHashJoin {self.left_on} = {self.right_on} ({self.how})"

    def children(self) -> tuple[VOp, ...]:
        return (self.left, self.right)

    def batches(
        self,
        source: TableProvider,
        counters: dict[int, int] | None,
        lineage: bool = False,
    ) -> Iterator[Batch]:
        rcols: dict[str, list[Any]] = {}
        rn = 0
        rlin: list[tuple] | None = [] if lineage else None
        for batch in self.right.batches(source, counters, lineage):
            if not rcols:
                rcols = {k: list(v) for k, v in batch.columns.items()}
            else:
                for k, v in batch.columns.items():
                    rcols[k].extend(v)
            if rlin is not None and batch.lin is not None:
                rlin.extend(batch.lin)
            rn += batch.n
        left_join = self.how == "left"
        buckets: dict[Any, list[int]] = {}
        if rn:
            rkeys = _resolve(Batch(rcols, rn), self.right_on)
            appends: dict[Any, Callable[[int], None]] = {}
            for j, key in enumerate(rkeys):
                if key is None:
                    continue
                try:
                    appends[key](j)
                except KeyError:
                    bucket = [j]
                    buckets[key] = bucket
                    appends[key] = bucket.append
        pad_names: set[str] = set()
        if left_join:
            pad_names = {k for k in rcols if not k.startswith("__")}
            if not pad_names:
                derived = self.orig.right.output_columns(source)
                if derived:
                    pad_names = {c for c in derived if not c.startswith("__")}
                else:
                    pad_names = self.orig._schema_columns(source)
        for lbatch in self.left.batches(source, counters, lineage):
            lcols = lbatch.columns
            if left_join:
                ragged = [
                    k for k in rcols if k.startswith("__") and k not in lcols
                ]
                if ragged:
                    raise _Fallback(f"ragged left join columns {ragged}")
            lkeys = _resolve(lbatch, self.left_on)
            pair_l: list[int] = []
            pair_r: list[int] = []
            push_l = pair_l.append
            push_r = pair_r.append
            for i, key in enumerate(lkeys):
                matches = buckets.get(key) if key is not None else None
                if matches:
                    for j in matches:
                        push_l(i)
                        push_r(j)
                elif left_join:
                    push_l(i)
                    push_r(-1)
            if not pair_l:
                continue
            columns: dict[str, list[Any]] = {}
            for name, lc in lcols.items():
                rc = rcols.get(name)
                if rc is None:
                    columns[name] = [lc[i] for i in pair_l]
                else:
                    columns[name] = [
                        rc[j] if j >= 0 else lc[i]
                        for i, j in zip(pair_l, pair_r)
                    ]
            for name in rcols:
                if name not in lcols:
                    rc = rcols[name]
                    columns[name] = [
                        rc[j] if j >= 0 else None for j in pair_r
                    ]
            for name in sorted(pad_names):
                if name not in columns:
                    columns[name] = [None] * len(pair_l)
            self._count(counters, len(pair_l))
            lin = None
            if lineage and lbatch.lin is not None and rlin is not None:
                llin = lbatch.lin
                lin = [
                    llin[i] + rlin[j] if j >= 0 else llin[i]
                    for i, j in zip(pair_l, pair_r)
                ]
            yield Batch(columns, len(pair_l), None, lin)


#: A chunk's partial is kept only while it has at most this many groups
#: per row: a GROUP BY on a key would otherwise pin an O(rows) memo on a
#: cached plan.
MEMO_MAX_GROUPS_PER_ROW = 0.25


class VAggregate(VOp):
    """GROUP BY + aggregates over column chunks.

    Each group folds through the row engine's own
    :class:`~repro.db.aggstate.AggState`, one ``add_many`` per spec per
    batch partition (C ``sum()`` only over a column tagged within
    :data:`MERGEABLE_SUM_KINDS`, see :meth:`_exact_sums`), and groups emit
    in first-occurrence order.  Fast paths: group counts come free from
    the partition lists; a no-NULL column type tag skips the NULL
    pre-filter.  No GROUP BY is the one-key ``()`` case of the same
    per-batch fold.

    Chunk memo: the operator keeps, per chunk stamp (``Batch.origin``),
    the per-group partial it folded from that full chunk, and a re-run of
    the (cached) plan merges a kept partial (``AggState.merge``) instead
    of folding the chunk again.  Only specs whose partials merge exactly
    take this route: COUNT, COUNT(*), MIN, MAX, and SUM/AVG over a column
    tagged within :data:`MERGEABLE_SUM_KINDS`; DISTINCT, any other
    SUM/AVG, lineage capture, a lone COUNT(*) without GROUP BY (an O(1)
    fold), and an aggregate over a ``?`` slot (a filter, projection or
    argument reading one: the partial then depends on the binding, not
    only on the chunk) fold every batch.  Each execution replaces the memo with the
    partials it used, so it holds ints and partials, never chunks, and
    forgets a compacted or rebuilt store's chunks on the next run.

    Prefix: the stamps of the last execution's leading run of kept chunks
    and the groups merged from exactly those.  A re-run whose leading
    batches carry those stamps starts from a copy of that state
    (``AggState.copy``; never mutated once published); a changed stamp
    merges the matched partials.
    """

    def __init__(
        self,
        child: VOp,
        group_by: list[str],
        aggregates: list[Any],
        having: Expression | None,
    ) -> None:
        self.child = child
        self.group_by = group_by
        self.aggregates = aggregates
        self.having = having
        self._argfns: list[VecFn | None] = [
            compile_expr(s.arg) if s.arg is not None else None
            for s in aggregates
        ]
        # The single-value-column fast path applies when every spec with
        # an argument is a plain non-DISTINCT ColumnRef over one shared
        # column name; the partition then buckets values directly.
        names = set()
        general = False
        for spec in aggregates:
            if spec.arg is None:
                continue
            if spec.distinct or not isinstance(spec.arg, ColumnRef):
                general = True
            else:
                names.add(spec.arg.name)
        self._star_only = not names and not general
        # Several distinct names may still resolve to one value list at
        # run time (the planner emits one `__agg_in_N` per spec, and
        # identical ColumnRef projections share the list object), so the
        # shared-column path re-checks by list identity per batch.
        self._arg_names = sorted(names) if names and not general else None
        # A partial folded under one binding of a ``?`` slot is not the
        # partial of the next: with a slot below, every chunk is folded.
        self._memoizable = not (
            _reads_slot(child)
            or any(s.arg is not None and has_param(s.arg) for s in aggregates)
        )
        # stamp -> partial ({key: [star, states]}) from the last execution.
        self._memo: dict[int, dict[Any, list[Any]]] = {}
        # (stamps, groups) of the last execution's leading run of kept chunks.
        self._prefix: tuple[tuple[int, ...], dict[Any, list[Any]]] = ((), {})
        #: (chunks taken from the memo, batches seen) by the last execution.
        self.reused = (0, 0)
        #: Partials the last execution merged one by one (not via the prefix).
        self.merged = 0

    @property
    def explain_label(self) -> str:
        aggs = [
            f"{s.func}({'DISTINCT ' if s.distinct else ''}...) AS {s.name}"
            for s in self.aggregates
        ]
        return f"VAggregate group_by={self.group_by} aggs={aggs}"

    def analyze_note(self) -> str:
        """EXPLAIN ANALYZE detail: the last run's merges and memo hits."""
        k, n = self.reused
        return f"merged={self.merged}, reused={k}/{n} chunks"

    def children(self) -> tuple[VOp, ...]:
        return (self.child,)

    def _group_keys(self, batch: Batch) -> list[Any]:
        """Raw per-row group keys (scalar for one column, tuple beyond)."""
        cols = [_resolve(batch, g) for g in self.group_by]
        if len(cols) == 1:
            return cols[0]
        return list(zip(*cols))

    def _exact_sums(self, batch: Batch) -> list[bool]:
        """Per spec, False for a SUM/AVG over anything but a column tagged
        within :data:`MERGEABLE_SUM_KINDS`: only integer addition is exact
        in any grouping, so only there may C ``sum()`` stand in for the
        left fold, or a kept partial for its chunk."""
        return [
            s.func not in ("SUM", "AVG")
            or isinstance(s.arg, ColumnRef)
            and (kind := _resolve_with_kind(batch, s.arg.name)[1]) is not None
            and not kind & ~MERGEABLE_SUM_KINDS
            for s in self.aggregates
        ]

    def _mergeable(self, batch: Batch) -> bool:
        """True when merging kept partials equals folding (see the class
        docstring).  Type tags are store-wide and fixed for one scan, so
        the first batch decides for the whole execution."""
        specs = self.aggregates
        return not any(s.distinct for s in specs) and all(self._exact_sums(batch))

    @staticmethod
    def _merge(groups: dict[Any, list[Any]], *partials: dict[Any, Any]) -> None:
        """Combine kept partials into ``groups`` as if their chunks had been
        folded there, in order; the partials themselves are left untouched."""
        for partial in partials:
            for key, (star, parts) in partial.items():
                entry = groups.get(key)
                if entry is None:
                    groups[key] = [star, [p if p is None else p.copy() for p in parts]]
                    continue
                entry[0] += star
                for state, part in zip(entry[1], parts):
                    if state is not None:
                        state.merge(part)

    def _snapshot(
        self, kept: dict[int, Any], groups: dict[Any, list[Any]], held: int
    ) -> tuple[tuple[int, ...], dict[Any, list[Any]]]:
        """The prefix for the leading run ``kept`` merged into ``groups``:
        the current one if the run is its ``held`` matched stamps and no
        more, else a copy of ``groups``."""
        if held == len(kept) == len(self._prefix[0]):
            return self._prefix
        state: dict[Any, list[Any]] = {}
        self._merge(state, groups)  # into no groups: a copy
        return tuple(kept), state

    def _fold_batch(
        self,
        groups: dict[Any, list[Any]],
        batch: Batch,
        glins: dict[Any, list[tuple]] | None = None,
    ) -> None:
        """Fold one batch into ``groups`` (key -> [star, states], in
        first-occurrence order).  ``glins`` collects lineage per group;
        capture needs row positions, so it rides the general partition
        path (results are identical on every path; only the accumulation
        strategy differs)."""
        specs = self.aggregates
        blin = batch.lin if glins is not None else None
        if not self.group_by:
            entry = groups.get(())
            if entry is None:
                entry = groups[()] = [0, new_states(specs)]
            entry[0] += batch.n
            if blin is not None and glins is not None:
                lst = glins.setdefault((), [])
                for lin in blin:
                    lst.extend(lin)
            if self._star_only:
                return
            exact = self._exact_sums(batch)
            for spec, fn, state, ex in zip(specs, self._argfns, entry[1], exact):
                if fn is None:
                    continue
                if isinstance(spec.arg, ColumnRef) and not spec.distinct:
                    col, kind = _resolve_with_kind(batch, spec.arg.name)
                else:
                    col, kind = fn(batch), None
                if kind is not None and not kind & K_NULL:
                    values = col
                else:
                    values = [v for v in col if v is not None]
                state.add_many(values, ex)
            return
        keys = self._group_keys(batch)
        if self._star_only and blin is None:
            # Counts come straight from a C-speed Counter; new keys enter
            # `groups` in first-occurrence order.
            counts: Counter = Counter()
            counts.update(keys)
            for key, n in counts.items():
                entry = groups.get(key)
                if entry is None:
                    groups[key] = [n, new_states(specs)]
                else:
                    entry[0] += n
            return
        exact = self._exact_sums(batch)
        # Shared-column fast path: all agg arguments resolve to ONE value
        # list (by identity -- the planner's per-spec `__agg_in_N`
        # projections of the same ColumnRef share the list object), so
        # partition values directly instead of partitioning indexes and
        # picking per spec.
        arg_names = self._arg_names
        col = None
        no_nulls = False
        if arg_names is not None and blin is None:
            resolved = [_resolve_with_kind(batch, n) for n in arg_names]
            if len({id(c) for c, _ in resolved}) == 1:
                col = resolved[0][0]
                kinds_seen = [k for _, k in resolved if k is not None]
                no_nulls = bool(kinds_seen) and not any(
                    k & K_NULL for k in kinds_seen
                )
        if col is not None:
            bucket: dict[Any, list[Any]] = {}
            appends: dict[Any, Callable[[Any], None]] = {}
            for key, value in zip(keys, col):
                try:
                    appends[key](value)
                except KeyError:
                    lst = [value]
                    bucket[key] = lst
                    appends[key] = lst.append
            for key, raw in bucket.items():
                entry = groups.get(key)
                if entry is None:
                    entry = groups[key] = [0, new_states(specs)]
                entry[0] += len(raw)
                values = raw if no_nulls else [v for v in raw if v is not None]
                for state, ex in zip(entry[1], exact):
                    if state is not None:
                        state.add_many(values, ex)
            return
        # General path: index partition, one pick per spec column.
        positions: dict[Any, list[int]] = {}
        pos_appends: dict[Any, Callable[[int], None]] = {}
        for i, key in enumerate(keys):
            try:
                pos_appends[key](i)
            except KeyError:
                lst = [i]
                positions[key] = lst
                pos_appends[key] = lst.append
        argcols = [fn(batch) if fn is not None else None for fn in self._argfns]
        for key, idxs in positions.items():
            entry = groups.get(key)
            if entry is None:
                entry = groups[key] = [0, new_states(specs)]
            entry[0] += len(idxs)
            if blin is not None and glins is not None:
                lst = glins.setdefault(key, [])
                for i in idxs:
                    lst.extend(blin[i])
            picked_cache: dict[int, list[Any]] = {}
            for col, state, ex in zip(argcols, entry[1], exact):
                if col is None:
                    continue
                ckey = id(col)
                picked = picked_cache.get(ckey)
                if picked is None:
                    picked = [v for i in idxs if (v := col[i]) is not None]
                    picked_cache[ckey] = picked
                state.add_many(picked, ex)

    def batches(
        self,
        source: TableProvider,
        counters: dict[int, int] | None,
        lineage: bool = False,
    ) -> Iterator[Batch]:
        specs = self.aggregates
        group_by = self.group_by
        single = len(group_by) == 1
        groups: dict[Any, list[Any]] = {}
        glins: dict[Any, list[tuple]] | None = {} if lineage else None
        memo = self._memo
        kept: dict[int, dict[Any, list[Any]]] = {}
        # A global COUNT(*) folds a chunk in O(1): nothing worth keeping.
        trivial = self._star_only and not group_by
        use_memo: bool | None = (
            False if lineage or trivial or not self._memoizable else None
        )
        pstamps, pstate = self._prefix if use_memo is None else ((), {})
        held = 0  # leading batches matching `pstamps`: their merge waits
        prefix = None  # published once the leading run of kept chunks ends
        reused = seen = merged = 0
        for batch in self.child.batches(source, counters, lineage):
            seen += 1
            if use_memo is None:
                use_memo = self._mergeable(batch)
            stamp = batch.origin
            if held == seen - 1 and held < len(pstamps):
                if use_memo and stamp == pstamps[held]:
                    held += 1
                    kept[stamp] = memo[stamp]
                    if held == len(pstamps):
                        self._merge(groups, pstate)  # into no groups: a copy
                    continue
                self._merge(groups, *kept.values())  # the prefix broke
                merged += held
            if not use_memo or stamp is None:
                if prefix is None:
                    prefix = self._snapshot(kept, groups, held)
                self._fold_batch(groups, batch, glins)
                continue
            partial = memo.get(stamp)
            if partial is not None:
                reused += 1
            else:
                partial = {}
                self._fold_batch(partial, batch)
                if len(partial) > batch.n * MEMO_MAX_GROUPS_PER_ROW:
                    # Keyed on (nearly) unique values: keep nothing and
                    # fold the rest of this run straight into `groups`.
                    use_memo = False
            if use_memo:
                kept[stamp] = partial
            elif prefix is None:
                prefix = self._snapshot(kept, groups, held)
            self._merge(groups, partial)
            merged += 1
        if held == seen and held < len(pstamps):  # ended inside the prefix
            self._merge(groups, *kept.values())
            merged += held
        if not lineage:
            self._memo = kept
            self._prefix = prefix or self._snapshot(kept, groups, held)
            self.reused = (reused + held, seen)
            self.merged = merged
        if not group_by and not groups:
            groups[()] = [0, new_states(specs)]  # empty input: one row

        names = [s.name for s in specs]
        out_rows: list[Row] = []
        out_lins: list[tuple] = []
        for key, (star, states) in groups.items():
            out: Row = dict(zip(group_by, (key,) if single else key))
            put_results(out, names, star, states)
            if self.having is None or evaluate_predicate(self.having, out):
                out_rows.append(out)
                if glins is not None:
                    out_lins.append(tuple(glins.get(key, ())))
        result = rows_to_batch(out_rows)
        if result is not None:
            if lineage:
                result.lin = out_lins
            self._count(counters, result.n)
            yield result


# ----------------------------------------------------------------------
# Plan wrapper and translation


def _walk(root: VOp) -> Iterator[VOp]:
    """Every operator of a VOp tree."""
    stack: list[VOp] = [root]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(node.children())


def _reads_slot(root: VOp) -> bool:
    """True when a filter or projection under ``root`` reads a ``?`` slot."""
    for op in _walk(root):
        if isinstance(op, VFilter) and has_param(op.predicate):
            return True
        if isinstance(op, VProject) and any(has_param(e) for _, e in op.items):
            return True
    return False


#: Base-table rows below which the row engine wins: a batch pipeline's
#: per-chunk set-up only amortizes over a few thousand rows.
VECTOR_MIN_ROWS = 4096


class Vectorized(Plan):
    """Plan node offering a translated VOp tree to the batch engine.

    The engine is chosen on every execution from what the node can
    observe: the batch engine runs when every base table is a real
    :class:`Table` (isolation snapshots are not) and together they hold
    at least :data:`VECTOR_MIN_ROWS` rows; otherwise the wrapped row
    plan runs.  A cached plan therefore follows its tables as they grow
    and shrink, with no eviction.
    """

    engine = "vectorized"
    explain_label = "Vectorized"

    def __init__(self, root: VOp, row_plan: Plan) -> None:
        self.root = root
        self.row_plan = row_plan
        self._counters: dict[int, int] | None = None
        self._scan_names = sorted(
            {op.table_name for op in _walk(root) if isinstance(op, VScan)}
        )

    def children(self) -> tuple[Plan, ...]:
        return (self.root,)  # type: ignore[return-value]

    def base_tables(self) -> set[str]:
        return self.row_plan.base_tables()

    def output_columns(self, source: TableProvider) -> set[str] | None:
        return self.row_plan.output_columns(source)

    def attach_counters(self, counters: dict[int, int]) -> "Vectorized":
        """EXPLAIN ANALYZE hook: a clone that fills per-chunk counters.

        The clone shares this node's VOp objects, so counter keys match
        ``id()``s in the original tree and ``format_plan`` lines up.
        """
        clone = Vectorized(self.root, self.row_plan)
        clone._counters = counters
        return clone

    def rows(self, source: TableProvider, lineage: bool = False) -> Iterator[Row]:
        if not lineage:
            return iter(self.to_list(source))
        # Nested under row operators: hand the sidecar out on their carrier.
        rows, lins = self.to_list_lineage(source)
        for row, lin in zip(rows, lins):
            row[LIN] = lin
        return iter(rows)

    def chosen(self, source: TableProvider) -> Plan:
        """The plan that serves ``source`` right now: this node or its
        row plan (see the class docstring for the rule)."""
        rows = 0
        for name in self._scan_names:
            table = source.table(name)
            if not isinstance(table, Table):
                return self.row_plan
            rows += len(table)
        return self if rows >= VECTOR_MIN_ROWS else self.row_plan

    def _run(
        self, source: TableProvider, lineage: bool
    ) -> tuple[list[Row], list[Lineage]] | None:
        """``(rows, lineages)`` off the batch engine, or None when the
        row plan has to serve this execution instead."""
        if self.chosen(source) is not self:
            return None
        rows: list[Row] = []
        lins: list[Lineage] = []
        try:
            for batch in self.root.batches(source, self._counters, lineage):
                rows.extend(batch_rows(batch))
                if batch.lin is not None:
                    lins.extend(batch.lin)
                elif lineage:
                    lins.extend(() for _ in range(batch.n))
        except _Fallback:
            # The batch engine gave up on this data mid-run; erase any
            # partial chunk counts so EXPLAIN doesn't report phantom
            # vectorized work.
            if self._counters is not None:
                for op in _walk(self.root):
                    self._counters.pop(id(op), None)
            return None
        return rows, lins

    def to_list(self, source: TableProvider) -> list[Row]:
        ran = self._run(source, lineage=False)
        return ran[0] if ran is not None else self.row_plan.to_list(source)

    def to_list_lineage(
        self, source: TableProvider
    ) -> tuple[list[Row], list[Lineage]]:
        """As :meth:`Plan.to_list_lineage`, on the engine :meth:`to_list`
        would use: the batch pipeline's ``lin`` sidecar, else the row plan."""
        ran = self._run(source, lineage=True)
        return ran if ran is not None else self.row_plan.to_list_lineage(source)

    def __repr__(self) -> str:
        return f"Vectorized({self.row_plan!r})"


def running_plan(plan: Plan, source: TableProvider) -> Plan:
    """``plan`` as it would execute against ``source`` right now.

    Every :class:`Vectorized` node is resolved by :meth:`Vectorized.chosen`,
    so EXPLAIN, span tags and lineage records name the engine that runs
    rather than the one on offer.  Operators above a resolved node are
    shallow-copied; the (possibly cached) input tree is never modified.
    """
    if isinstance(plan, Vectorized):
        return plan.chosen(source)
    for attr in ("child", "left", "right"):
        sub = getattr(plan, attr, None)
        if isinstance(sub, Plan):
            chosen = running_plan(sub, source)
            if chosen is not sub:
                plan = copy.copy(plan)
                setattr(plan, attr, chosen)
    return plan


def _widen(needed: set[str] | None, extra: set[str]) -> set[str] | None:
    return None if needed is None else needed | extra


def _translate(plan: Plan, needed: set[str] | None) -> VOp:
    """Recursive Plan -> VOp translation with needed-column pruning.

    ``needed`` is the set of column keys the operators above will
    reference (None = all).  Raises :class:`Unvectorizable` on any
    operator without a batch form: index scans (the router already chose
    index access for a reason), set operations, products, row sources,
    and lambda expressions.
    """
    if isinstance(plan, Scan):
        return VScan(plan.table_name, plan.alias, needed)
    if isinstance(plan, Select):
        child = _translate(plan.child, _widen(needed, plan.predicate.columns()))
        return VFilter(child, plan.predicate)
    if isinstance(plan, Project):
        below: set[str] = set()
        for _, item_expr in plan.items:
            below |= item_expr.columns()
        return VProject(_translate(plan.child, below), list(plan.items))
    if isinstance(plan, KeepAll):
        return VKeepAll(_translate(plan.child, None))
    if isinstance(plan, HashJoin):
        left = _translate(plan.left, None)
        right = _translate(plan.right, None)
        return VHashJoin(left, right, plan.left_on, plan.right_on, plan.how, plan)
    if isinstance(plan, Aggregate):
        below = set(plan.group_by)
        for spec in plan.aggregates:
            if spec.arg is not None:
                below |= spec.arg.columns()
        child = _translate(plan.child, below)
        return VAggregate(
            child, list(plan.group_by), list(plan.aggregates), plan.having
        )
    if isinstance(plan, Sort):
        child = _translate(
            plan.child, _widen(needed, {name for name, _ in plan.keys})
        )
        return VSort(child, list(plan.keys))
    if isinstance(plan, Limit):
        return VLimit(_translate(plan.child, needed), plan.count, plan.offset)
    if isinstance(plan, Distinct):
        return VDistinct(_translate(plan.child, None))
    raise Unvectorizable(f"operator {type(plan).__name__} has no vector form")


def vectorize_plan(plan: Plan) -> Vectorized | None:
    """Translate ``plan`` for the batch engine, or None if untranslatable.

    The returned :class:`Vectorized` node keeps ``plan`` as its row form
    and picks between the two on every execution.
    """
    try:
        root = _translate(plan, None)
    except Unvectorizable:
        return None
    return Vectorized(root, plan)
