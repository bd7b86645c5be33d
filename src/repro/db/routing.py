"""Cost-aware access-path routing shared by every WHERE-clause consumer.

Given a conjunction of predicates over one stored table, pick the cheapest
way to produce candidate rows:

* ``col = literal`` with a single-column :class:`~repro.db.index.HashIndex`
  -> :class:`~repro.db.algebra.IndexScan`
* equality on every column of a composite hash index
  -> :class:`~repro.db.algebra.CompositeIndexScan`
* range conjuncts (``<``, ``<=``, ``>``, ``>=``, and the ``BETWEEN``
  lowering) on a :class:`~repro.db.index.SortedIndex` column -- including
  every table's creation stamps (a read-only ``StampIndex``) the isolation layer
  (Section VI-A) filters on -- -> :class:`~repro.db.algebra.RangeIndexScan`

A ``?`` slot stands wherever a literal may (the leaf reads its value
when it runs).  Candidates compete on *exact* cardinality estimates
(``bucket_size`` / ``count_range`` are O(1)/O(log n) against live index
state) for the binding being planned; the minimum wins.  The same machinery backs the SQL planner's SELECT leaves, the
UPDATE/DELETE paths in :mod:`repro.db.database` (via :func:`matching_tids`),
and the isolation/notification scans.

All routing is *defensive*: tables that do not expose index discovery
(e.g. the isolation layer's ``_IsolatedTable`` adapter) simply get no
candidates and keep their full-scan plans, and every routed leaf re-checks
residual conjuncts, so routing can never change results -- only skip work.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable

from ..errors import UnknownTableError
from ..obs.runtime import OBS
from .algebra import (
    CompositeIndexScan,
    Distinct,
    HashJoin,
    IndexLeaf,
    IndexNestedLoopJoin,
    IndexScan,
    KeepAll,
    Limit,
    Plan,
    Project,
    RangeIndexScan,
    RowSource,
    Scan,
    Select,
    Sort,
    plan_access_kind,
)
from .expression import (
    And,
    ColumnRef,
    Comparison,
    Expression,
    Literal,
    Param,
    evaluate_predicate,
)
from .schema import HIDDEN_FIELDS, TID
from .table import Table


def split_conjuncts(expr: Expression | None) -> list[Expression]:
    """Flatten an ``And`` tree into its conjunct list."""
    if expr is None:
        return []
    if isinstance(expr, And):
        return split_conjuncts(expr.left) + split_conjuncts(expr.right)
    return [expr]


def conjoin(conjuncts: Iterable[Expression]) -> Expression | None:
    """Fold a conjunct list back into an ``And`` tree (None when empty)."""
    result: Expression | None = None
    for conjunct in conjuncts:
        result = conjunct if result is None else And(result, conjunct)
    return result


# ----------------------------------------------------------------------
# Conjunct analysis
_FLIP = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}


def _strip_qualifier(name: str, names: tuple[str, ...]) -> str:
    """Reduce ``alias.col`` / ``table.col`` to the bare column name."""
    for prefix in names:
        if prefix and name.startswith(prefix + "."):
            return name[len(prefix) + 1 :]
    return name


def _column_key(
    comp: Comparison, columns: set[str], qualifiers: tuple[str, ...]
) -> tuple[str, str, Any] | None:
    """Decompose ``col OP key`` (either orientation) or give up.

    ``key`` is a literal's value or a ``?`` slot (:class:`Param`): a slot
    is index-eligible wherever a literal is, and the leaf reads its value
    when it runs.  Returns ``(column, op, key)`` with the comparison
    re-oriented so the column is on the left.  NULL literals are rejected:
    ``col OP NULL`` is never True, and hash/sorted indexes treat NULLs
    specially (a leaf whose slot is bound to NULL selects nothing).
    """
    left, op, right = comp.left, comp.op, comp.right
    if isinstance(left, (Literal, Param)) and isinstance(right, ColumnRef):
        left, right = right, left
        op = _FLIP.get(op, op)
    if not isinstance(left, ColumnRef):
        return None
    if isinstance(right, Param):
        key: Any = right
    elif isinstance(right, Literal) and right.value is not None:
        key = right.value
    else:
        return None
    name = _strip_qualifier(left.name, qualifiers)
    if name not in columns:
        return None
    return name, op, key


@dataclass
class _Bounds:
    """Accumulated range bounds for one column (tightest wins).

    Literal bounds on one side narrow to the tightest; a slot's value is
    unknown until it runs, so a side holding a slot takes no second bound
    (that conjunct stays residual).
    """

    low: Any = None
    high: Any = None
    include_low: bool = True
    include_high: bool = True
    conjuncts: list[Expression] = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        self.conjuncts = []

    def narrow_low(self, value: Any, inclusive: bool) -> bool:
        if self.low is None:
            self.low, self.include_low = value, inclusive
            return True
        if isinstance(value, Param) or isinstance(self.low, Param):
            return False
        if value > self.low or (value == self.low and not inclusive):
            self.low, self.include_low = value, inclusive
        return True

    def narrow_high(self, value: Any, inclusive: bool) -> bool:
        if self.high is None:
            self.high, self.include_high = value, inclusive
            return True
        if isinstance(value, Param) or isinstance(self.high, Param):
            return False
        if value < self.high or (value == self.high and not inclusive):
            self.high, self.include_high = value, inclusive
        return True


@dataclass
class _Candidate:
    estimate: int
    leaf: IndexLeaf
    consumed: list[Expression]
    slotted: bool  # a key is a ``?`` slot


def _analyze(
    conjuncts: list[Expression], columns: set[str], qualifiers: tuple[str, ...]
) -> tuple[dict[str, tuple[Any, Expression]], dict[str, _Bounds]]:
    """Split conjuncts into per-column equality keys and range bounds."""
    equals: dict[str, tuple[Any, Expression]] = {}
    bounds: dict[str, _Bounds] = {}
    for conjunct in conjuncts:
        if not isinstance(conjunct, Comparison):
            continue
        decomposed = _column_key(conjunct, columns, qualifiers)
        if decomposed is None:
            continue
        column, op, key = decomposed
        if op == "=":
            # First equality wins; a contradictory second one stays residual.
            equals.setdefault(column, (key, conjunct))
        elif op in ("<", "<=", ">", ">="):
            try:
                b = bounds.setdefault(column, _Bounds())
                if op in (">", ">="):
                    narrowed = b.narrow_low(key, op == ">=")
                else:
                    narrowed = b.narrow_high(key, op == "<=")
                if narrowed:
                    b.conjuncts.append(conjunct)
            except TypeError:
                # Uncomparable bound values (mixed types): leave residual.
                bounds.pop(column, None)
    return equals, bounds


def _candidates(
    table: Any,
    table_name: str,
    alias: str | None,
    conjuncts: list[Expression],
) -> list[_Candidate]:
    """All index access paths applicable to ``conjuncts``, with estimates
    for the binding being planned."""
    schema = getattr(table, "schema", None)
    if schema is None:
        return []
    columns = set(schema.column_names) | set(HIDDEN_FIELDS)
    qualifiers = (alias or "", table_name)
    equals, bounds = _analyze(conjuncts, columns, qualifiers)

    out: list[_Candidate] = []

    def add(leaf: IndexLeaf, consumed: list[Expression], keys: Iterable[Any]) -> None:
        slotted = any(isinstance(key, Param) for key in keys)
        out.append(_Candidate(leaf.estimate(table), leaf, consumed, slotted))

    find_hash = getattr(table, "find_hash_index", None)
    find_sorted = getattr(table, "find_sorted_index", None)
    hash_indexes = getattr(table, "hash_indexes", None)

    if find_hash is not None:
        for column, (key, conjunct) in equals.items():
            if find_hash(column) is not None:
                add(IndexScan(table_name, column, key, alias=alias), [conjunct], [key])

    if hash_indexes is not None and len(equals) > 1:
        for index in hash_indexes():
            cols = index.columns
            if len(cols) < 2 or not all(c in equals for c in cols):
                continue
            keys = tuple(equals[c][0] for c in cols)
            leaf = CompositeIndexScan(table_name, cols, keys, alias=alias)
            add(leaf, [equals[c][1] for c in cols], keys)

    if find_sorted is not None:
        for column, b in bounds.items():
            if find_sorted(column) is None:
                continue
            leaf = RangeIndexScan(
                table_name,
                column,
                low=b.low,
                high=b.high,
                include_low=b.include_low,
                include_high=b.include_high,
                alias=alias,
            )
            add(leaf, list(b.conjuncts), [b.low, b.high])
        # Equality on a sorted-index column without a hash index: degenerate
        # range [v, v] (e.g. an exact-timestamp probe on __created__).
        for column, (key, conjunct) in equals.items():
            if find_hash is not None and find_hash(column) is not None:
                continue
            if find_sorted(column) is None:
                continue
            leaf = RangeIndexScan(table_name, column, low=key, high=key, alias=alias)
            add(leaf, [conjunct], [key])
    return out


def _best(candidates: list[_Candidate]) -> _Candidate | None:
    return min(candidates, key=lambda c: c.estimate, default=None)


def route_scan(
    table: Any,
    table_name: str,
    alias: str | None,
    conjuncts: list[Expression],
) -> tuple[Plan, list[Expression], int] | None:
    """Pick the cheapest index leaf for ``conjuncts`` over one table.

    Returns ``(leaf_plan, residual_conjuncts, estimate)`` or None when no
    index applies (caller keeps its full scan).  Residual conjuncts must be
    re-applied on top of the leaf by the caller.  The leaf keeps the
    losing candidates that hold a slot as its ``rivals`` (see
    :class:`~repro.db.algebra.IndexLeaf`).
    """
    candidates = _candidates(table, table_name, alias, conjuncts)
    best = _best(candidates)
    if best is None:
        return None
    rivals = tuple(c.leaf for c in candidates if c is not best and c.slotted)
    if rivals:
        best.leaf.rivals = rivals
    consumed_ids = {id(c) for c in best.consumed}
    residual = [c for c in conjuncts if id(c) not in consumed_ids]
    return best.leaf, residual, best.estimate


def candidate_tids(table: Any, predicate: Expression | None) -> Iterable[int] | None:
    """Tids the best index narrows ``predicate`` to, or None for full scan.

    The returned tid set is a superset of the matching rows: callers must
    still evaluate the *full* predicate on each candidate row.
    """
    if predicate is None:
        return None
    conjuncts = split_conjuncts(predicate)
    table_name = getattr(getattr(table, "schema", None), "name", "")
    best = _best(_candidates(table, table_name, None, conjuncts))
    if best is None:
        return None
    return best.leaf.tids(table)


def matching_tids(table: Any, predicate: Expression | None) -> list[int]:
    """Tids of rows satisfying ``predicate``, in tid order.

    Index-routed when possible; byte-identical to the naive full scan
    because candidates are re-checked against the complete predicate and
    emitted in sorted-tid order.
    """
    candidates = candidate_tids(table, predicate)
    if candidates is None:
        return [
            row[TID] for row in table.rows() if evaluate_predicate(predicate, row)
        ]
    matched = []
    for tid in sorted(candidates):
        row = table.get(tid)
        if row is not None and evaluate_predicate(predicate, row):
            matched.append(tid)
    return matched


# ----------------------------------------------------------------------
# Plan-tree optimization: selection pushdown + leaf routing + join choice
def estimate_rows(plan: Plan, database: Any) -> int | None:
    """Upper bound on the rows ``plan`` can produce, or None when unknown.

    Estimates come from live index/table state (exact counts, not
    statistics), so they are only meaningful at planning time.
    """
    if isinstance(plan, Scan):
        try:
            table = database.table(plan.table_name)
        except UnknownTableError:
            # Planning against a provider that lacks the table (isolated
            # snapshots, mid-DDL races): no estimate, count the miss.
            if OBS.enabled:
                OBS.metrics.counter(
                    "db.estimate_unknown_table", table=plan.table_name
                ).inc()
            return None
        # _IsolatedTable and friends may have O(n) __len__; only trust
        # the real storage class.
        return len(table) if isinstance(table, Table) else None
    if isinstance(plan, IndexLeaf):
        try:
            table = database.table(plan.table_name)
        except UnknownTableError:
            if OBS.enabled:
                OBS.metrics.counter(
                    "db.estimate_unknown_table", table=plan.table_name
                ).inc()
            return None
        return plan.estimate(table) if isinstance(table, Table) else None
    if isinstance(plan, RowSource):
        return len(plan)
    if isinstance(plan, Limit):
        child = estimate_rows(plan.child, database)
        return plan.count if child is None else min(plan.count, child)
    if isinstance(plan, (Select, Project, KeepAll, Distinct, Sort)):
        return estimate_rows(plan.child, database)
    return None


def optimize_plan(plan: Plan, database: Any) -> Plan:
    """Rewrite ``plan`` for cost: pushdown, index leaves, join selection.

    Purely a cost transformation -- every rewrite preserves the produced
    rows (and their order) exactly.  The tree is rewritten in place and
    returned; callers optimizing a tree they share should deep-copy first.
    """
    plan = _pushdown(plan, database)
    plan = _route_tree(plan, database)
    return _maybe_vectorize(plan)


def _maybe_vectorize(plan: Plan) -> Plan:
    """Offer the batch engine for an un-routed, translatable plan.

    An index probe beats any scan, columnar or not, so routed plans keep
    their row form, as do shapes with no batch translation.  Everything
    else is wrapped in :class:`~repro.db.vector.Vectorized`, which picks
    the engine from the tables' size each time it runs -- nothing about
    the data is decided here, so a cached plan never goes stale.
    """
    if plan_access_kind(plan) != "scan":
        return plan
    from .vector import vectorize_plan

    vectorized = vectorize_plan(plan)
    return vectorized if vectorized is not None else plan


def _pushdown(plan: Plan, database: Any) -> Plan:
    if isinstance(plan, Select):
        conjuncts = split_conjuncts(plan.predicate)
        child = plan.child
        while isinstance(child, Select):
            conjuncts += split_conjuncts(child.predicate)
            child = child.child
        child = _pushdown(child, database)
        remaining: list[Expression] = []
        for conjunct in conjuncts:
            pushed = _try_push(conjunct, child, database)
            if pushed is None:
                remaining.append(conjunct)
            else:
                child = pushed
        predicate = conjoin(remaining)
        return Select(child, predicate) if predicate is not None else child
    for attr in ("child", "left", "right"):
        sub = getattr(plan, attr, None)
        if isinstance(sub, Plan):
            rewritten = _pushdown(sub, database)
            if rewritten is not sub:
                setattr(plan, attr, rewritten)
    return plan


def _apply(conjunct: Expression, node: Plan, database: Any) -> Plan:
    """Attach ``conjunct`` to ``node``, sinking it as deep as it can go."""
    pushed = _try_push(conjunct, node, database)
    if pushed is not None:
        return pushed
    return Select(node, conjunct)


def _try_push(conjunct: Expression, node: Plan, database: Any) -> Plan | None:
    """Sink one conjunct below ``node``; None when it must stay above."""
    if isinstance(node, Select):
        # Merge rather than stack: sink past this Select's child when
        # possible, otherwise AND into its predicate (keeps Select(Scan)
        # shapes the leaf router recognizes).
        deeper = _try_push(conjunct, node.child, database)
        if deeper is not None:
            node.child = deeper
        else:
            node.predicate = And(node.predicate, conjunct)
        return node
    if isinstance(node, KeepAll):
        # KeepAll strips hidden/qualified keys: a conjunct naming them
        # sees NULL above but real values below -- keep those above.
        if any(c.startswith("__") or "." in c for c in conjunct.columns()):
            return None
        node.child = _apply(conjunct, node.child, database)
        return node
    if isinstance(node, Project):
        # Only push through identity items (SELECT x, not SELECT x AS y):
        # anything else would need expression rewriting.
        passthrough = {
            name
            for name, expr in node.items
            if isinstance(expr, ColumnRef) and expr.name == name
        }
        cols = conjunct.columns()
        if not cols or not cols <= passthrough:
            return None
        node.child = _apply(conjunct, node.child, database)
        return node
    if isinstance(node, HashJoin):
        cols = conjunct.columns()
        if not cols:
            return None
        left_cols = node.left.output_columns(database)
        right_cols = node.right.output_columns(database)
        in_left = left_cols is not None and cols <= left_cols
        in_right = right_cols is not None and cols <= right_cols
        if in_left and not in_right:
            node.left = _apply(conjunct, node.left, database)
            return node
        if in_right and not in_left and node.how == "inner":
            # Right-side conjuncts must NOT sink below a LEFT join: they
            # would drop rows before null padding instead of after.
            node.right = _apply(conjunct, node.right, database)
            return node
        return None
    return None


def _route_tree(plan: Plan, database: Any) -> Plan:
    for attr in ("child", "left", "right"):
        sub = getattr(plan, attr, None)
        if isinstance(sub, Plan):
            rewritten = _route_tree(sub, database)
            if rewritten is not sub:
                setattr(plan, attr, rewritten)
    if isinstance(plan, Select) and isinstance(plan.child, Scan):
        scan = plan.child
        try:
            table = database.table(scan.table_name)
        except UnknownTableError:
            return plan
        conjuncts = split_conjuncts(plan.predicate)
        routed = route_scan(table, scan.table_name, scan.alias, conjuncts)
        if routed is None:
            return plan
        leaf, residual, _estimate = routed
        predicate = conjoin(residual)
        return Select(leaf, predicate) if predicate is not None else leaf
    if isinstance(plan, HashJoin):
        return _maybe_index_join(plan, database)
    return plan


def _maybe_index_join(join: HashJoin, database: Any) -> Plan:
    """Swap a HashJoin for an index-nested-loop join when clearly cheaper.

    Requires: bare Scan inner side backed by a hash index on the join
    column, and an outer side estimated at under a quarter of the inner
    table (each outer row costs one O(1) probe; the hash join would pay
    for hashing the whole inner table first).
    """
    if not isinstance(join.right, Scan):
        return join
    right = join.right
    column = _strip_qualifier(join.right_on, (right.alias or "", right.table_name))
    try:
        table = database.table(right.table_name)
    except UnknownTableError:
        return join
    if not isinstance(table, Table) or table.find_hash_index(column) is None:
        return join
    est_left = estimate_rows(join.left, database)
    if est_left is None or est_left * 4 > len(table):
        return join
    return IndexNestedLoopJoin(
        join.left,
        right.table_name,
        join.left_on,
        join.right_on,
        column,
        right_alias=right.alias,
        how=join.how,
    )
