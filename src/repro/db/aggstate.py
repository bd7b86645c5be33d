"""Aggregate group state: the one fold behind COUNT/SUM/AVG/MIN/MAX.

The row engine's ``Aggregate``, the batch engine's ``VAggregate`` and
IVM's ``AggregateView`` keep one :class:`AggState` per aggregate per
group (None for COUNT(*), whose value is the group's row count, kept
beside the states), so the aggregate rules exist once:

* NULL is skipped: ``add`` drops it, ``add_many`` takes non-NULL values;
* COUNT counts the values folded;
* SUM/AVG is the left fold ``total += v`` in row order.  CPython >= 3.12's
  ``sum()`` compensates float rounding, so C ``sum()`` stands in for the
  fold only over a column tagged within :data:`MERGEABLE_SUM_KINDS`,
  where addition is exact in any grouping;
* MIN/MAX compare one value at a time against the best so far, so the
  earliest value wins a tie;
* DISTINCT folds each value once, deduplicated through :class:`_DedupSet`,
  which also takes unhashable values (lists, dicts in ANY columns);
* a value that cannot be folded (``TypeError``: a str into a numeric SUM,
  an int against a str for MIN) poisons the aggregate to NULL.  ``bad``
  counts such values, so a state whose values can leave is un-poisoned
  when the last of them does, as a recompute would be.

``merge`` folds in the state of later rows (the batch engine's chunk
memo), ``copy`` snapshots one (its memo prefix), and :func:`put_results`
reads a group's states into its output row.  IVM views, whose rows also
leave, hold :class:`ViewAggState`, which adds ``remove_many``.
:func:`partition` is the one bucket loop every fold partitions its rows
with.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Callable, Iterable, Sequence

from .columnar import K_BOOL, K_INT, K_NULL

#: Kinds whose SUM/AVG partials merge exactly: integer addition is
#: associative, so a kept chunk total added to the running one equals the
#: left fold over the chunk's values.  Float addition is not.
MERGEABLE_SUM_KINDS = K_INT | K_BOOL | K_NULL

_SUMS = ("SUM", "AVG")
_EXTREMA: dict[str, Callable[..., Any]] = {"MIN": min, "MAX": max}


class _DedupSet:
    """Set-semantics membership that tolerates unhashable keys.

    Hashable keys take the O(1) set path; a key whose hash raises
    ``TypeError`` (rows holding lists/dicts in ANY-typed columns) falls
    back to a linear equality scan over the unhashable tail.  Dedup is
    by ``==`` either way, matching what a plain set does for hashables.
    """

    __slots__ = ("_seen", "_linear")

    def __init__(self) -> None:
        self._seen: set[Any] = set()
        self._linear: list[Any] = []

    def add(self, key: Any) -> bool:
        """Record ``key``; returns True when it was not seen before."""
        try:
            if key in self._seen:
                return False
            self._seen.add(key)
            return True
        except TypeError:
            if key in self._linear:
                return False
            self._linear.append(key)
            return True

    def __contains__(self, key: Any) -> bool:
        try:
            return key in self._seen
        except TypeError:
            return key in self._linear


class AggState:
    """One aggregate's running state within one group."""

    __slots__ = ("func", "pick", "count", "value", "bad", "seen")

    def __init__(self, func: str, distinct: bool = False) -> None:
        self.func = func
        #: MIN/MAX: the builtin that folds them; None for the others.
        self.pick = _EXTREMA.get(func)
        #: Non-NULL values folded in (distinct ones, for DISTINCT).
        self.count = 0
        #: SUM/AVG: the running total; MIN/MAX: the best so far, or None.
        self.value: Any = 0 if func in _SUMS else None
        #: Values that could not be folded: the result is NULL while > 0.
        self.bad = 0
        self.seen = _DedupSet() if distinct else None

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}({self.func}, count={self.count}, "
            f"value={self.value!r}, bad={self.bad})"
        )

    def add(self, value: Any) -> None:
        """Fold one row's value in (a NULL is skipped)."""
        if value is not None and (self.seen is None or self.seen.add(value)):
            self.count += 1
            self._fold((value,))

    def add_many(self, values: Sequence[Any], exact: bool = False) -> None:
        """Fold non-NULL ``values`` in, in row order.  ``exact``: they come
        from a column tagged within :data:`MERGEABLE_SUM_KINDS`, so SUM/AVG
        may take C ``sum()``."""
        seen = self.seen
        if seen is not None:
            values = [v for v in values if seen.add(v)]
        self.count += len(values)
        self._fold(values, exact)

    def _fold(self, values: Sequence[Any], exact: bool = False) -> None:
        """Fold ``values`` into the total or the best value (the caller
        counts them).  MIN/MAX compare one value at a time against the
        best so far, which keeps the earliest on ties; an incomparable
        pair leaves the group no defined answer."""
        pick = self.pick
        if pick is not None:
            if values and not self.bad:
                best = self.value
                try:
                    self.value = pick(values) if best is None else pick(best, *values)
                except TypeError:
                    self.bad = 1
                    self.value = None
        elif self.func in _SUMS:
            if exact:
                self.value = sum(values, self.value)
                return
            total = self.value
            for value in values:
                try:
                    total += value
                except TypeError:
                    self.bad += 1
            self.value = total

    def merge(self, part: AggState) -> None:
        """Fold in ``part``, the state of later rows, as if its values had
        been added here.  Only for a state without DISTINCT; exact for
        SUM/AVG only over :data:`MERGEABLE_SUM_KINDS` (the memo's rule)."""
        self.count += part.count
        self.bad += part.bad
        if part.count and part.value is not None:
            self._fold((part.value,))

    def copy(self) -> AggState:
        """A state equal to this one that folds on independently; like
        :meth:`merge`, only for a state without DISTINCT."""
        new = AggState(self.func)
        new.count, new.value, new.bad = self.count, self.value, self.bad
        return new

    def result(self) -> Any:
        """COUNT's count, or the value: NULL when nothing (or a value that
        could not be folded) was folded in."""
        if self.func == "COUNT":
            return self.count
        if not self.count or self.bad:
            return None
        if self.func == "AVG":
            return self.value / self.count
        return self.value


class ViewAggState(AggState):
    """An :class:`AggState` whose values can also leave: an IVM view's.

    SUM/AVG fold a value out with ``total -= v``; one that could not be
    folded in cannot be folded out either, so removing it un-poisons the
    group.  DISTINCT, MIN and MAX keep a counted multiset of the group's
    values: under DISTINCT a value folds in with its first copy and out
    with its last, and a removal from MIN/MAX re-folds the multiset, so
    the next extreme takes over and a value that could not be compared
    poisons only while it is there.  Like :class:`_DedupSet`, the
    multiset counts an unhashable value (a list or dict in an ANY
    column) by equality, in a list of its copies.
    """

    __slots__ = ("counts", "loose")

    def __init__(self, func: str, distinct: bool = False) -> None:
        super().__init__(func)
        #: The copies of each hashable value in the group (DISTINCT, MIN and MAX).
        self.counts: Counter[Any] | None = Counter() if distinct or self.pick else None
        #: One entry per copy of an unhashable value.
        self.loose: list[Any] = []

    def add_many(self, values: Sequence[Any], exact: bool = False) -> None:
        if self.counts is not None:
            fresh = [value for value in values if self._step(value, 1)]
            if self.pick is None:
                values = fresh
        self.count += len(values)
        self._fold(values, exact)

    def remove_many(self, values: Sequence[Any]) -> None:
        """Fold non-NULL ``values`` out, in row order."""
        if self.counts is not None:
            gone = [value for value in values if self._step(value, -1)]
            if self.pick is not None:
                self.count -= len(values)
                self.value, self.bad = None, 0
                self._fold([*self.counts, *self.loose])
                return
            values = gone
        self.count -= len(values)
        if self.func in _SUMS:
            total = self.value
            for value in values:
                try:
                    total -= value
                except TypeError:
                    self.bad -= 1
            self.value = total

    def _step(self, value: Any, step: int) -> bool:
        """Count one copy of ``value`` in (``step`` 1) or out (-1); True
        when it is the value's first copy in or its last copy out."""
        counts = self.counts
        try:
            left = counts[value] + step
        except TypeError:
            if step > 0:
                self.loose.append(value)
            else:
                self.loose.remove(value)
            left = self.loose.count(value)
        else:
            if left:
                counts[value] = left
            else:
                del counts[value]
        return left == (step > 0)


def partition(keys: Iterable[Any], items: Iterable[Any]) -> dict[Any, list[Any]]:
    """Bucket ``items`` by the parallel ``keys``: buckets in first-seen key
    order, items in their order within a bucket, so a group's fold stays
    the left fold of its rows.  ``dict.get`` finds a bucket with no
    exception for a new key, which wins while batches are small or keys
    many (an appended tail, a view's delta)."""
    buckets: dict[Any, list[Any]] = {}
    get = buckets.get
    for key, item in zip(keys, items):
        bucket = get(key)
        if bucket is None:
            buckets[key] = [item]
        else:
            bucket.append(item)
    return buckets


def new_states(specs: Sequence[Any], state: type[AggState] = AggState) -> list[Any]:
    """A group's states, one per aggregate spec (None for COUNT(*))."""
    return [None if s.arg is None else state(s.func, s.distinct) for s in specs]


def put_results(
    row: dict[str, Any], names: Sequence[str], star: int, states: Sequence[Any]
) -> None:
    """Set each aggregate's value, by name, for a group of ``star`` rows."""
    for name, state in zip(names, states):
        row[name] = star if state is None else state.result()
