"""Secondary indexes for the embedded engine.

Two kinds are provided:

* :class:`HashIndex` -- equality lookups (used for primary keys, unique
  constraints, and hash joins on foreign keys).
* :class:`SortedIndex` -- range lookups over an ordered key (used for
  Notification ``seq_no`` scans in VI-C); :class:`StampIndex` is its
  read-only form over keys that ascend with tid, a table's creation
  stamps, which the time-based isolation predicates of Section VI-A
  filter rows by.

A hash index maps a key to its tuple identifier (tid), or to a set of
tids once the key holds two -- a composite key through its first value,
then the rest; a sorted index keeps its keys and their tids as two
parallel lists sorted by ``(key, tid)``.
The owning table resolves tids to rows.  A NULL is indexed as ``None``,
and uniqueness checks skip a key with a NULL part (SQL semantics: NULLs
never collide).

Both kinds expose the same maintenance surface -- ``add``/``remove`` for
one row and ``add_many``/``remove_many`` for one statement's rows, and
``put`` to file one row whose uniqueness the caller settled -- and a
``columns`` tuple and a ``unique`` flag, so the table never asks which
kind it holds; a unique index (always a hash index) adds ``key`` and the
set-at-a-time uniqueness checks, ``first_violation`` for an INSERT's rows
and ``first_move_violation`` for an UPDATE's key moves.  A statement's
rows split once (:meth:`HashIndex.batch`) serve both its check
(``first_violation_in``) and its filing (``add_many``).
"""

from __future__ import annotations

import bisect
from operator import itemgetter
from types import MappingProxyType
from typing import Any, Hashable, Iterable, Iterator, Mapping, Sequence

from ..errors import ConstraintViolation

#: The one group of a one-column index: its whole map.
_ONE = object()


def _put(buckets: dict[Hashable, int | set[int]], key: Hashable, tid: int) -> None:
    """File ``tid`` under ``key``: the tid itself while the key holds one,
    a set once it holds two."""
    entry = buckets.setdefault(key, tid)
    if entry is tid:
        return
    if type(entry) is set:
        entry.add(tid)
    elif entry != tid:
        buckets[key] = {entry, tid}


def _drop(buckets: dict[Hashable, int | set[int]], key: Hashable, tid: int) -> None:
    """Inverse of :func:`_put`: a set left with one tid becomes the tid,
    a key left with none goes."""
    entry = buckets.get(key)
    if type(entry) is set:
        entry.discard(tid)
        if len(entry) == 1:
            (buckets[key],) = entry
    elif entry == tid:
        del buckets[key]


class HashIndex:
    """Equality index: key value -> tid, or a set of tids once the key
    holds two.

    A one-column index is one map, value -> entry.  A composite one files
    a key under its first value, then the rest of the key (the second
    value, or the tuple of the later ones): ``{first: {rest: entry}}``.
    The rows that share a first value -- one component's VisualAttributes
    -- are one inner map, a :meth:`group`, so a statement of them is
    checked with one ``isdisjoint`` and filed with one ``dict.update``,
    building no key per row.  :meth:`key` names a composite key
    ``(first, rest)``.

    The representation is canonical (a set holds two tids or more, a
    group one key or more), so ``_buckets`` depends only on what is
    indexed, and a key is held exactly when it is in its map --
    membership, not the entry's truthiness, is the test (tid 0 is falsy).
    """

    def __init__(self, table_name: str, columns: tuple[str, ...], unique: bool = False) -> None:
        self.table_name = table_name
        self.columns = columns
        self.unique = unique
        self._buckets: dict[Hashable, Any] = {}
        #: A row's first value (None: one column) and its key in its map.
        self._first = itemgetter(columns[0]) if len(columns) > 1 else None
        self._rest = itemgetter(*columns[1:] or columns)
        self._wide = len(columns) > 2

    # ------------------------------------------------------------------
    def key(self, row: dict[str, Any]) -> Hashable:
        """The key ``row`` is (or would be) indexed under."""
        rest = self._rest(row)
        return rest if self._first is None else (self._first(row), rest)

    def _group(self, first: Hashable, create: bool = False) -> dict[Hashable, Any]:
        """The map the keys of ``first`` are filed in ({} if none is)."""
        if first is _ONE:
            return self._buckets
        if create:
            return self._buckets.setdefault(first, {})
        return self._buckets.get(first) or {}  # a held group is never empty

    def batch(
        self, tids: Iterable[int], rows: Sequence[dict[str, Any]]
    ) -> dict[Hashable, list[Any]]:
        """A statement as ``first -> [keys in the group, tids]``, in
        statement order; rows sharing a first value are one group, built
        from one flat list of keys."""
        keys = list(map(self._rest, rows))
        if self._first is None:
            return {_ONE: [keys, tids]}
        firsts = list(map(self._first, rows))
        if not firsts or firsts.count(firsts[0]) == len(firsts):
            return {firsts[0]: [keys, tids]} if firsts else {}
        groups: dict[Hashable, list[Any]] = {}
        for first, key, tid in zip(firsts, keys, tids):
            group = groups.get(first) or groups.setdefault(first, [[], []])
            group[0].append(key)
            group[1].append(tid)
        return groups

    def _is_null(self, key: Hashable) -> bool:
        """Whether a key in a group has a NULL part."""
        return None in key if self._wide else key is None  # type: ignore[operator]

    def _violation(self, key: Hashable) -> ConstraintViolation:
        cols = ",".join(self.columns)
        return ConstraintViolation(
            f"unique constraint on {self.table_name}({cols}) violated by key {key!r}"
        )

    # ------------------------------------------------------------------
    def add(self, tid: int, row: dict[str, Any]) -> None:
        self.check_insert(row)  # first: a violation leaves the index as it was
        self.put(tid, row)

    def put(self, tid: int, row: dict[str, Any]) -> None:
        """File ``row``, whose uniqueness the caller settled."""
        first = _ONE if self._first is None else self._first(row)
        _put(self._group(first, create=True), self._rest(row), tid)

    def remove(self, tid: int, row: dict[str, Any]) -> None:
        first = _ONE if self._first is None else self._first(row)
        group = self._group(first)
        _drop(group, self._rest(row), tid)
        if not group and first is not _ONE:
            self._buckets.pop(first, None)

    def check_insert(self, row: dict[str, Any]) -> None:
        """Raise if adding ``row`` would violate uniqueness (without adding)."""
        if self.unique:
            key = self.key(row)
            first, rest = (_ONE, key) if self._first is None else key
            if first is not None and not self._is_null(rest):
                if rest in self._group(first):
                    raise self._violation(key)

    # ------------------------------------------------------------------
    # One statement's rows at a time
    def first_violation(
        self, rows: Sequence[dict[str, Any]]
    ) -> tuple[int, ConstraintViolation] | None:
        """Where adding ``rows`` in order would first violate uniqueness.

        Returns ``(position, error)`` for the first row that collides
        with the index *or with a row before it in the batch*, or None.
        Nothing is added.  Only meaningful on a unique index.
        """
        return self.first_violation_in(self.batch(range(len(rows)), rows))

    def first_violation_in(
        self, batch: dict[Hashable, list[Any]]
    ) -> tuple[int, ConstraintViolation] | None:
        """:meth:`first_violation` over a statement's :meth:`batch`, whose
        tids ascend in statement order: ``(tid, error)`` of its first row
        that collides, or None."""
        found = found_first = found_key = None
        for first, (keys, tids) in batch.items():
            held = self._group(first)
            # Skip a NULL first value (every key has a NULL part) and, at
            # once, a group none of whose keys is held or repeats.
            if first is None or (
                held.keys().isdisjoint(keys) and len(set(keys)) == len(keys)
            ):
                continue
            seen: set[Hashable] = set()
            for key, tid in zip(keys, tids):
                if (key in seen or key in held) and not self._is_null(key):
                    if found is None or tid < found:
                        found = tid
                        found_first = first
                        found_key = key
                    break
                seen.add(key)
        if found is None:
            return None
        key = found_key if found_first is _ONE else (found_first, found_key)
        return found, self._violation(key)

    def first_move_violation(
        self, moves: Iterable[tuple[int, Hashable, Hashable]]
    ) -> tuple[int, ConstraintViolation] | None:
        """Where re-keying rows in order would first violate uniqueness.

        ``moves`` are one UPDATE statement's ``(position, old key, new
        key)`` triples (keys as :meth:`key` gives them), in statement
        order.  The statement is replayed on key sets only: a key is taken
        while the index holds it and no earlier move released it, or once
        an earlier move claimed it (so a swap of two keys fails at its
        first row, as row-at-a-time updates do).  Returns ``(position,
        error)`` of the first move onto a taken key, or None.  Only
        meaningful on a unique index.
        """
        released: set[Hashable] = set()
        claimed: set[Hashable] = set()
        for position, old, new in moves:
            first, key = (_ONE, new) if self._first is None else new
            if first is not None and not self._is_null(key) and (
                new in claimed or (key in self._group(first) and new not in released)
            ):
                return position, self._violation(new)
            released.add(old)
            claimed.add(new)
        return None

    def add_many(
        self,
        tids: Iterable[int],
        rows: Sequence[dict[str, Any]],
        batch: dict[Hashable, list[Any]] | None = None,
    ) -> None:
        """Index a statement's rows -- from their :meth:`batch`, when the
        caller built it for the check; uniqueness was settled by
        :meth:`first_violation_in` / :meth:`first_move_violation` (or by
        the log being replayed)."""
        if batch is None:
            batch = self.batch(tids, rows)
        for first, (keys, at) in batch.items():
            group = self._group(first, create=True)
            if self.unique and first is not None and not (
                any(None in key for key in keys) if self._wide else None in keys
            ):
                # Settled: every key is new to the group, none repeats.
                group.update(zip(keys, at))
                continue
            for key, tid in zip(keys, at):
                # One dict operation when the key is new; _put handles a
                # key that already holds tids.
                if group.setdefault(key, tid) is not tid:
                    _put(group, key, tid)

    def remove_many(self, tids: Iterable[int], rows: Sequence[dict[str, Any]]) -> None:
        for first, (keys, at) in self.batch(tids, rows).items():
            group = self._group(first)
            for key, tid in zip(keys, at):
                _drop(group, key, tid)
            if not group and first is not _ONE:
                self._buckets.pop(first, None)

    # ------------------------------------------------------------------
    def _entry(self, values: Iterable[Any]) -> int | set[int] | None:
        """The entry of the key whose column values, in order, are ``values``."""
        first, *rest = values
        if self._first is None:
            return self._buckets.get(first)
        return self._group(first).get(tuple(rest) if self._wide else rest[0])

    def lookup(self, value: Any) -> frozenset[int]:
        """Tids whose indexed key equals ``value`` (single-column form)."""
        if self._first is not None:
            raise ValueError("use lookup_tuple for composite indexes")
        return self.lookup_tuple((value,))

    def lookup_tuple(self, values: Iterable[Any]) -> frozenset[int]:
        entry = self._entry(values)
        if entry is None:
            return frozenset()
        return frozenset(entry) if type(entry) is set else frozenset((entry,))

    def bucket_size(self, values: Iterable[Any]) -> int:
        """Exact number of tids stored under the key (cheap cost estimate)."""
        entry = self._entry(values)
        if entry is None:
            return 0
        return len(entry) if type(entry) is set else 1

    def group(self, value: Any) -> Mapping[Hashable, Any]:
        """The group of ``value`` in a composite index, read-only: rest ->
        entry (a tid, in a unique index)."""
        return MappingProxyType(self._group(value))

    def __len__(self) -> int:
        groups = [self._buckets] if self._first is None else self._buckets.values()
        return sum(len(e) if type(e) is set else 1 for g in groups for e in g.values())


class SortedIndex:
    """Ordered index over a single column supporting range scans.

    Maintained as two parallel lists, ``_keys`` and ``_tids``, sorted by
    ``(key, tid)``: keys that grow with time (``seq_no``) are appended,
    and a range is a slice of ``_tids``.  NULL keys are not indexed
    (range predicates never match NULL).
    """

    unique = False

    def __init__(self, table_name: str, column: str) -> None:
        self.table_name = table_name
        self.column = column
        self.columns = (column,)
        self._keys: list[Any] = []
        self._tids: list[int] = []

    def _position(self, key: Any, tid: int) -> int:
        """Where ``(key, tid)`` sits, or would be inserted, in the index."""
        keys = self._keys
        low = bisect.bisect_left(keys, key)
        high = bisect.bisect_right(keys, key, low)
        return bisect.bisect_left(self._tids, tid, low, high)

    def _insert(self, key: Any, tid: int) -> None:
        at = self._position(key, tid)
        self._keys.insert(at, key)
        self._tids.insert(at, tid)

    def _discard(self, key: Any, tid: int) -> None:
        at = self._position(key, tid)
        if at < len(self._tids) and self._tids[at] == tid and self._keys[at] == key:
            del self._keys[at]
            del self._tids[at]

    def add(self, tid: int, row: dict[str, Any]) -> None:
        key = row[self.column]
        if key is None:
            return
        keys, tids = self._keys, self._tids
        if not keys or key > keys[-1] or (key == keys[-1] and tid > tids[-1]):
            keys.append(key)
            tids.append(tid)
        else:
            self._insert(key, tid)

    def remove(self, tid: int, row: dict[str, Any]) -> None:
        key = row[self.column]
        if key is not None:
            self._discard(key, tid)

    put = add  # nothing to settle: sorted indexes are never unique

    def check_insert(self, row: dict[str, Any]) -> None:
        """Sorted indexes are never unique; nothing to check."""

    # ------------------------------------------------------------------
    # One statement's rows at a time
    def _sorted_batch(
        self, tids: Iterable[int], rows: Sequence[dict[str, Any]]
    ) -> tuple[list[Any], list[int]]:
        """A statement's non-NULL keys and their tids, sorted by
        ``(key, tid)``; no pair is built when both arrive in order."""
        column = self.column
        keys = [row[column] for row in rows]
        tids = list(tids)
        if None in keys or keys != sorted(keys) or tids != sorted(tids):
            pairs = sorted(entry for entry in zip(keys, tids) if entry[0] is not None)
            keys = [key for key, _tid in pairs]
            tids = [tid for _key, tid in pairs]
        return keys, tids

    def add_many(self, tids: Iterable[int], rows: Sequence[dict[str, Any]]) -> None:
        """Index a statement's rows: one splice of each list when they
        all fall into one gap -- at the end, when keys grow with time
        (``seq_no``) -- an insert each otherwise."""
        batch_keys, batch_tids = self._sorted_batch(tids, rows)
        if not batch_keys:
            return
        held_keys, held_tids = self._keys, self._tids
        at = self._position(batch_keys[0], batch_tids[0])
        if at == len(held_keys) or (batch_keys[-1], batch_tids[-1]) < (
            held_keys[at],
            held_tids[at],
        ):
            held_keys[at:at] = batch_keys
            held_tids[at:at] = batch_tids
        else:
            for key, tid in zip(batch_keys, batch_tids):
                self._insert(key, tid)

    def remove_many(self, tids: Iterable[int], rows: Sequence[dict[str, Any]]) -> None:
        """Inverse of :meth:`add_many`: one slice removal when the rows
        are neighbours in the index (a purge drops a prefix of the log)."""
        batch_keys, batch_tids = self._sorted_batch(tids, rows)
        if not batch_keys:
            return
        held_keys, held_tids = self._keys, self._tids
        at = self._position(batch_keys[0], batch_tids[0])
        end = at + len(batch_keys)
        if held_tids[at:end] == batch_tids and held_keys[at:end] == batch_keys:
            del held_keys[at:end]
            del held_tids[at:end]
            return
        for key, tid in zip(batch_keys, batch_tids):
            self._discard(key, tid)

    # ------------------------------------------------------------------
    def _bounds(
        self, low: Any, high: Any, include_low: bool, include_high: bool
    ) -> tuple[int, int]:
        """Positions ``[start, end)`` of the entries inside the range."""
        keys = self._keys
        if low is None:
            start = 0
        elif include_low:
            start = bisect.bisect_left(keys, low)
        else:
            start = bisect.bisect_right(keys, low)
        if high is None:
            end = len(keys)
        elif include_high:
            end = bisect.bisect_right(keys, high)
        else:
            end = bisect.bisect_left(keys, high)
        return start, max(start, end)

    def slice(
        self,
        low: Any = None,
        high: Any = None,
        include_low: bool = True,
        include_high: bool = True,
    ) -> list[tuple[Any, int]]:
        """The ``(key, tid)`` entries with ``low <= key <= high`` (bounds
        optional), in key order, as one list."""
        start, end = self._bounds(low, high, include_low, include_high)
        return list(zip(self._keys[start:end], self._tids[start:end]))

    def range(
        self,
        low: Any = None,
        high: Any = None,
        include_low: bool = True,
        include_high: bool = True,
    ) -> Iterator[int]:
        """The tids with ``low <= key <= high`` (bounds optional), in key
        order: one slice of the tid list."""
        start, end = self._bounds(low, high, include_low, include_high)
        return iter(self._tids[start:end])

    def count_range(
        self,
        low: Any = None,
        high: Any = None,
        include_low: bool = True,
        include_high: bool = True,
    ) -> int:
        """Exact number of entries in the range, in O(log n) (cost estimate)."""
        start, end = self._bounds(low, high, include_low, include_high)
        return end - start

    def min_key(self) -> Any:
        return self._keys[0] if self._keys else None

    def max_key(self) -> Any:
        return self._keys[-1] if self._keys else None

    def __len__(self) -> int:
        return len(self._tids)


class StampIndex(SortedIndex):
    """A read-only :class:`SortedIndex` over a table's creation stamps:
    ``stamps[tid - 1]`` is tid's key and keys ascend with tid, so the tids
    are ``1..len(stamps)`` and there is no entry per row.  A range may
    name deleted tids; readers skip them, as ``table.get`` misses."""

    def __init__(self, table_name: str, column: str, stamps: list[Any]) -> None:
        self.table_name = table_name
        self.column = column
        self.columns = (column,)
        self._keys = stamps
        self._tids = range(1, len(stamps) + 1)  # type: ignore[assignment]
