"""Materialized view definitions and storage.

Three view shapes cover everything EdiFlow's applications need:

* :class:`SelectProjectView` -- sigma/pi over one base table;
* :class:`JoinView` -- equi-join of two base tables with optional
  selection and projection;
* :class:`AggregateView` -- GROUP BY with COUNT/SUM/AVG/MIN/MAX, DISTINCT
  or not, over one base table (the US-election vote aggregates and the
  Wikipedia contribution metrics are exactly this shape).  Its groups
  fold through :mod:`repro.db.aggstate`, the SQL engines' aggregate
  state: a value that cannot be folded poisons its aggregate to NULL
  until that value's row is deleted.

Views store their result as a counted multiset so that duplicate tuples
delete correctly (classic counting algorithm of Gupta-Mumick).  Each shape
has one fold, :meth:`ViewDefinition.apply`, which takes a delta against a
base table in time proportional to the delta; :meth:`ViewDefinition.recompute`
is that same fold applied to every row of the base tables.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Callable, Sequence

from ..db.aggstate import ViewAggState, new_states, put_results
from ..db.algebra import AggSpec
from ..db.expression import ColumnRef, Expression, Items, evaluate_predicate, row_maker
from ..db.schema import TID
from ..errors import ViewError
from .delta import Delta, Row, partition_rows, row_key


class ViewDefinition:
    """Base class: which tables feed the view, and the fold that maintains it."""

    name: str
    #: Optional bidirectional lineage index (see :meth:`enable_lineage`).
    lineage: Any = None

    def base_tables(self) -> set[str]:
        raise NotImplementedError

    def apply(self, delta: Delta) -> int:
        """Fold ``delta`` into the view; returns how many delta rows (join
        combinations, for :class:`JoinView`) it folded in.  Rows the view's
        predicate filters out do not count; a delta on a table the view
        does not read folds nothing."""
        raise NotImplementedError

    def clear(self) -> None:
        """Empty the view's state (not its lineage index)."""
        raise NotImplementedError

    def recompute(self, database: Any) -> None:
        """Rebuild from scratch: the incremental fold over every base row."""
        self.clear()
        if self.lineage is not None:
            self.lineage.clear()
        for table in sorted(self.base_tables()):
            self.apply(Delta.insertions(table, database.table(table).rows()))

    def rows(self) -> list[Row]:
        raise NotImplementedError

    def enable_lineage(self) -> "ViewDefinition":
        """Track per-output input-tid sets through recompute and deltas.

        After enabling, :meth:`backward_lineage` answers "which base
        tuples produced this output" and :meth:`forward_lineage` the
        reverse.  Tracking starts from the next recompute; enable before
        registering the view so the initial population is indexed.
        Returns ``self`` for chaining.
        """
        if self.lineage is None:
            from ..lineage.views import ViewLineage

            self.lineage = ViewLineage()
        return self

    def backward_lineage(self, key: Any) -> set[tuple[str, Any]]:
        """Base ``(table, tid)`` pairs currently feeding output ``key``.

        For :class:`AggregateView` the key is the group-key tuple; for
        the other shapes it is :func:`~repro.ivm.delta.row_key` of the
        output row.
        """
        if self.lineage is None:
            raise ViewError(
                f"view {self.name!r} has no lineage index; call enable_lineage()"
            )
        return self.lineage.backward(key)

    def forward_lineage(self, table: str, tid: Any) -> set[Any]:
        """Output keys that base tuple ``(table, tid)`` contributes to."""
        if self.lineage is None:
            raise ViewError(
                f"view {self.name!r} has no lineage index; call enable_lineage()"
            )
        return self.lineage.forward((table, tid))


class _MultisetStorage:
    """Counted multiset of rows keyed by their visible-column identity."""

    def __init__(self) -> None:
        self._counts: Counter[tuple[tuple[str, Any], ...]] = Counter()
        self._samples: dict[tuple[tuple[str, Any], ...], Row] = {}

    def clear(self) -> None:
        self._counts.clear()
        self._samples.clear()

    def add_many(self, rows: Sequence[Row]) -> None:
        """Fold rows in, one count each."""
        counts = self._counts
        samples = self._samples
        for row in rows:
            key = row_key(row)
            counts[key] += 1
            if key not in samples:
                samples[key] = {k: v for k, v in row.items() if not k.startswith("__")}

    def remove_many(self, rows: Sequence[Row]) -> None:
        """Fold rows out, one count each, in order; underflow raises."""
        counts = self._counts
        samples = self._samples
        for row in rows:
            key = row_key(row)
            current = counts.get(key, 0)
            if current < 1:
                raise ViewError(
                    f"view multiset underflow removing {dict(key)!r} "
                    f"(have {current}, removing 1)"
                )
            if current == 1:
                del counts[key]
                del samples[key]
            else:
                counts[key] = current - 1

    def rows(self) -> list[Row]:
        out: list[Row] = []
        for key, count in self._counts.items():
            sample = self._samples[key]
            out.extend(dict(sample) for _ in range(count))
        return out

    def __len__(self) -> int:
        return sum(self._counts.values())


def _visible(row: Row) -> Row:
    return {k: v for k, v in row.items() if not k.startswith("__")}


def _projector(items: Items | None) -> Callable[[Row], Row]:
    """A view's row projection: its compiled row maker, or the visible
    columns when it projects none."""
    return _visible if items is None else row_maker(items)


class SelectProjectView(ViewDefinition):
    """``SELECT <project> FROM <table> WHERE <predicate>`` materialized."""

    def __init__(
        self,
        name: str,
        table: str,
        where: Expression | None = None,
        project: Sequence[tuple[str, Expression]] | None = None,
    ) -> None:
        self.name = name
        self.table = table
        self.where = where
        self.project = list(project) if project is not None else None
        self._project = _projector(self.project)
        self.storage = _MultisetStorage()

    def base_tables(self) -> set[str]:
        return {self.table}

    def clear(self) -> None:
        self.storage.clear()

    def apply(self, delta: Delta) -> int:
        """Project the qualifying rows, then fold insertions in and
        deletions out of the multiset."""
        if delta.table != self.table:
            return 0
        where = self.where
        inserted = delta.inserted
        deleted = delta.deleted
        if where is not None:
            inserted = [row for row in inserted if evaluate_predicate(where, row)]
            deleted = [row for row in deleted if evaluate_predicate(where, row)]
        inserted_projected = list(map(self._project, inserted))
        deleted_projected = list(map(self._project, deleted))
        self.storage.add_many(inserted_projected)
        self.storage.remove_many(deleted_projected)
        lineage = self.lineage
        if lineage is not None:
            table = self.table
            for row, projected in zip(inserted, inserted_projected):
                lineage.add(row_key(projected), ((table, row.get(TID)),))
            for row, projected in zip(deleted, deleted_projected):
                lineage.remove(row_key(projected), ((table, row.get(TID)),))
        return len(inserted) + len(deleted)

    def rows(self) -> list[Row]:
        return self.storage.rows()

    def __len__(self) -> int:
        return len(self.storage)


class JoinView(ViewDefinition):
    """Materialized equi-join ``left JOIN right ON left_on = right_on``.

    Maintains per-side hash maps from join-key to source-row multiplicity
    so a delta on either side joins against the *other side's current
    state* in O(|delta|) expected time.
    """

    def __init__(
        self,
        name: str,
        left: str,
        right: str,
        left_on: str,
        right_on: str,
        where: Expression | None = None,
        project: Sequence[tuple[str, Expression]] | None = None,
    ) -> None:
        if left == right:
            raise ViewError("self-joins are not supported by JoinView")
        self.name = name
        self.left = left
        self.right = right
        self.left_on = left_on
        self.right_on = right_on
        self.where = where
        self.project = list(project) if project is not None else None
        self._project = _projector(self.project)
        self.storage = _MultisetStorage()
        # join key -> list of (visible-column image, tid) entries currently
        # on that side.  The tid disambiguates duplicate images on delete
        # and carries the lineage source; it may be None for rows that
        # never touched a stored table.
        self.left_rows: dict[Any, list[tuple[Row, Any]]] = {}
        self.right_rows: dict[Any, list[tuple[Row, Any]]] = {}

    def base_tables(self) -> set[str]:
        return {self.left, self.right}

    def combine(self, lrow: Row, rrow: Row) -> Row | None:
        joined = {
            **{k: v for k, v in lrow.items() if not k.startswith("__")},
            **{k: v for k, v in rrow.items() if not k.startswith("__")},
        }
        if not evaluate_predicate(self.where, joined):
            return None
        return self._project(joined)

    _image = staticmethod(_visible)

    def clear(self) -> None:
        self.storage.clear()
        self.left_rows.clear()
        self.right_rows.clear()

    def apply(self, delta: Delta) -> int:
        """Join each delta row against the other side's current rows
        (deletions first), then file it in its own side's map."""
        if delta.table == self.left:
            side, other, key_col, from_left = self.left_rows, self.right_rows, self.left_on, True
        elif delta.table == self.right:
            side, other, key_col, from_left = self.right_rows, self.left_rows, self.right_on, False
        else:
            return 0
        applied = 0
        for row in delta.deleted:
            applied += self._fold_row(side, other, key_col, row, from_left, -1)
        for row in delta.inserted:
            applied += self._fold_row(side, other, key_col, row, from_left, +1)
        return applied

    def _fold_row(
        self,
        side: dict[Any, list[tuple[Row, Any]]],
        other: dict[Any, list[tuple[Row, Any]]],
        key_col: str,
        row: Row,
        from_left: bool,
        sign: int,
    ) -> int:
        """Fold one delta row on one side; returns the combinations touched."""
        key = row[key_col]
        tid = row.get(TID)
        combos: list[Row] = []
        pairs: list[tuple[tuple[str, Any], tuple[str, Any]]] = []
        if key is not None:
            for other_row, other_tid in other.get(key, ()):
                if from_left:
                    combined = self.combine(row, other_row)
                    pair = ((self.left, tid), (self.right, other_tid))
                else:
                    combined = self.combine(other_row, row)
                    pair = ((self.left, other_tid), (self.right, tid))
                if combined is not None:
                    combos.append(combined)
                    pairs.append(pair)
        lineage = self.lineage
        if sign > 0:
            self.storage.add_many(combos)
            if lineage is not None:
                for combined, pair in zip(combos, pairs):
                    lineage.add(row_key(combined), pair)
        else:
            self.storage.remove_many(combos)
            if lineage is not None:
                for combined, pair in zip(combos, pairs):
                    lineage.remove(row_key(combined), pair)
        # Maintain the side map itself.  Entries are (visible image, tid);
        # deletes match by tid when the delta row carries one (recomputed
        # state and delta images then agree even though delta rows are full
        # internal images), falling back to image equality for tid-less rows.
        image = self._image(row)
        bucket = side.setdefault(key, [])
        if sign > 0:
            bucket.append((image, tid))
        else:
            idx = None
            if tid is not None:
                for i, (_, t) in enumerate(bucket):
                    if t == tid:
                        idx = i
                        break
            if idx is None:
                for i, (img, _) in enumerate(bucket):
                    if img == image:
                        idx = i
                        break
            if idx is None:
                raise ViewError(
                    f"join view {self.name!r}: deleting a row never seen on "
                    f"{'left' if from_left else 'right'} side: {image!r}"
                )
            del bucket[idx]
            if not bucket:
                del side[key]
        return len(combos)

    def rows(self) -> list[Row]:
        return self.storage.rows()

    def __len__(self) -> int:
        return len(self.storage)


class AggregateView(ViewDefinition):
    """Materialized ``SELECT group_by..., aggs... FROM table WHERE ...``.

    Each group folds through the aggregate state the SQL engines use,
    extended with removal (:class:`~repro.db.aggstate.ViewAggState`), so
    the view reads what a fresh GROUP BY would.  SUM/COUNT/AVG maintain in
    O(1) per delta row.  MIN/MAX keep a counted multiset of values per
    group and re-fold it on a delete, so deleting the current extremum
    finds the next one without touching the base table; DISTINCT keeps
    one too, and folds a value only while a copy of it is in the group.
    A value SUM/AVG or MIN/MAX cannot fold (a str among ints) reads as
    NULL, as in SQL, never as an error, until its row is deleted.
    """

    def __init__(
        self,
        name: str,
        table: str,
        group_by: Sequence[str],
        aggregates: Sequence[AggSpec],
        where: Expression | None = None,
    ) -> None:
        self.name = name
        self.table = table
        self.group_by = list(group_by)
        self.aggregates = list(aggregates)
        self.where = where
        # key -> [count of rows, one ViewAggState per spec (None: COUNT(*))]
        self.groups: dict[tuple[Any, ...], list[Any]] = {}

    def base_tables(self) -> set[str]:
        return {self.table}

    def clear(self) -> None:
        self.groups.clear()

    def apply(self, delta: Delta) -> int:
        """Partition the qualifying rows per group and fold each partition
        with one :meth:`apply_group_rows` call, deletions first."""
        if delta.table != self.table:
            return 0
        where = self.where
        deleted = delta.deleted
        inserted = delta.inserted
        if where is not None:
            deleted = [row for row in deleted if evaluate_predicate(where, row)]
            inserted = [row for row in inserted if evaluate_predicate(where, row)]
        for key, rows in partition_rows(deleted, self.group_by).items():
            self.apply_group_rows(key, rows, -1)
        for key, rows in partition_rows(inserted, self.group_by).items():
            self.apply_group_rows(key, rows, +1)
        return len(deleted) + len(inserted)

    def _group_key(self, row: Row) -> tuple[Any, ...]:
        return tuple(row[g] for g in self.group_by)

    def apply_row(self, row: Row, sign: int) -> None:
        """Fold one base row in (+1) or out (-1) of its group."""
        self.apply_group_rows(self._group_key(row), [row], sign)

    def apply_group_rows(self, key: tuple[Any, ...], rows: Sequence[Row], sign: int) -> None:
        """Fold same-group base rows in (+1) or out (-1), in row order."""
        if not rows:
            return
        entry = self.groups.get(key)
        if entry is None:
            if sign < 0:
                raise ViewError(
                    f"aggregate view {self.name!r}: deleting from unknown group {key!r}"
                )
            entry = self.groups[key] = [0, new_states(self.aggregates, ViewAggState)]
        if self.lineage is not None:
            srcs = [(self.table, row.get(TID)) for row in rows]
            if sign > 0:
                self.lineage.add(key, srcs)
            else:
                self.lineage.remove(key, srcs)
        entry[0] += sign * len(rows)
        first = rows[0]
        for spec, state in zip(self.aggregates, entry[1]):
            if state is None:
                continue
            arg = spec.arg
            if isinstance(arg, ColumnRef) and arg.name in first:
                name = arg.name
                values = [v for row in rows if (v := row[name]) is not None]
            else:
                values = [v for row in rows if (v := arg.eval(row)) is not None]
            if sign > 0:
                state.add_many(values)
            else:
                state.remove_many(values)
        if entry[0] < 0:
            raise ViewError(
                f"aggregate view {self.name!r}: group {key!r} count underflow"
            )
        if entry[0] == 0:
            del self.groups[key]

    def rows(self) -> list[Row]:
        names = [s.name for s in self.aggregates]
        out: list[Row] = []
        for key, (star, states) in self.groups.items():
            row: Row = dict(zip(self.group_by, key))
            put_results(row, names, star, states)
            out.append(row)
        return out

    def group(self, *key: Any) -> Row | None:
        """Result row for one group key, or None if the group is empty."""
        entry = self.groups.get(key)
        if entry is None:
            return None
        row: Row = dict(zip(self.group_by, key))
        put_results(row, [s.name for s in self.aggregates], *entry)
        return row

    def __len__(self) -> int:
        return len(self.groups)
