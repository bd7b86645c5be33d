"""Deltas: the unit of incremental propagation.

The paper writes updates as ``Delta R`` -- "a set of tuples added to R"
(Section V) -- and propagates them "using well-known incremental view
maintenance algorithms" (Section VI-B, citing Gupta-Mumick).  A
:class:`Delta` carries inserted and deleted row images; an update is
modelled, classically, as delete(before) + insert(after).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Any, Callable, Iterable, Sequence

from ..db.aggstate import partition
from ..db.table import ChangeSet

Row = dict[str, Any]


@dataclass
class Delta:
    """Net change to one relation."""

    table: str
    inserted: list[Row] = field(default_factory=list)
    deleted: list[Row] = field(default_factory=list)

    @classmethod
    def from_changeset(cls, change: ChangeSet) -> "Delta":
        """Convert a trigger-level change set, splitting updates."""
        delta = cls(table=change.table)
        delta.inserted.extend(change.inserted)
        delta.deleted.extend(change.deleted)
        for before, after in change.updated:
            delta.deleted.append(before)
            delta.inserted.append(after)
        return delta

    @classmethod
    def insertions(cls, table: str, rows: Iterable[Row]) -> "Delta":
        return cls(table=table, inserted=list(rows))

    @classmethod
    def deletions(cls, table: str, rows: Iterable[Row]) -> "Delta":
        return cls(table=table, deleted=list(rows))

    def is_empty(self) -> bool:
        return not self.inserted and not self.deleted

    def __len__(self) -> int:
        return len(self.inserted) + len(self.deleted)


def group_key(group_by: Sequence[str]) -> Callable[[Row], Any]:
    """A row's group value, compiled once per grouping: the column's value
    for one column (wrapped into the key tuple per group, not per row, by
    :func:`partition_rows`), the tuple of them for several, ``()`` for
    none."""
    if len(group_by) == 1:
        return itemgetter(group_by[0])
    if group_by:
        return itemgetter(*group_by)
    return _no_group


def _no_group(row: Row) -> tuple[()]:
    return ()


def partition_rows(
    rows: Sequence[Row],
    group_by: Sequence[str],
    key_of: Callable[[Row], Any] | None = None,
) -> dict[tuple, list[Row]]:
    """Partition rows by their group key tuple, preserving first-seen
    group order and within-group row order.  ``key_of`` is
    ``group_key(group_by)``, compiled by a caller that partitions often.

    Aggregate maintenance folds each partition with one
    :meth:`AggregateView.apply_group_rows` call; preserving row order keeps
    float SUM accumulation the left fold of the rows in delta order.
    """
    groups = partition(map(key_of or group_key(group_by), rows), rows)
    if len(group_by) == 1:
        return {(value,): part for value, part in groups.items()}
    return groups


def row_key(row: Row) -> tuple[tuple[str, Any], ...]:
    """Hashable identity of a row over its visible columns.

    Used by multiset view storage: two rows with equal visible columns are
    the same tuple for view-maintenance purposes.
    """
    return tuple(sorted((k, v) for k, v in row.items() if not k.startswith("__")))
