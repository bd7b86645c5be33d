"""Deltas: the unit of incremental propagation.

The paper writes updates as ``Delta R`` -- "a set of tuples added to R"
(Section V) -- and propagates them "using well-known incremental view
maintenance algorithms" (Section VI-B, citing Gupta-Mumick).  A
:class:`Delta` carries inserted and deleted row images; an update is
modelled, classically, as delete(before) + insert(after).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

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


def partition_rows(rows: Iterable[Row], group_by: Sequence[str]) -> dict[tuple, list[Row]]:
    """Partition rows by their group key, preserving first-seen group order
    and within-group row order.

    Aggregate maintenance folds each partition with one
    :meth:`AggregateView.apply_group_rows` call; preserving row order keeps
    float SUM accumulation the left fold of the rows in delta order.
    """
    groups: dict[tuple, list[Row]] = {}
    for row in rows:
        key = tuple(row[g] for g in group_by)
        bucket = groups.get(key)
        if bucket is None:
            groups[key] = [row]
        else:
            bucket.append(row)
    return groups


def row_key(row: Row) -> tuple[tuple[str, Any], ...]:
    """Hashable identity of a row over its visible columns.

    Used by multiset view storage: two rows with equal visible columns are
    the same tuple for view-maintenance purposes.
    """
    return tuple(sorted((k, v) for k, v in row.items() if not k.startswith("__")))
