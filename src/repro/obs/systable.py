"""The one mechanism behind the eight ``sys_*`` relations.

Spans, span events, metrics, profiles, stacks, slow-log entries and
lineage queries/edges are ordinary tables of an ordinary database, so
the generic machinery (triggers, policies, views, mirrors) applies to
them -- and so do its costs: unguarded they would observe their own
writes, unbounded they would grow for ever.  :func:`is_system_table` is
the recursion guard's one predicate; :class:`SysTable` is the one place
a ``sys_*`` table is created, written and aged.  The stores on top
(:mod:`repro.obs.store`, :mod:`repro.obs.slowlog`,
:mod:`repro.lineage.store`) only map their records to rows.
"""

from __future__ import annotations

from typing import Any, Mapping, Optional, Sequence

from ..db.expression import col
from ..db.schema import Column
from .runtime import OBS

__all__ = ["SysTable", "is_system_table"]


def is_system_table(name: Any) -> bool:
    """True for the name of a ``sys_*`` relation.  A span tag, a metric
    label or a plan's base table that passes is the observer observing
    itself: never persisted, never reported (non-strings never pass)."""
    return isinstance(name, str) and name.startswith("sys_")


class SysTable:
    """A ``sys_*`` table bounded to its newest ``keep`` generations.

    ``gen`` names the column carrying a row's monotonic generation --
    the collection, entry or query that wrote it.  The bound and the
    numbering are read from that column's sorted index, never from
    process memory, so a store reopened on the same database (or on a
    snapshot or recovered copy of it) numbers on where the table stops
    and keeps enforcing the bound.  Rows with a NULL generation are not
    in the index: they are exempt.  ``keep=None`` never ages.

    Snapshots and ``recover()`` rebuild a table without its secondary
    indexes, so the constructor ensures each index on its own instead of
    creating them with the table.
    """

    def __init__(
        self,
        database: Any,
        name: str,
        columns: Sequence[Column],
        gen: str,
        keep: Optional[int],
        indexes: Sequence[tuple[str, tuple[str, ...]]] = (),
    ) -> None:
        if not is_system_table(name):
            raise ValueError(f"system tables are named sys_*, got {name!r}")
        self.database = database
        self.name = name
        self.gen = gen
        self.keep = keep
        with database.lock:
            if not database.has_table(name):
                database.create_table(name, columns)
            table = database.table(name)
            if table.find_sorted_index(gen) is None:
                table.create_index(f"ix_{name}_{gen}", (gen,), sorted=True)
            for index_name, index_columns in indexes:
                if not table.has_index(index_name):
                    table.create_index(index_name, index_columns)
            self._generations = table.find_sorted_index(gen)

    def newest(self) -> int:
        """The highest generation stored (0 for none yet)."""
        return self._generations.max_key() or 0

    def write(
        self, rows: Sequence[Mapping[str, Any]], newest: Optional[int] = None
    ) -> int:
        """Store one generation's ``rows``, then age the table against
        ``newest`` (default: the newest generation stored); returns how
        many rows aged out.

        One INSERT statement and at most one DELETE statement, invisible
        to the tracer.  The DELETE takes a prefix of the generation
        index, and an empty ``rows`` still ages: a table idle for a
        generation is a generation older.
        """
        with OBS.tracer.suppress():
            if rows:
                self.database.insert_many(self.name, rows)
            if self.keep is None:
                return 0
            cutoff = (self.newest() if newest is None else newest) - self.keep
            oldest = self._generations.min_key()
            if oldest is None or oldest > cutoff:
                return 0
            return self.database.delete(self.name, col(self.gen) <= cutoff)
