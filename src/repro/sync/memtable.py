"""In-memory mirrors of disk-resident tables (R_M for R_D).

"The visualisation software running within an instance of a visualisation
activity needs to maintain portions of a table in memory, to refresh the
visualisation fast" (Section VI-C).  A :class:`MemoryTable` is such a
portion: a client-side dict of rows keyed by tid, refreshed by *pulling*
changed rows after a NOTIFY, and *pushing* local edits back to R_D.  It
holds only images the table committed -- the table's own row dicts, which
its readers share read-only (writers copy on write, ``Table.update_*``).
A local edit reaches the mirror as the image its committed UPDATE
returned, so the echo of that edit is the image the mirror already holds.

Reads of one tid take no lock: every write to :attr:`MemoryTable.rows`
is one C-level dict operation, so a one-key read sees one committed image
or none, as a locked read would.  Writers, and readers of many rows, take
the mirror's lock, so they never observe a half-applied batch.

The mirror may be partial: a ``fraction`` or a ``predicate`` restricts
which rows it keeps, supporting the paper's multi-device scenario ("an
iphone showing 10% of the data, a laptop 30%, the WILD wall all of it").
"""

from __future__ import annotations

import threading
from operator import itemgetter
from typing import Any, Callable, Iterable, Iterator, Mapping, Optional, Sequence

from ..db.schema import TID
from ..errors import SyncError

Row = Mapping[str, Any]

#: Row filter deciding membership in a partial mirror.
RowPredicate = Callable[[Row], bool]

_tid_of = itemgetter(TID)


class MemoryTable:
    """Client-side mirror of one DBMS table.

    The mirror does not talk to the database directly: a
    :class:`~repro.sync.client.SyncClient` feeds it pulled rows and
    carries its write-backs, so the same class also works in the
    in-process (no socket) configuration used by unit tests.
    """

    def __init__(
        self,
        table: str,
        fraction: float = 1.0,
        predicate: Optional[RowPredicate] = None,
    ) -> None:
        if not 0.0 < fraction <= 1.0:
            raise SyncError(f"fraction must be in (0, 1], got {fraction}")
        self.table = table
        self.fraction = fraction
        self.predicate = predicate
        self.rows: dict[int, Row] = {}
        self.last_seq_no = 0
        self._lock = threading.RLock()
        # Counters for tests/benchmarks.
        self.applied_inserts = 0
        self.applied_updates = 0
        self.applied_deletes = 0
        #: Images offered that the mirror already held: the echo of its
        #: own write-back (protocol step 9's "smart" processing).
        self.skipped_self_updates = 0

    # ------------------------------------------------------------------
    def accepts(self, row: Row) -> bool:
        """Partial-mirror membership test."""
        if self.predicate is not None and not self.predicate(row):
            return False
        if self.fraction < 1.0:
            # Deterministic sampling on tid: stable across refreshes.
            return (row[TID] * 2654435761 % 1000) < self.fraction * 1000
        return True

    # ------------------------------------------------------------------
    # Applying committed images (called by the sync client)
    def apply_upsert(self, row: Row) -> None:
        self.apply_batch([row], [])

    def apply_delete(self, tid: int) -> None:
        self.apply_batch([], [tid])

    def apply_batch(self, upserts: Sequence[Row], deletes: Iterable[int]) -> None:
        """Fold committed row images, then deletions, in under ONE lock
        acquisition -- the one apply path; readers never observe a
        half-applied batch.

        A row the partial mirror does not accept leaves it; of a tid
        listed twice, the last image counts.  An image of a held row is an
        update, unless it *is* the held image: then it is the echo of this
        mirror's own write-back, and skipped.
        """
        with self._lock:
            rows = self.rows
            # Keyed by each image's own tid object, in one pass in C.
            images: dict[int, Row] = {}
            images.update(zip(map(_tid_of, upserts), upserts))
            if self.predicate is not None or self.fraction < 1.0:
                rejected = [t for t, row in images.items() if not self.accepts(row)]
                for tid in rejected:
                    del images[tid]
                    rows.pop(tid, None)
            held = rows.keys() & images.keys()
            echoes = sum(rows[tid] is images[tid] for tid in held) if held else 0
            self.skipped_self_updates += echoes
            self.applied_updates += len(held) - echoes
            self.applied_inserts += len(images) - len(held)
            rows.update(images)
            for tid in deletes:
                if rows.pop(tid, None) is not None:
                    self.applied_deletes += 1

    def hold(self, image: Row) -> None:
        """Hold ``image``, the committed image of this mirror's own
        write-back: a local edit, not a pulled change, so no counter
        moves -- and the refresh that pulls its echo finds it held."""
        with self._lock:
            updates = self.applied_updates
            self.apply_batch([image], [])
            self.applied_updates = updates

    # ------------------------------------------------------------------
    # Reads: the held images themselves, read-only
    def get(self, tid: int) -> Optional[Row]:
        return self.rows.get(tid)  # one key: no lock (module docstring)

    def all_rows(self) -> list[Row]:
        with self._lock:
            return list(self.rows.values())

    def tids(self) -> list[int]:
        with self._lock:
            return sorted(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(self.all_rows())
