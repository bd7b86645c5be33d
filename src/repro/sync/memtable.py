"""In-memory mirrors of disk-resident tables (R_M for R_D).

"The visualisation software running within an instance of a visualisation
activity needs to maintain portions of a table in memory, to refresh the
visualisation fast" (Section VI-C).  A :class:`MemoryTable` is such a
portion: a client-side dict of rows keyed by tid, refreshed by *pulling*
changed rows after a NOTIFY, and *pushing* local edits back to R_D.  It
holds the table's own row images, which its readers share read-only:
writers copy on write (``Table.update_*``, :meth:`~MemoryTable.stage_write`).

The mirror may be partial: a ``fraction`` or a ``predicate`` restricts
which rows it keeps, supporting the paper's multi-device scenario ("an
iphone showing 10% of the data, a laptop 30%, the WILD wall all of it").
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Iterable, Iterator, Mapping, Optional, Sequence

from ..db.schema import TID
from ..errors import SyncError

Row = Mapping[str, Any]

#: Row filter deciding membership in a partial mirror.
RowPredicate = Callable[[Row], bool]


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
        #: (tid, column) -> value written locally and not yet re-observed;
        #: lets refresh skip redundant reapplication of our own edits
        #: (protocol step 9's "smart" processing).
        self._pending_writes: dict[tuple[int, str], Any] = {}
        # Counters for tests/benchmarks.
        self.applied_inserts = 0
        self.applied_updates = 0
        self.applied_deletes = 0
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
    # Applying pulled changes (called by the sync client)
    def apply_upsert(self, row: Row) -> None:
        self.apply_batch([row], [])

    def apply_delete(self, tid: int) -> None:
        self.apply_batch([], [tid])

    def apply_batch(self, upserts: Sequence[Row], deletes: Iterable[int]) -> None:
        """Fold pulled row images, then deletions, in under ONE lock
        acquisition -- the one apply path; readers never observe a
        half-applied batch.

        A row the partial mirror does not accept leaves it; an image of a
        row already held is an update, or -- when it only confirms this
        mirror's own pending writes -- a skipped self-update.
        """
        with self._lock:
            if len(upserts) == 1:
                # A one-row batch takes the per-row steps: they cost less
                # than setting up the per-batch ones.
                self._upsert_one(upserts[0])
            elif upserts:
                self._upsert_many(upserts)
            rows = self.rows
            for tid in deletes:
                if rows.pop(tid, None) is not None:
                    self.applied_deletes += 1

    def _upsert_one(self, row: Row) -> None:
        tid = row[TID]
        if not self.accepts(row):
            self.rows.pop(tid, None)
            return
        if tid not in self.rows:
            self.applied_inserts += 1
        elif self._is_own_echo(tid, row):
            self.skipped_self_updates += 1
        else:
            self.applied_updates += 1
        self.rows[tid] = row

    def _upsert_many(self, upserts: Sequence[Row]) -> None:
        """What :meth:`_upsert_one` per row leaves, a batch at a time."""
        rows = self.rows
        partial = self.predicate is not None or self.fraction < 1.0
        if partial and len({row[TID] for row in upserts}) == len(upserts):
            # Membership, decided once per batch: a rejected row leaves.
            offered, upserts = upserts, []
            for row in offered:
                if self.accepts(row):
                    upserts.append(row)
                else:
                    rows.pop(row[TID], None)
        images = {row[TID]: row for row in upserts}
        if len(images) < len(upserts):
            # A tid listed twice replays in order, one row at a time
            # (nothing above has touched the mirror for such a batch).
            for row in upserts:
                self._upsert_one(row)
            return
        held = rows.keys() & images.keys()
        echoes = 0
        if held and self._pending_writes:
            # Own-echo suppression concerns only tids written locally.
            for tid in held.intersection(tid for tid, _ in self._pending_writes):
                echoes += self._is_own_echo(tid, images[tid])
        self.skipped_self_updates += echoes
        self.applied_updates += len(held) - echoes
        self.applied_inserts += len(images) - len(held)
        rows.update(images)

    def _is_own_echo(self, tid: int, image: Row) -> bool:
        """True when the pulled image of a held row only confirms our own
        pending writes."""
        pending = {
            (ptid, column): value
            for (ptid, column), value in self._pending_writes.items()
            if ptid == tid
        }
        if not pending:
            return False
        for (ptid, column), value in pending.items():
            if image.get(column) != value:
                return False  # a concurrent remote change won; apply normally
        current = self.rows[tid]
        for key, value in image.items():
            if key.startswith("__") or (tid, key) in pending:
                continue
            if current.get(key) != value:
                return False  # something else changed alongside our write
        for key in pending:
            del self._pending_writes[key]
        return True

    # ------------------------------------------------------------------
    # Local edits (to be pushed back by the client)
    def stage_write(self, tid: int, column: str, value: Any) -> None:
        with self._lock:
            if tid not in self.rows:
                raise SyncError(f"R_M for {self.table!r} holds no row with tid {tid}")
            self.rows[tid] = {**self.rows[tid], column: value}  # copy on write
            self._pending_writes[(tid, column)] = value

    # ------------------------------------------------------------------
    # Reads: the held images themselves, read-only
    def get(self, tid: int) -> Optional[Row]:
        with self._lock:
            return self.rows.get(tid)

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
