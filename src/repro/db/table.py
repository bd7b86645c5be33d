"""Row storage for one relation.

A :class:`Table` owns its rows, assigns tuple identifiers (tids), keeps
each tid's creation logical timestamp (used by the time-based isolation of
Section VI-A), and maintains its indexes.  It is deliberately unaware of
triggers and transactions -- those live in :mod:`repro.db.database` so that
every mutation path (SQL or programmatic) funnels through one place.

Rows are plain dicts holding the schema's columns, in schema order, and
the tid under ``__tid__``.  They are kept in one dense list indexed by
``tid - base`` (None for a hole: a deleted or rolled-back tid), so a run of
tids is one slice of it; the creation stamps live beside them, in one list
indexed by tid.  Scans yield the *internal* dict objects for speed;
callers must treat them as immutable and perform writes through the table
API only.  The table takes no lock: with other threads about, read it
under the owning database's lock, as the package does (a delete at the
front shifts the row list under a reader that holds none).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress, islice, repeat
from operator import ge
from typing import Any, Callable, Collection, Iterable, Iterator, Mapping, Sequence

from ..errors import ConstraintViolation, DatabaseError, SchemaError, SyncError
from .columnar import ColumnStore
from .index import HashIndex, SortedIndex, StampIndex
from .schema import CREATED_AT, TID, TableSchema


@dataclass
class ChangeSet:
    """Rows affected by one statement against one table.

    This is what statement-level triggers receive (Section VI-B compiles
    update-propagation statements into such triggers).  ``updated`` holds
    ``(before, after)`` pairs; ``before`` images are snapshots.
    """

    table: str
    inserted: list[dict[str, Any]] = field(default_factory=list)
    updated: list[tuple[dict[str, Any], dict[str, Any]]] = field(default_factory=list)
    deleted: list[dict[str, Any]] = field(default_factory=list)

    def is_empty(self) -> bool:
        return not (self.inserted or self.updated or self.deleted)

    @property
    def operations(self) -> list[str]:
        ops = []
        if self.inserted:
            ops.append("insert")
        if self.updated:
            ops.append("update")
        if self.deleted:
            ops.append("delete")
        return ops


#: State tags inside :class:`DeltaCoalescer`.
_INS = "insert"
_UPD = "update"
_DEL = "delete"


class DeltaCoalescer:
    """Merges queued :class:`ChangeSet` objects into one net change.

    Keyed on the tuple identifier with last-writer-wins semantics::

        insert + update  -> insert(after)
        insert + delete  -> (nothing)
        update + update  -> update(first before, last after)
        update + delete  -> delete(first before)
        delete + insert  -> update(before, after)     # tid reuse, defensive

    so a burst of 10k inserts followed by 10k deletes nets to zero work.
    Two windows use it: a transaction (the commit routine hands each
    table's triggers its net delta once) and a propagation policy's buffer
    (:class:`~repro.db.policy.PolicyGate`).  Not thread-safe on its
    own -- owners guard it with their own lock.  ``raw_ops`` counts
    operations as they arrived; the difference to the net size is what
    coalescing saved.
    """

    __slots__ = ("table", "raw_ops", "_state")

    def __init__(self, table: str) -> None:
        self.table = table
        self.raw_ops = 0
        # tid -> ("insert", after) | ("update", before, after) | ("delete", before)
        self._state: dict[int, tuple] = {}

    # ------------------------------------------------------------------
    def add(self, change: ChangeSet) -> int:
        """Fold one change set in; returns the number of raw ops added."""
        if change.table != self.table:
            raise SyncError(
                f"cannot coalesce changes of {change.table!r} into {self.table!r}"
            )
        ops = 0
        for row in change.inserted:
            self._add_insert(row[TID], row)
            ops += 1
        for before, after in change.updated:
            self._add_update(after[TID], before, after)
            ops += 1
        for row in change.deleted:
            self._add_delete(row[TID], row)
            ops += 1
        self.raw_ops += ops
        return ops

    def _add_insert(self, tid: int, after: dict) -> None:
        prev = self._state.get(tid)
        if prev is None or prev[0] == _INS:
            self._state[tid] = (_INS, after)
        else:
            # delete + insert: the row came back -- net effect is an update
            # (update + insert, defensive, too): keep the first before image.
            self._state[tid] = (_UPD, prev[1], after)

    def _add_update(self, tid: int, before: dict, after: dict) -> None:
        prev = self._state.get(tid)
        if prev is None:
            self._state[tid] = (_UPD, before, after)
        elif prev[0] == _INS:
            # insert + update: the consumer never saw the intermediate image.
            self._state[tid] = (_INS, after)
        else:  # update + update; delete + update (defensive) as delete + insert
            self._state[tid] = (_UPD, prev[1], after)

    def _add_delete(self, tid: int, before: dict) -> None:
        prev = self._state.get(tid)
        if prev is None:
            self._state[tid] = (_DEL, before)
        elif prev[0] == _INS:
            # insert + delete: the row never existed for the consumer.
            del self._state[tid]
        elif prev[0] == _UPD:
            self._state[tid] = (_DEL, prev[1])
        # delete + delete: keep the first tombstone.

    # ------------------------------------------------------------------
    def net_changeset(self) -> ChangeSet:
        """The coalesced change set (insertion order preserved)."""
        net = ChangeSet(self.table)
        for state in self._state.values():
            if state[0] == _INS:
                net.inserted.append(state[1])
            elif state[0] == _UPD:
                net.updated.append((state[1], state[2]))
            else:
                net.deleted.append(state[1])
        return net

    def net_ops(self) -> int:
        return len(self._state)

    def coalesced_away(self) -> int:
        """Operations eliminated by coalescing (raw minus net)."""
        return self.raw_ops - len(self._state)

    def is_empty(self) -> bool:
        return not self._state


class Table:
    """In-memory storage for one relation.

    Parameters
    ----------
    schema:
        The table schema (columns, keys).
    clock:
        ``clock(n=1)`` advances the logical clock ``n`` ticks and returns
        the last one, so a statement reserves its timestamps in one step.
        The owning :class:`~repro.db.database.Database` passes its global
        clock so timestamps are totally ordered across tables.
    """

    def __init__(self, schema: TableSchema, clock: Callable[..., int]) -> None:
        self.schema = schema
        self._clock = clock
        #: Tid ``t``'s row is ``_rows[t - _base]``, None for a hole.  A
        #: hole at the front moves ``_base`` past it, so a log purged from
        #: its head (the Notification table) holds only its live tail.
        self._rows: list[dict[str, Any] | None] = []
        self._base = 1
        self._live = 0
        #: Read-only: tid ``t``'s creation stamp is ``created[t - 1]``, for
        #: every tid ever assigned (the next is ``len(created) + 1``).  Tid
        #: and stamp ascend together; nothing is pruned, so a rollback or a
        #: WAL redo of a known tid finds its stamp.
        self.created: list[int] = []
        #: The highest tid a commit, a log or a snapshot named: what a
        #: snapshot keeps of :attr:`created`.  Tids past it were drawn by
        #: rolled-back statements only.
        self.named_tids = 0
        self._store: ColumnStore | None = None
        self._indexes: dict[str, HashIndex | SortedIndex] = {}
        #: Every column some index of ``_indexes`` is over.
        self._indexed: frozenset[str] = frozenset()
        if schema.primary_key:
            self.create_index(
                f"pk_{schema.name}", (schema.primary_key,), unique=True
            )
        for i, cols in enumerate(schema.unique):
            self.create_index(f"uq_{schema.name}_{i}", cols, unique=True)

    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        return self.schema.name

    def __len__(self) -> int:
        return self._live

    def __contains__(self, tid: int) -> bool:
        return self.get(tid) is not None

    # ------------------------------------------------------------------
    # Index management
    def create_index(
        self, name: str, columns: Sequence[str], unique: bool = False, sorted: bool = False
    ) -> None:
        """Create and backfill a secondary index."""
        if name in self._indexes:
            raise SchemaError(f"index {name!r} already exists on {self.name!r}")
        for col in columns:
            self.schema.column(col)  # validates existence
        index: HashIndex | SortedIndex
        if sorted:
            if len(columns) != 1:
                raise SchemaError("sorted indexes must be single-column")
            index = SortedIndex(self.name, columns[0])
        else:
            index = HashIndex(self.name, tuple(columns), unique=unique)
        for row in self.rows():
            index.add(row[TID], row)
        self._indexes[name] = index
        self._indexed = self._indexed.union(columns)

    def index(self, name: str) -> HashIndex | SortedIndex:
        try:
            return self._indexes[name]
        except KeyError:
            raise SchemaError(f"no index {name!r} on table {self.name!r}") from None

    def find_hash_index(self, column: str) -> HashIndex | None:
        """Best single-column hash index on ``column``, if any (for joins)."""
        for idx in self._indexes.values():
            if isinstance(idx, HashIndex) and idx.columns == (column,):
                return idx
        return None

    def find_sorted_index(self, column: str) -> SortedIndex | None:
        """Sorted index on ``column``, if any.

        Every table's creation stamps are a sorted index (the isolation
        predicates of Section VI-A scan it): tid order is creation order,
        so asking for ``CREATED_AT`` always succeeds, with a view of
        :attr:`created` as it is now.
        """
        if column == CREATED_AT:
            return StampIndex(self.name, CREATED_AT, self.created)
        for idx in self._indexes.values():
            if isinstance(idx, SortedIndex) and idx.column == column:
                return idx
        return None

    def hash_indexes(self) -> list[HashIndex]:
        """All hash indexes (single- and multi-column), for the planner."""
        return [idx for idx in self._indexes.values() if isinstance(idx, HashIndex)]

    def has_index(self, name: str) -> bool:
        return name in self._indexes

    # ------------------------------------------------------------------
    # Columnar mirror (lazy; maintained incrementally once activated)
    def column_store(self) -> ColumnStore:
        """The columnar mirror of this table, building it on first use.

        The vectorized executor (:mod:`repro.db.vector`) scans tables
        through this instead of :meth:`rows`.  Once built, every mutation
        keeps it in sync, so repeated vectorized queries pay no transpose
        cost.
        """
        if self._store is None:
            self._store = ColumnStore(self)
        return self._store

    def has_column_store(self) -> bool:
        return self._store is not None

    def drop_column_store(self) -> None:
        """Release the columnar mirror (memory pressure / tests)."""
        self._store = None

    # ------------------------------------------------------------------
    # Mutations (called by Database; do not invoke triggers themselves)
    def insert(self, values: Mapping[str, Any]) -> dict[str, Any]:
        """Insert one row; returns the stored row (with its tid)."""
        return self._insert_validated(self.schema.validate_row(values))

    def _insert_validated(self, row: dict[str, Any]) -> dict[str, Any]:
        for idx in self._indexes.values():
            idx.check_insert(row)
        self.created.append(self._clock())
        row[TID] = tid = len(self.created)
        self._place(tid, row)
        for idx in self._indexes.values():
            idx.put(tid, row)  # checked above: each index once
        if self._store is not None:
            self._store.append(row)
        return row

    def _place(self, tid: int, row: dict[str, Any]) -> None:
        """Store ``row`` at the absent ``tid``; a tid outside the span
        grows the row list, with holes for the tids between (an empty
        list starts at ``tid``)."""
        held = self._rows
        if not held:
            self._base = tid
        at = tid - self._base
        if at == len(held):
            held.append(row)
        elif at < 0:
            held[:0] = [row, *repeat(None, -at - 1)]
            self._base = tid
        elif at > len(held):
            held.extend(repeat(None, at - len(held)))
            held.append(row)
        else:
            held[at] = row
        self._live += 1

    def insert_many(self, rows: Iterable[Mapping[str, Any]]) -> list[dict[str, Any]]:
        """Insert one statement's rows; returns the stored rows.

        Set-at-a-time, with the result a loop of :meth:`insert` would
        give: the whole statement is validated and checked for uniqueness
        (against the table and against the rows before it in the batch)
        before anything is touched, so a failing statement leaves no
        trace -- no tid, no clock tick, no index entry -- and raises what
        the first offending row, in statement order, would have raised.
        An exact statement (:meth:`TableSchema.validate_rows`) is
        validated a column at a time, any other row by row.  Then ``n``
        tids and ``n`` clock ticks (the stamps) are reserved in one step and
        each index and the column store are maintained once.
        """
        if not isinstance(rows, (list, tuple)):
            rows = list(rows)
        failure: DatabaseError | None = None
        stored = self.schema.validate_rows(rows)
        if stored is None:
            validate = self.schema.validate_row
            stored = []
            try:
                for values in rows:
                    stored.append(validate(values))
            except DatabaseError as exc:
                # Rows before this one may still collide; a collision comes
                # first in statement order, so it is the error to raise.
                failure = exc
        if len(stored) == 1 and failure is None:
            # A one-row statement is insert(): the per-row index calls
            # cost less than setting up the per-statement ones.
            return [self._insert_validated(stored[0])]
        count = len(stored)
        # The tids the statement would take -- drawn below, once it is
        # checked.  The list is shared by the rows, the row list and the
        # indexes (one int object per tid, as insert() has it).
        first = len(self.created) + 1
        tids = list(range(first, first + count))
        batches, violation = self._unique_batches(tids, stored)
        if violation is not None:
            raise violation
        if failure is not None:
            raise failure
        return self.append(stored, tids, batches) if count else stored

    def append(
        self,
        rows: list[dict[str, Any]],
        tids: list[int] | None = None,
        batches: dict[HashIndex, dict[Any, list[Any]]] | None = None,
    ) -> list[dict[str, Any]]:
        """Store rows (every column, in schema order) at the next tids,
        stamped in one clock step, unchecked: the caller checked them into
        ``tids`` and ``batches``, or they are a log's (:meth:`Database.appender`)."""
        count = len(rows)
        if tids is None:
            tids = list(range(len(self.created) + 1, len(self.created) + 1 + count))
        last = self._clock(count)
        self.created.extend(range(last - count + 1, last + 1))
        for tid, row in zip(tids, rows):
            row[TID] = tid
        self._attach(tids, rows, batches or {})
        return rows

    def _unique_batches(
        self, tids: Sequence[int], rows: list[dict[str, Any]]
    ) -> tuple[dict[HashIndex, dict[Any, list[Any]]], ConstraintViolation | None]:
        """Each unique index's :meth:`~HashIndex.batch` of a statement's
        rows (``tids`` ascending in statement order), built once for the
        check and the filing, and the uniqueness error adding the rows in
        order would hit first (earliest row; for one row, the earliest
        index), if any."""
        batches = {}
        first = None
        for idx in self._indexes.values():
            if idx.unique:
                batch = batches[idx] = idx.batch(tids, rows)
                found = idx.first_violation_in(batch)
                if found is not None and (first is None or found[0] < first[0]):
                    first = found
        return batches, None if first is None else first[1]

    def _attach(
        self,
        tids: Sequence[int],
        rows: list[dict[str, Any]],
        batches: dict[HashIndex, dict[Any, list[Any]]],
        columns: dict[str, list[Any]] | None = None,
    ) -> None:
        """Store stamped rows with ascending, absent tids: the row list,
        every index (a unique one from its checked ``batches``) and the
        column store, each updated once.  Shared by :meth:`insert_many`
        and :meth:`bulk_restore`."""
        held = self._rows
        if not held:
            self._base = tids[0]
        gap = tids[0] - self._base - len(held)
        if gap >= 0 and tids[-1] - tids[0] + 1 == len(tids):
            # A run of tids past the span (every insert_many): one extend.
            held.extend(repeat(None, gap))
            held.extend(rows)
            self._live += len(rows)
        else:
            for tid, row in zip(tids, rows):
                self._place(tid, row)
        for idx in self._indexes.values():
            if idx in batches:
                idx.add_many(tids, rows, batches[idx])
            else:
                idx.add_many(tids, rows)
        if self._store is not None:
            if columns is not None:
                self._store.bulk_append_columns(columns, len(rows))
            else:
                self._store.bulk_append(rows)

    def update_row(
        self, tid: int, changes: Mapping[str, Any]
    ) -> tuple[dict[str, Any], dict[str, Any]]:
        """Apply ``changes`` to the row ``tid``: the one-row UPDATE.

        Returns ``(before_snapshot, after_row)``.  Validated and checked
        for uniqueness before anything is touched; an index is maintained
        only when the row's key in it changes.
        """
        row = self.get(tid)
        if row is None:
            raise DatabaseError(f"{self.name}: no row with tid {tid}")
        clean = self.schema.validate_update(changes)
        moves = (
            ()
            if clean.keys().isdisjoint(self._indexed)
            else self._key_moves(row, clean)
        )
        for idx, old, new in moves:
            if idx.unique:
                found = idx.first_move_violation([(0, old, new)])
                if found is not None:
                    raise found[1]
        # Copy on write: the old dict stays as it was -- it is the before
        # image, and the image an earlier change set of an open
        # transaction (its insert, its update) logs at commit.
        before, row = row, dict(row)
        row.update(clean)
        self._rows[tid - self._base] = row
        for idx, _old, _new in moves:
            idx.remove(tid, before)
            idx.put(tid, row)
        if self._store is not None:
            self._store.update(tid, row, clean)
        return before, row

    def update_many(
        self, changes_by_tid: Mapping[int, Mapping[str, Any]]
    ) -> list[tuple[dict[str, Any], dict[str, Any]]]:
        """Apply one statement's ``tid -> changes``; returns the
        ``(before_snapshot, after_row)`` pairs in statement order.

        Set-at-a-time, with the result a loop of :meth:`update_row` would
        give.  Every tid is resolved and every change map validated (one
        shared by consecutive rows, once), and the statement's key moves
        are replayed on each touched unique index, before anything is
        touched: a failing statement leaves no trace -- no changed row --
        and raises what its first offending row, in statement order, would
        have raised.  Then the rows are written, and each touched index
        and the column store maintained once.
        """
        if len(changes_by_tid) == 1:
            # A one-row statement is update_row(): the per-row index calls
            # cost less than setting up the per-statement ones.
            ((tid, changes),) = changes_by_tid.items()
            return [self.update_row(tid, changes)]
        validate = self.schema.validate_update
        tids: list[int] = []
        rows: list[dict[str, Any]] = []
        cleans: list[dict[str, Any]] = []
        moves: dict[HashIndex | SortedIndex, list[tuple[int, Any, Any]]] = {}
        failure: DatabaseError | None = None
        shared = clean = None
        indexed = False  # does ``clean`` name an indexed column?
        try:
            found = self.images(changes_by_tid)
            for (tid, changes), row in zip(changes_by_tid.items(), found):
                if row is None:
                    raise DatabaseError(f"{self.name}: no row with tid {tid}")
                if changes is not shared:
                    shared, clean = changes, validate(changes)
                    indexed = not clean.keys().isdisjoint(self._indexed)
                if indexed:
                    for idx, old, new in self._key_moves(row, clean):
                        moves.setdefault(idx, []).append((len(rows), old, new))
                tids.append(tid)
                rows.append(row)
                cleans.append(clean)
        except DatabaseError as exc:
            # Rows before this one may still collide; a collision comes
            # first in statement order, so it is the error to raise.
            failure = exc
        first = None
        for idx in self._indexes.values():
            if idx.unique and idx in moves:
                found = idx.first_move_violation(moves[idx])
                if found is not None and (first is None or found[0] < first[0]):
                    first = found
        if first is not None:
            raise first[1]
        if failure is not None:
            raise failure
        count = len(rows)
        if not count:
            return []
        # Copy on write, as in update_row.
        befores, rows = rows, [dict(row) for row in rows]
        held, base = self._rows, self._base
        for tid, row, clean in zip(tids, rows, cleans):
            row.update(clean)
            held[tid - base] = row
        for idx, moved in moves.items():
            at = [position for position, _old, _new in moved]
            moved_tids = [tids[i] for i in at]
            idx.remove_many(moved_tids, [befores[i] for i in at])
            idx.add_many(moved_tids, [rows[i] for i in at])
        store = self._store
        if store is not None:
            for tid, row, clean in zip(tids, rows, cleans):
                store.update(tid, row, clean)
        return list(zip(befores, rows))

    def _key_moves(
        self, row: dict[str, Any], clean: dict[str, Any]
    ) -> list[tuple[HashIndex | SortedIndex, Any, Any]]:
        """``(index, old key, new key)`` for each index in which ``clean``
        changes ``row``'s key -- gives an indexed column a value that
        compares unequal to its old one; naming the column is not enough
        to re-index.  Only a unique index has its keys worked out (they
        are what the uniqueness replay reads)."""
        moves: list[tuple[HashIndex | SortedIndex, Any, Any]] = []
        after = None
        for idx in self._indexes.values():
            for column in idx.columns:
                if column in clean and clean[column] != row[column]:
                    if idx.unique:
                        if after is None:
                            after = {**row, **clean}
                        moves.append((idx, idx.key(row), idx.key(after)))
                    else:
                        moves.append((idx, None, None))
                    break
        return moves

    def delete_row(self, tid: int) -> dict[str, Any]:
        """Physically remove row ``tid``; returns its final image."""
        row = self.get(tid)
        if row is None:
            raise DatabaseError(f"{self.name}: no row with tid {tid}")
        self._rows[tid - self._base] = None
        self._live -= 1
        if tid == self._base:
            self._trim()
        for idx in self._indexes.values():
            idx.remove(tid, row)
        if self._store is not None:
            self._store.delete(tid)
        return row

    def delete_many(self, tids: Iterable[int]) -> list[dict[str, Any]]:
        """Physically remove the rows ``tids`` (distinct, all present);
        returns their final images in the order given.  The inverse of
        :meth:`insert_many`: nothing is touched unless every tid resolves,
        and each index is maintained once."""
        tids = list(tids)
        rows = self.images(tids)
        if None in rows:
            missing = tids[rows.index(None)]
            raise DatabaseError(f"{self.name}: no row with tid {missing}")
        if len(set(tids)) != len(tids):
            raise DatabaseError(f"{self.name}: a tid is listed twice in one delete")
        held, base = self._rows, self._base
        for tid in tids:
            held[tid - base] = None
        self._live -= len(tids)
        if held and held[0] is None:
            self._trim()
        for idx in self._indexes.values():
            idx.remove_many(tids, rows)
        if self._store is not None:
            for tid in tids:
                self._store.delete(tid)
        return rows

    def _trim(self) -> None:
        """Drop the holes at the front of the row list: the span starts
        at the lowest live tid (past the end, when none is)."""
        held = self._rows
        count = next((at for at, row in enumerate(held) if row is not None), len(held))
        del held[:count]
        self._base += count

    def restore_row(self, row: dict[str, Any], created: int | None = None) -> None:
        """Re-insert a deleted row image (rollback, WAL redo, snapshot
        load); takes ownership of ``row``, as :meth:`bulk_restore` does.
        A tid new to the table needs its stamp, ``created``.  Refused --
        with nothing touched -- when the tid is present, has no stamp, or
        collides in a unique index."""
        tid = row[TID]
        if self.get(tid) is not None:
            raise DatabaseError(f"{self.name}: tid {tid} already present")
        if created is None and tid > len(self.created):
            raise DatabaseError(f"{self.name}: no creation stamp for tid {tid}")
        for idx in self._indexes.values():
            idx.check_insert(row)
        if created is not None:
            self._record_created([tid], [created])
        self._place(tid, row)
        for idx in self._indexes.values():
            idx.put(tid, row)
        if self._store is not None:
            # append() flags the store stale when tid arrives out of order
            # (rollback restores); the next columnar scan rebuilds.
            self._store.append(row)

    def bulk_restore(
        self,
        rows: list[dict[str, Any]],
        created: Sequence[int],
        columns: dict[str, list[Any]] | None = None,
    ) -> bool:
        """Restore many row images at once (WAL recovery bulk load).

        ``rows`` must carry strictly increasing tids none of which are
        present, and ``created`` their creation stamps; returns False
        without touching the table when that doesn't hold, so the caller
        can fall back to per-row :meth:`restore_row`.  Takes ownership of
        the row dicts.  When ``columns`` (parallel per-column arrays for
        the same rows) is provided and a column store is active, the
        store is fed the arrays directly instead of re-transposing the
        rows.
        """
        if not rows:
            return True
        tids = [row[TID] for row in rows]
        if tids[0] < 1 or any(map(ge, tids, islice(tids, 1, None))) or any(
            self.images(tids)
        ):
            return False
        batches, violation = self._unique_batches(tids, rows)
        if violation is not None:
            return False  # per-row restore raises at the colliding row
        self._record_created(tids, created)
        self._attach(tids, rows, batches, columns)
        return True

    def _record_created(self, tids: Sequence[int], stamps: Sequence[int]) -> None:
        """Record restored tids' stamps.  A tid no log or snapshot holds
        (a rolled-back statement's) takes the next stamp: one between its
        neighbours', so the list stays sorted."""
        created = self.created
        for tid, stamp in zip(tids, stamps):
            if tid > len(created):
                created.extend([stamp] * (tid - len(created)))
            created[tid - 1] = stamp
        self.named_tids = max(self.named_tids, max(tids, default=0))

    # ------------------------------------------------------------------
    # Reads
    def get(self, tid: int) -> dict[str, Any] | None:
        at = tid - self._base
        if at >= 0:
            try:
                return self._rows[at]
            except IndexError:
                pass
        return None

    def images(self, tids: Collection[int]) -> list[dict[str, Any] | None]:
        """The row of each tid in ``tids``, in order, None where the table
        holds none: a ``range`` inside the span is one slice of the row
        list, any other collection of tids one pass over it."""
        held, base = self._rows, self._base
        end = base + len(held)
        if type(tids) is not range or tids.step != 1:
            if tids and base <= min(tids) and max(tids) < end:
                return [held[tid - base] for tid in tids]
        elif base <= tids.start and tids.stop <= end:
            return held[tids.start - base : tids.stop - base]
        return [held[tid - base] if base <= tid < end else None for tid in tids]

    def rows(self) -> Iterator[dict[str, Any]]:
        """All rows, in tid order, as the table holds them now (a write
        while iterating is not seen).  Internal dicts: treat as read-only."""
        return filter(None, self._rows.copy())

    def scan(self) -> Iterator[dict[str, Any]]:
        """Unordered scan (fastest): no copy, so write nothing meanwhile."""
        return filter(None, self._rows)

    @property
    def span(self) -> range:
        """The tids the row list covers: every live one, and holes."""
        return range(self._base, self._base + len(self._rows))

    def tids(self) -> list[int]:
        return list(compress(self.span, self._rows))

    def bisect(self, column: str, value: Any) -> int:
        """The first tid of :attr:`span` whose live row's ``column`` -- one
        that ascends with tid, as the change log's ``seq_no`` -- exceeds
        ``value``: one bisect of the row list, a hole stepping to its next
        live row (the span's end when no row does)."""
        held, lo, hi = self._rows, 0, len(self._rows)
        while lo < hi:
            mid = at = (lo + hi) // 2
            while at < hi and held[at] is None:
                at += 1
            if at < hi and held[at][column] <= value:
                lo = at + 1
            else:
                hi = mid
        return self._base + lo

    def by_key(self, value: Any) -> dict[str, Any] | None:
        """Primary-key point lookup."""
        if not self.schema.primary_key:
            raise SchemaError(f"table {self.name!r} has no primary key")
        idx = self._indexes[f"pk_{self.name}"]
        assert isinstance(idx, HashIndex)
        for tid in idx.lookup(value):
            return self.get(tid)
        return None

    def created_between(
        self, low: int | None = None, high: int | None = None
    ) -> Iterator[dict[str, Any]]:
        """Rows with creation timestamp in ``[low, high]`` (bounds optional),
        in tid order: a bisect of :attr:`created`.

        This backs time-based isolation: a process instance started at
        ``t0`` sees ``created_between(None, t0)`` minus deleted tids.
        """
        tids = self.find_sorted_index(CREATED_AT).range(low, high)
        return filter(None, self.images(list(tids)))

    def clear(self) -> list[dict[str, Any]]:
        """Remove all rows; returns the removed row images."""
        return self.delete_many(self.tids())
