"""Column-major storage behind :class:`repro.db.table.Table`.

A :class:`ColumnStore` is a chunked, column-oriented projection of one
table's rows: typed parallel arrays per column (plain Python lists, one
per column per chunk), the tid column, and a per-chunk validity bitmap for
deletions.  It exists so the vectorized executor (:mod:`repro.db.vector`)
can stream column chunks instead of per-row dicts -- list comprehensions
and builtins over parallel arrays run at C speed, where per-row dict
pipelines pay Python-interpreter cost per tuple.

Stores are *lazy and incremental*: a table has no store until something
asks for one (``Table.column_store()`` builds it in one pass over the row
storage), after which every mutation maintains it in place:

* insert       -> append to the tail chunk (amortized O(columns));
* update       -> in-place write of the changed columns through the tid
  position map (O(changed columns));
* delete       -> set the row's tombstone bit (O(1));
* restore_row  -> append, or mark the store stale when the restored tid
  is out of order (transaction rollback) -- the next scan rebuilds.

Scans yield chunks in tid order with tombstoned rows compressed away, so
a column scan is byte-identical to ``Table.rows()``.  When the dead
fraction grows past :data:`COMPACT_FRACTION` the store compacts itself by
rebuilding from the row storage.

Each chunk carries a *stamp*: an int drawn from one process-wide
counter when the chunk is created and again whenever an update or a
delete writes into it.  Appends only ever reach the tail chunk and keep
its stamp, so a stamp and a row count name a chunk's content for good,
and the same stamp with more rows names the same first rows -- the
vectorized aggregate keys the per-group partials it keeps on them and
folds only a tail's appended rows (see :class:`repro.db.vector.VAggregate`).
A rebuild (staleness, compaction) draws fresh stamps for every chunk.

Each column also carries an advisory *type tag* -- a bitmask of the value
kinds ever observed (int/float/str/bool/NULL/other).  Tags only widen, so
a tag proving "numeric, never NULL" lets the vectorized aggregate skip
NULL filtering and poisoning guards; a stale-wide tag merely costs the
guarded path, never correctness.
"""

from __future__ import annotations

import itertools
from typing import Any, Iterable, Iterator

from .schema import TID

#: Rows per chunk.  Big enough to amortize per-chunk Python overhead,
#: small enough that a selective filter's compressed output stays cache
#: friendly.
CHUNK_ROWS = 4096

#: Compact (rebuild) once tombstones exceed this fraction of stored rows.
COMPACT_FRACTION = 0.25

#: Minimum absolute tombstone count before compaction is considered, so
#: small tables never churn.
COMPACT_MIN_DEAD = 1024

#: Chunk stamps, shared by every store: a stamp is never reused, so one
#: never names two contents (another table's, or a dropped one's).
_STAMPS = itertools.count(1)

# -- column type tags (bitmask; widen-only) ----------------------------
K_NULL = 1
K_INT = 2
K_FLOAT = 4
K_STR = 8
K_BOOL = 16
K_OTHER = 32

#: Tags a vectorized SUM/AVG can trust without NULL filtering or
#: TypeError poisoning guards.
K_NUMERIC = K_INT | K_FLOAT | K_BOOL


def value_tag(value: Any) -> int:
    """The type-tag bit for one cell value (bool checked before int)."""
    if value is None:
        return K_NULL
    if isinstance(value, bool):
        return K_BOOL
    if isinstance(value, int):
        return K_INT
    if isinstance(value, float):
        return K_FLOAT
    if isinstance(value, str):
        return K_STR
    return K_OTHER


_EXACT_TAGS = {type(None): K_NULL, bool: K_BOOL, int: K_INT, float: K_FLOAT, str: K_STR}


def column_tag(values: list[Any]) -> int:
    """The type tags of a whole column slice: :func:`value_tag` folded
    over ``values``, computed from its distinct types in one C-level pass
    (the bulk paths tag thousands of values per statement)."""
    tag = 0
    for kind in set(map(type, values)):
        known = _EXACT_TAGS.get(kind)
        if known is None:
            # A subclass or an opaque payload: let one instance decide.
            known = value_tag(next(v for v in values if type(v) is kind))
        tag |= known
    return tag


class ColumnStore:
    """Chunked column-major mirror of one table's row storage.

    The store holds every key of a stored row image -- the schema's
    columns, then the tid (``__tid__``) -- in the order row dicts carry
    them, so transposing a chunk back to rows reproduces the row
    engine's dict key order exactly.  Creation stamps are not in the
    image, so they are not here either.
    """

    __slots__ = (
        "_table",
        "names",
        "_chunks",
        "_dead",
        "_dead_counts",
        "_stamps",
        "_pos",
        "_last_tid",
        "_stale",
        "types",
        "rebuilds",
    )

    def __init__(self, table: Any) -> None:
        self._table = table
        self.names: tuple[str, ...] = tuple(table.schema.column_names) + (TID,)
        self._chunks: list[dict[str, list[Any]]] = []
        self._dead: list[int] = []
        self._dead_counts: list[int] = []
        self._stamps: list[int] = []
        self._pos: dict[int, tuple[int, int]] = {}
        self._last_tid = 0
        self._stale = False
        self.types: dict[str, int] = {name: 0 for name in self.names}
        self.rebuilds = 0
        self._rebuild()

    # ------------------------------------------------------------------
    # Introspection (tests, EXPLAIN verbose output, dashboards)
    def __len__(self) -> int:
        return len(self._pos)

    @property
    def chunk_count(self) -> int:
        return len(self._chunks)

    @property
    def dead_rows(self) -> int:
        return sum(self._dead_counts)

    @property
    def stale(self) -> bool:
        return self._stale

    def column_kind(self, name: str) -> int:
        """Advisory type-tag bitmask for ``name`` (0 = never observed)."""
        return self.types.get(name, K_OTHER | K_NULL)

    # ------------------------------------------------------------------
    # Maintenance (called by Table mutations; store already validated)
    def _new_chunk(self) -> dict[str, list[Any]]:
        chunk: dict[str, list[Any]] = {name: [] for name in self.names}
        self._chunks.append(chunk)
        self._dead.append(0)
        self._dead_counts.append(0)
        self._stamps.append(next(_STAMPS))
        return chunk

    def append(self, row: dict[str, Any]) -> None:
        """Mirror one freshly inserted row (tid strictly increasing)."""
        tid = row[TID]
        if tid <= self._last_tid:
            # Out-of-order arrival (rollback restore): scans must stay in
            # tid order, so fall back to a rebuild at next read.
            self._stale = True
            return
        self._last_tid = tid
        chunks = self._chunks
        chunk = chunks[-1] if chunks else self._new_chunk()
        if len(chunk[TID]) >= CHUNK_ROWS:
            chunk = self._new_chunk()
        types = self.types
        for name in self.names:
            value = row[name]
            chunk[name].append(value)
            types[name] |= value_tag(value)
        self._pos[tid] = (len(chunks) - 1, len(chunk[TID]) - 1)

    def update(self, tid: int, row: dict[str, Any], changed: Iterable[str]) -> None:
        """Mirror an in-place row update (same tid): the ``changed``
        columns are all an UPDATE writes."""
        if self._stale:
            return
        pos = self._pos.get(tid)
        if pos is None:
            self._stale = True
            return
        ci, offset = pos
        chunk = self._chunks[ci]
        types = self.types
        for name in changed:
            value = row[name]
            chunk[name][offset] = value
            types[name] |= value_tag(value)
        self._stamps[ci] = next(_STAMPS)

    def delete(self, tid: int) -> None:
        """Tombstone one row (the validity bitmap clears its bit)."""
        if self._stale:
            return
        pos = self._pos.pop(tid, None)
        if pos is None:
            self._stale = True
            return
        ci, offset = pos
        self._dead[ci] |= 1 << offset
        self._dead_counts[ci] += 1
        self._stamps[ci] = next(_STAMPS)

    def bulk_append(self, rows: list[dict[str, Any]]) -> None:
        """Append many rows (recovery bulk load) with column-wise loops."""
        if not rows:
            return
        if rows[0][TID] <= self._last_tid:
            self._stale = True
            return
        self.bulk_append_columns(
            {name: [row[name] for row in rows] for name in self.names},
            len(rows),
        )

    def bulk_append_columns(self, columns: dict[str, Any], count: int) -> None:
        """Append ``count`` rows given as parallel column arrays.

        This is the WAL bulk-load path: recovery slices a committed
        columnar op record's flat value array into per-column lists and
        lands them here, filling chunks with ``list.extend`` slices
        instead of per-row appends.  Unknown columns are ignored; missing
        columns are padded with NULLs (schema evolution tolerance).
        """
        if count <= 0:
            return
        tid_col = list(columns[TID])
        if tid_col and tid_col[0] <= self._last_tid:
            self._stale = True
            return
        types = self.types
        start = 0
        while start < count:
            chunks = self._chunks
            chunk = chunks[-1] if chunks else self._new_chunk()
            room = CHUNK_ROWS - len(chunk[TID])
            if room <= 0:
                chunk = self._new_chunk()
                room = CHUNK_ROWS
            stop = min(count, start + room)
            ci = len(self._chunks) - 1
            base = len(chunk[TID])
            for name in self.names:
                values = columns.get(name)
                part = (
                    [None] * (stop - start)
                    if values is None
                    else list(values[start:stop])
                )
                chunk[name].extend(part)
                types[name] |= column_tag(part)
            pos = self._pos
            for i, tid in enumerate(tid_col[start:stop]):
                pos[tid] = (ci, base + i)
            start = stop
        self._last_tid = tid_col[-1]

    # ------------------------------------------------------------------
    # Rebuild / compaction
    def _rebuild(self) -> None:
        """Re-derive every chunk from the row storage (tid order)."""
        self._chunks = []
        self._dead = []
        self._dead_counts = []
        self._stamps = []
        self._pos = {}
        self._last_tid = 0
        self.types = {name: 0 for name in self.names}
        self._stale = False
        self.rebuilds += 1
        names = self.names
        rows = list(self._table.rows())
        types = self.types
        for start in range(0, len(rows), CHUNK_ROWS):
            part = rows[start : start + CHUNK_ROWS]
            chunk = self._new_chunk()
            ci = len(self._chunks) - 1
            for name in names:
                values = [row[name] for row in part]
                chunk[name] = values
                types[name] |= column_tag(values)
            pos = self._pos
            for i, row in enumerate(part):
                pos[row[TID]] = (ci, i)
        if rows:
            self._last_tid = rows[-1][TID]

    def _should_compact(self) -> bool:
        dead = sum(self._dead_counts)
        if dead < COMPACT_MIN_DEAD:
            return False
        return dead >= COMPACT_FRACTION * max(1, dead + len(self._pos))

    # ------------------------------------------------------------------
    # Scans
    def batches(self) -> Iterator[tuple[dict[str, list[Any]], int]]:
        """Yield ``(columns, n)`` per chunk: :meth:`scan` without stamps."""
        for columns, n, _ in self.scan():
            yield columns, n

    def scan(self) -> Iterator[tuple[dict[str, list[Any]], int, int]]:
        """Yield ``(columns, n, stamp)`` per chunk, tombstones compressed
        away.  ``stamp`` is the chunk's stamp: only an update or a delete,
        which re-stamp it, change rows it holds; appends to the tail
        chunk add rows after them.

        Chunks with no tombstones are yielded zero-copy (the live column
        lists themselves); consumers must treat them as read-only, the
        same contract ``Table.rows()`` imposes on its internal dicts.
        """
        if self._stale or self._should_compact():
            self._rebuild()
        for ci, chunk in enumerate(self._chunks):
            n = len(chunk[TID])
            if n == 0:
                continue
            stamp = self._stamps[ci]
            dead = self._dead[ci]
            if dead == 0:
                yield chunk, n, stamp
                continue
            live = [i for i in range(n) if not dead >> i & 1]
            if not live:
                continue
            yield (
                {name: [col[i] for i in live] for name, col in chunk.items()},
                len(live),
                stamp,
            )
