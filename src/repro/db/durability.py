"""Durability: WAL-backed databases, checkpoints, and crash recovery.

The paper's architectural bet is that the persistent DBMS unifies data,
process state, and visualizations -- so the embedded engine must offer
the durability a real DBMS would.  This module provides it:

* :func:`open_durable` opens (or recovers) a database rooted in a
  directory and attaches a :class:`DurabilityManager` to it: every
  commit -- its statements' rows and the rows their triggers wrote --
  is framed into the write-ahead log (:mod:`repro.db.wal`) as one
  record *before* anything it causes leaves the database, and DDL is
  logged as it happens.
* :meth:`DurabilityManager.checkpoint` folds the log into a fresh
  snapshot (reusing the atomic, fsynced ``save_snapshot`` machinery)
  and starts a new WAL segment, bounding recovery time.
* :func:`recover` rebuilds a database from the newest intact checkpoint
  plus a redo pass over its WAL segment, truncating any torn tail.

Directory layout (generation-numbered so every checkpoint step is an
atomic transition -- recovery always finds a consistent pair)::

    <dir>/checkpoint-000003.snap   newest durable snapshot
    <dir>/wal-000003.log           segment with everything since

Checkpoint N+1 writes ``checkpoint-N+1`` durably, creates an empty
``wal-N+1``, switches appends over, then deletes generation N.  A crash
between any two steps leaves either generation fully usable: recovery
picks the highest generation whose snapshot loads, and a snapshot
without its WAL segment simply has nothing to replay.

The WAL serialization point is *commit order*.  Values stored in a
durable database must be JSON-serializable (the same contract snapshots
impose); the log refuses a commit that is not, loudly.
"""

from __future__ import annotations

import os
import re
import time
from dataclasses import dataclass, field
from pathlib import Path
from threading import RLock
from typing import Any, Optional

from ..errors import DatabaseError
from ..faults import CrashInjector
from ..obs.runtime import OBS
from .database import Database
from .persistence import load_snapshot, save_snapshot
from .schema import CREATED_AT, TID, TableSchema
from .table import ChangeSet
from .wal import (
    FSYNC_ALWAYS,
    KIND_COMMIT,
    KIND_DDL,
    WriteAheadLog,
    committed_transactions,
    fsync_dir,
    read_wal,
    truncate_torn_tail,
)

__all__ = ["DurabilityManager", "RecoveryInfo", "open_durable", "recover"]

_CHECKPOINT_RE = re.compile(r"^checkpoint-(\d{6})\.snap$")


def _checkpoint_path(directory: Path, generation: int) -> Path:
    return directory / f"checkpoint-{generation:06d}.snap"


def _wal_path(directory: Path, generation: int) -> Path:
    return directory / f"wal-{generation:06d}.log"


def _generations(directory: Path) -> list[int]:
    """All checkpoint generations present, newest first."""
    gens = []
    if not directory.is_dir():
        return gens
    for entry in directory.iterdir():
        match = _CHECKPOINT_RE.match(entry.name)
        if match:
            gens.append(int(match.group(1)))
    gens.sort(reverse=True)
    return gens


@dataclass
class RecoveryInfo:
    """What one recovery pass found and did."""

    database: Database = field(repr=False)
    generation: int = 0
    replayed_txns: int = 0
    replayed_ops: int = 0
    truncated_bytes: int = 0
    next_txn: int = 1
    snapshot_rows: int = 0


# ----------------------------------------------------------------------
# Redo application (bypasses triggers, transactions and the clock: the
# images carry their original tids, an insert its creation stamps).
def _restore(table: Any, row: dict[str, Any], created: int | None) -> None:
    if table.get(row[TID]) is not None:
        table.delete_row(row[TID])
    table.restore_row(row, created)


def _without_stamps(cols: list[str], vals: list[Any]) -> tuple[list, list, list]:
    """An "I"/"U" op logged while the image held its stamps (``__created__``
    and an update stamp) as ``(cols, vals, created)`` without them."""
    width = len(cols)
    keep = [i for i, c in enumerate(cols) if c == TID or not c.startswith("__")]
    created = vals[cols.index(CREATED_AT) :: width]
    vals = [row[i] for row in zip(*[iter(vals)] * width) for i in keep]
    return [cols[i] for i in keep], vals, created


def _bulk_insert(
    table: Any, cols: list[str], vals: list[Any], created: list[int]
) -> bool:
    """Land a committed columnar "I" record as a single bulk load.

    The writer's flat row-major array is sliced into per-column lists
    (``vals[i::width]``), which go straight into the table -- and, when a
    column store is active, straight into column chunks without a
    per-row transpose.  Returns False (leaving the table untouched) when
    the record cannot be bulk-loaded -- a tid collision with checkpoint
    state or a non-monotonic tid sequence -- so the caller falls back to
    per-row restore.
    """
    bulk = getattr(table, "bulk_restore", None)
    if bulk is None or not vals:
        return bulk is not None and not vals
    width = len(cols)
    columns = {name: vals[i::width] for i, name in enumerate(cols)}
    rows = [dict(zip(cols, values)) for values in zip(*[iter(vals)] * width)]
    return bulk(rows, created, columns=columns)


def _apply_op(database: Database, op: dict[str, Any]) -> int:
    """Redo one WAL operation; returns the number of rows it touched.

    The writer emits *columnar* group ops: "I"/"U" with ``cols`` plus a
    flat ``vals`` array read back in ``cols``-sized strides -- an "I"
    also lists its rows' creation stamps under ``c`` -- and "D" with a
    tid list.  An op logged while the stamps were image columns is read
    through :func:`_without_stamps`.
    """
    if op.get("k") == KIND_DDL:
        if op["op"] == "create":
            schema = TableSchema.from_dict(op["s"])
            if not database.has_table(schema.name):
                database.create_table(schema.name, schema=schema)
        else:
            database.drop_table(op["t"], if_exists=True)
        return 1
    table = database.table(op["t"])
    kind = op["op"]
    if kind in ("I", "U"):
        cols, vals, created = op["cols"], op["vals"], op.get("c")
        if CREATED_AT in cols:
            cols, vals, created = _without_stamps(cols, vals)
        if kind == "I" and _bulk_insert(table, cols, vals, created):
            return len(vals) // len(cols)
        # zip(*[iter]*width) regroups the flat array into rows at C speed
        # -- the inverse of the writer's flattening.
        rows = list(zip(*[iter(vals)] * len(cols)))
        for values, stamp in zip(rows, created or [None] * len(rows)):
            _restore(table, dict(zip(cols, values)), stamp)
        return len(rows)
    if kind != "D":  # pragma: no cover - format invariant
        raise DatabaseError(f"unknown WAL op kind {kind!r}")
    for tid in op["tids"]:
        if tid in table:
            table.delete_row(tid)
    return len(op["tids"])


def _recover(directory: Path) -> RecoveryInfo:
    """Load the newest intact checkpoint and redo its WAL segment."""
    generations = _generations(directory)
    if not generations:
        raise DatabaseError(f"{directory}: no checkpoint to recover from")
    last_error: Optional[Exception] = None
    for generation in generations:
        try:
            database = load_snapshot(_checkpoint_path(directory, generation))
        except (DatabaseError, OSError) as exc:
            last_error = exc
            continue
        info = RecoveryInfo(database=database, generation=generation)
        info.snapshot_rows = sum(
            len(database.table(t)) for t in database.table_names()
        )
        wal_file = _wal_path(directory, generation)
        highest_clock = database.now()
        highest_txn = 0
        if wal_file.exists():
            records, good_offset = read_wal(wal_file)
            info.truncated_bytes = truncate_torn_tail(wal_file, good_offset)
            for record in records:
                txn_id = record.payload.get("x")
                if isinstance(txn_id, int) and txn_id > highest_txn:
                    highest_txn = txn_id
            for clock, ops in committed_transactions(records):
                for op in ops:
                    info.replayed_ops += _apply_op(database, op)
                info.replayed_txns += 1
                if clock > highest_clock:
                    highest_clock = clock
        database.restore_clock(highest_clock)
        info.next_txn = highest_txn + 1
        return info
    raise DatabaseError(
        f"{directory}: every checkpoint is unreadable (last error: {last_error})"
    )


def recover(directory: str | Path) -> Database:
    """Rebuild a :class:`Database` from a durable directory.

    Loads the newest intact checkpoint, replays the committed WAL tail
    over it (truncating a torn tail at the first bad-CRC or partial
    record), and restores the logical clock.  The returned database is
    *not* yet attached to a :class:`DurabilityManager` -- use
    :func:`open_durable` to recover and continue writing durably.
    """
    directory = Path(directory)
    with OBS.span("db.recover", {"dir": str(directory)}) as span:
        info = _recover(directory)
        span.set_tag("generation", info.generation)
        span.set_tag("replayed_txns", info.replayed_txns)
        span.set_tag("replayed_ops", info.replayed_ops)
        span.set_tag("truncated_bytes", info.truncated_bytes)
    OBS.metrics.counter("wal.recoveries").inc()
    return info.database


def _columnar(
    op_list: list[dict[str, Any]], kind: str, table: str, rows: list[dict[str, Any]]
) -> None:
    """Log uniform row dicts as one cols list + a flat value array.

    Every stored row of a table is built by ``validate_row``, copied by
    ``validate_rows`` (an exact multi-row INSERT) or built by a log's one
    writer (``Database.appender``).  Each way it holds the
    schema's columns in schema order, then the tid, so all rows share
    one key order and ``values()`` projects them faithfully.  The
    values land in a single flat list (row-major, ``len(cols)``-sized
    strides): one flat array JSON-encodes measurably faster than
    thousands of per-row lists, and this sits on the hot commit path of
    every durable write.  Rows that continue the commit's previous op --
    same kind, same table: a loop of one-row statements in a transaction,
    the notification log's rows -- extend its array instead of spelling
    the columns again.
    """
    values = [value for row in rows for value in row.values()]
    last = op_list[-1] if op_list else None
    if last is not None and last["op"] == kind and last["t"] == table:
        last["vals"].extend(values)
    else:
        op_list.append(
            {"op": kind, "t": table, "cols": list(rows[0].keys()), "vals": values}
        )


class DurabilityManager:
    """Frames every commit of a database into its write-ahead log.

    Attach via :func:`open_durable` (the normal path) or directly to an
    existing database whose directory has been initialized.  Locking
    order is ``database.lock -> manager lock``: the commit hook runs
    with the database lock held, and :meth:`checkpoint` acquires the
    database lock before its own.
    """

    def __init__(
        self,
        database: Database,
        directory: str | Path,
        fsync: str = FSYNC_ALWAYS,
        group_commits: int = 8,
        group_interval_ms: float = 5.0,
        checkpoint_every: int = 0,
        crash: Optional[CrashInjector] = None,
        generation: int = 0,
        next_txn: int = 1,
    ) -> None:
        self.database = database
        self.directory = Path(directory)
        self.fsync_policy = fsync
        self.group_commits = group_commits
        self.group_interval_ms = group_interval_ms
        #: Auto-checkpoint after this many commits (0 disables).
        self.checkpoint_every = checkpoint_every
        self.crash = crash
        self._generation = generation
        self._next_txn = next_txn
        self._lock = RLock()
        self._wal = self._open_segment(generation)
        self._closed = False
        # Counters (tests, benchmarks and the dashboard read these).
        self.commits = 0
        self.checkpoints = 0
        self._commits_since_checkpoint = 0
        database.add_commit_hook(self._on_commit)
        database.add_ddl_hook(self._on_ddl)

    # ------------------------------------------------------------------
    @property
    def generation(self) -> int:
        return self._generation

    @property
    def wal(self) -> WriteAheadLog:
        return self._wal

    def _open_segment(self, generation: int) -> WriteAheadLog:
        return WriteAheadLog(
            _wal_path(self.directory, generation),
            fsync=self.fsync_policy,
            group_commits=self.group_commits,
            group_interval_ms=self.group_interval_ms,
            crash=self.crash,
        )

    # ------------------------------------------------------------------
    # Hooks
    def _on_commit(self, changes: list[ChangeSet]) -> None:
        checkpoint_due = False
        started = time.perf_counter() if OBS.enabled else 0.0
        with self._lock:
            txn = self._next_txn
            self._next_txn += 1
            wal = self._wal
            # One record for the whole commit, with each change's rows in
            # columnar form (one ``cols`` list, value rows as plain
            # lists): a single json.dumps and a single framed line per
            # commit -- a half-written commit is a torn record, which the
            # CRC detects -- and no repeated dict keys on the wire.
            op_list: list[dict[str, Any]] = []
            ops = 0
            for change in changes:
                table = change.table
                inserted = change.inserted
                if inserted:
                    _columnar(op_list, "I", table, inserted)
                    # One statement's tids are consecutive: their creation
                    # stamps are one slice, listed beside the op's values.
                    n, first = len(inserted), inserted[0][TID] - 1
                    stamps = self.database.table(table).created[first : first + n]
                    op_list[-1].setdefault("c", []).extend(stamps)
                    ops += len(inserted)
                if change.updated:
                    afters = [after for _before, after in change.updated]
                    _columnar(op_list, "U", table, afters)
                    ops += len(afters)
                if change.deleted:
                    op_list.append(
                        {"op": "D", "t": table, "tids": [r[TID] for r in change.deleted]}
                    )
                    ops += len(change.deleted)
            wal.append(
                {"k": KIND_COMMIT, "x": txn, "ops": op_list, "clk": self.database.now()}
            )
            wal.commit_point()
            self.commits += 1
            self._commits_since_checkpoint += 1
            if (
                self.checkpoint_every
                and self._commits_since_checkpoint >= self.checkpoint_every
            ):
                checkpoint_due = True
        if OBS.enabled:
            OBS.metrics.counter("wal.commits").inc()
            OBS.metrics.histogram("wal.commit_ms").observe(
                (time.perf_counter() - started) * 1000.0
            )
            OBS.metrics.counter("wal.ops").inc(ops)
        if checkpoint_due:
            # Outside the manager lock: checkpoint acquires database
            # lock first, and taking it while holding the manager lock
            # would invert the global db -> manager order.
            self.checkpoint()

    def _on_ddl(self, op: str, schema: TableSchema | None, name: str) -> None:
        checkpoint_due = False
        with self._lock:
            record: dict[str, Any] = {
                "k": KIND_DDL,
                "op": op,
                "t": name,
                "clk": self.database.now(),
            }
            if schema is not None:
                record["s"] = schema.to_dict()
            self._wal.append(record)
            # DDL is auto-committed: it is not covered by the undo log,
            # so it must be durable the moment it returns.
            self._wal.commit_point()
            self.commits += 1
            self._commits_since_checkpoint += 1
            if (
                self.checkpoint_every
                and self._commits_since_checkpoint >= self.checkpoint_every
            ):
                checkpoint_due = True
        if checkpoint_due:
            self.checkpoint()

    # ------------------------------------------------------------------
    def checkpoint(self) -> Path:
        """Fold the WAL into a fresh snapshot and start a new segment.

        Returns the new checkpoint's path.  Safe against crashes at any
        point: each step leaves the directory recoverable (see module
        docstring for the generation protocol).
        """
        traced = OBS.enabled
        with OBS.span("db.checkpoint") as span, self.database.lock, self._lock:
            if self._closed:
                raise DatabaseError("durability manager is closed")
            if self.crash is not None:
                self.crash.reach("checkpoint.begin")
            old_generation = self._generation
            generation = old_generation + 1
            checkpoint_file = _checkpoint_path(self.directory, generation)
            save_snapshot(self.database, checkpoint_file)
            if self.crash is not None:
                self.crash.reach("checkpoint.switch")
            # Create the new segment durably before switching appends.
            new_wal_file = _wal_path(self.directory, generation)
            open(new_wal_file, "ab").close()
            fsync_dir(self.directory)
            self._wal.close()
            self._wal = self._open_segment(generation)
            self._generation = generation
            self.checkpoints += 1
            self._commits_since_checkpoint = 0
            if self.crash is not None:
                self.crash.reach("checkpoint.cleanup")
            for stale in (
                _checkpoint_path(self.directory, old_generation),
                _wal_path(self.directory, old_generation),
            ):
                try:
                    os.unlink(stale)
                except OSError:
                    pass
            span.set_tag("generation", generation)
        if traced:
            OBS.metrics.counter("wal.checkpoints").inc()
        return checkpoint_file

    # ------------------------------------------------------------------
    def stats(self) -> dict[str, int]:
        """Counters for dashboards and tests."""
        with self._lock:
            return {
                "commits": self.commits,
                "checkpoints": self.checkpoints,
                "generation": self._generation,
                "wal_appends": self._wal.appends,
                "wal_syncs": self._wal.syncs,
                "wal_bytes": self._wal.bytes_written,
                "wal_offset": self._wal.offset,
            }

    def close(self) -> None:
        """Detach from the database and durably close the segment."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self.database.remove_commit_hook(self._on_commit)
            self.database.remove_ddl_hook(self._on_ddl)
            self._wal.close()

    def __enter__(self) -> "DurabilityManager":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


def open_durable(
    directory: str | Path,
    name: str = "ediflow",
    fsync: str = FSYNC_ALWAYS,
    group_commits: int = 8,
    group_interval_ms: float = 5.0,
    checkpoint_every: int = 0,
    crash: Optional[CrashInjector] = None,
) -> tuple[Database, DurabilityManager]:
    """Open (or recover) a durable database rooted at ``directory``.

    First open initializes generation 0 (an empty checkpoint plus an
    empty WAL segment); subsequent opens run full crash recovery and
    continue appending to the recovered segment.  Returns the database
    and its attached manager; close the manager (or use it as a context
    manager) to release the log cleanly.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    if _generations(directory):
        info = _recover(directory)
        database = info.database
        generation, next_txn = info.generation, info.next_txn
    else:
        database = Database(name)
        save_snapshot(database, _checkpoint_path(directory, 0))
        open(_wal_path(directory, 0), "ab").close()
        fsync_dir(directory)
        generation, next_txn = 0, 1
    manager = DurabilityManager(
        database,
        directory,
        fsync=fsync,
        group_commits=group_commits,
        group_interval_ms=group_interval_ms,
        checkpoint_every=checkpoint_every,
        crash=crash,
        generation=generation,
        next_txn=next_txn,
    )
    return database, manager
