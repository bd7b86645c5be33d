"""Write-ahead log: append-only JSON-lines with per-record CRC framing.

The paper delegates durability to "a standard DBMS"; our embedded engine
earns it here.  Every commit is ONE record, ``{"k": "c", "x": txn, "ops":
[...], "clk": clock}`` -- its whole operation list (the statements' rows,
then the rows their triggers wrote) and the logical clock after it, so
the cost is one JSON serialization and one framed line per *commit*, not
per row or per statement -- and DDL is a record of its own.  One record
per line, each line carrying a CRC-32 of its payload::

    <crc:08x> <compact-json>\\n

so recovery can detect *exactly* where a torn tail begins: the first
line whose CRC mismatches, whose JSON does not parse, or which lacks its
trailing newline marks the cut point, and everything after it is
discarded (:func:`read_wal` returns the byte offset to truncate at).
Records after the cut belong to the crash; records before it are intact
by construction.  A commit is therefore on disk whole or not at all: a
crash inside its append leaves a torn record, which recovery drops.

Fsync policy decides when a commit is *durable*:

* ``"always"``  -- fsync after every commit record (no window; encode,
  write and fsync all happen on the committing thread).
* ``"interval"`` -- group commit with a dedicated log-writer thread:
  the committing thread only enqueues the records; the writer encodes,
  writes, flushes, and fsyncs when ``group_commits`` commits or
  ``group_interval_ms`` accumulate, whichever first.  Backpressure
  blocks commits once ``group_commits`` are in flight, so a crash --
  power loss *or* process kill -- loses at most that window.  Under
  crash injection the writer thread is not started and every step runs
  synchronously on the committing thread, keeping injection
  deterministic and its exceptions catchable.
* ``"never"``   -- encode + write + flush on the committing thread,
  fsync left to the OS page cache (a process kill loses nothing, a
  power loss may lose everything since the last checkpoint).

Crash points (see :mod:`repro.faults`) are declared at every boundary a
real process can die at: before a record is written (``wal.append``),
mid-record with only a prefix of its bytes on disk (``wal.append`` with
``torn_bytes``), after the write but before the policy fsync
(``wal.post_append``), and at the fsync itself (``wal.fsync``).  Plans
with ``power_loss=True`` additionally truncate the file back to the last
fsynced offset when they fire -- the page cache never hit the platter.
"""

from __future__ import annotations

import json
import os
import threading
import time
import zlib
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator, Optional

from ..errors import DatabaseError
from ..faults import CrashInjector
from ..obs.runtime import OBS

try:  # pragma: no cover - availability depends on the environment
    import orjson as _orjson

    # Keep the strict "refuses loudly" contract: orjson would otherwise
    # serialize datetimes/dataclasses that snapshots (stdlib json) reject.
    _ORJSON_OPTS = _orjson.OPT_PASSTHROUGH_DATETIME | _orjson.OPT_PASSTHROUGH_DATACLASS
except ImportError:  # pragma: no cover - exercised on bare containers
    _orjson = None  # type: ignore[assignment]
    _ORJSON_OPTS = 0

__all__ = [
    "FSYNC_ALWAYS",
    "FSYNC_INTERVAL",
    "FSYNC_NEVER",
    "WalRecord",
    "WriteAheadLog",
    "fsync_dir",
    "read_wal",
]

FSYNC_ALWAYS = "always"
FSYNC_INTERVAL = "interval"
FSYNC_NEVER = "never"
_POLICIES = (FSYNC_ALWAYS, FSYNC_INTERVAL, FSYNC_NEVER)

# Record kinds (single letters: the WAL is the hot write path).
KIND_COMMIT = "c"
KIND_DDL = "d"

#: Queue sentinel marking a commit boundary for the log-writer thread.
_COMMIT = object()


def _as_database_error(exc: BaseException) -> DatabaseError:
    if isinstance(exc, DatabaseError):
        return exc
    return DatabaseError(f"WAL writer thread failed: {exc!r}")


def fsync_dir(path: str | Path) -> None:
    """fsync a directory so a just-created/renamed entry survives power loss."""
    fd = os.open(str(path), os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


@dataclass(frozen=True)
class WalRecord:
    """One decoded WAL record plus where it ends in the file."""

    payload: dict[str, Any]
    end_offset: int

    @property
    def kind(self) -> str:
        return self.payload["k"]


def encode_record(payload: dict[str, Any]) -> bytes:
    """Frame one record: CRC-32 of the compact JSON, space, JSON, newline.

    Serialization is the WAL's dominant CPU cost, so the C encoder
    (orjson, when present) does the bulk work; both produce the same
    compact UTF-8 JSON and either side can read the other's records.
    """
    data: Optional[bytes] = None
    if _orjson is not None:
        try:
            data = _orjson.dumps(payload, option=_ORJSON_OPTS)
        except TypeError:
            data = None  # legal-but-exotic values (e.g. big ints): stdlib rules
    if data is None:
        try:
            body = json.dumps(payload, separators=(",", ":"), ensure_ascii=False)
        except TypeError as exc:
            raise DatabaseError(
                f"WAL record holds a value that is not JSON-serializable: {exc}"
            ) from None
        data = body.encode("utf-8")
    return b"%08x %s\n" % (zlib.crc32(data), data)


def _decode_line(line: bytes) -> Optional[dict[str, Any]]:
    """Decode one framed line; None when the frame is damaged."""
    if len(line) < 10 or line[8:9] != b" " or not line.endswith(b"\n"):
        return None
    try:
        crc = int(line[:8], 16)
    except ValueError:
        return None
    data = line[9:-1]
    if zlib.crc32(data) != crc:
        return None
    try:
        payload = _orjson.loads(data) if _orjson is not None else json.loads(data)
    except (ValueError, UnicodeDecodeError):
        return None
    if not isinstance(payload, dict) or "k" not in payload:
        return None
    return payload


def read_wal(path: str | Path) -> tuple[list[WalRecord], int]:
    """Read every intact record of a WAL file.

    Returns ``(records, good_offset)`` where ``good_offset`` is the byte
    position of the first damaged record (file size when the log is
    clean).  Reading stops at the first bad-CRC, unparsable, or partial
    line -- everything beyond it is a torn tail.
    """
    records: list[WalRecord] = []
    offset = 0
    with open(path, "rb") as infile:
        for line in infile:
            payload = _decode_line(line)
            if payload is None:
                break
            offset += len(line)
            records.append(WalRecord(payload, offset))
    return records, offset


def truncate_torn_tail(path: str | Path, good_offset: int) -> int:
    """Cut a WAL file back to its last intact record.

    Returns the number of bytes removed.  fsyncs the file so the
    truncation itself is durable (a recovery that truncates and then
    crashes must not resurrect the tail).
    """
    size = os.path.getsize(path)
    if size <= good_offset:
        return 0
    fd = os.open(str(path), os.O_RDWR)
    try:
        os.ftruncate(fd, good_offset)
        os.fsync(fd)
    finally:
        os.close(fd)
    return size - good_offset


class WriteAheadLog:
    """Appender for one WAL segment file.

    Not thread-safe by itself -- the owning
    :class:`~repro.db.durability.DurabilityManager` serializes access.
    """

    def __init__(
        self,
        path: str | Path,
        fsync: str = FSYNC_ALWAYS,
        group_commits: int = 8,
        group_interval_ms: float = 5.0,
        crash: Optional[CrashInjector] = None,
    ) -> None:
        if fsync not in _POLICIES:
            raise DatabaseError(
                f"unknown fsync policy {fsync!r} (expected one of {_POLICIES})"
            )
        self.path = Path(path)
        self.fsync_policy = fsync
        self.group_commits = max(1, group_commits)
        self.group_interval_ms = group_interval_ms
        self.crash = crash
        self._file = open(self.path, "ab")
        self._offset = self._file.tell()
        self._synced_offset = self._offset
        self._flushed_offset = self._offset
        self._unsynced_commits = 0
        self._last_sync = time.monotonic()
        self.closed = False
        # Counters (tests, benchmarks and the dashboard read these).
        self.appends = 0
        self.commits = 0
        self.syncs = 0
        self.bytes_written = 0
        # Group commit runs on a dedicated log-writer thread: committing
        # threads enqueue payloads and return; the writer owns encode,
        # write(2), flush and both fsync triggers.  Crash injection keeps
        # everything synchronous instead (the injector must fire on the
        # committing thread to be deterministic and catchable).
        self._sync_lock = threading.Lock()
        self._cv = threading.Condition()
        self._pending: deque[Any] = deque()
        self._pending_commits = 0
        self._stop = False
        self._writer_error: Optional[BaseException] = None
        self._writer: Optional[threading.Thread] = None
        if fsync == FSYNC_INTERVAL and crash is None:
            self._writer = threading.Thread(
                target=self._writer_loop, name="wal-writer", daemon=True
            )
            self._writer.start()

    # ------------------------------------------------------------------
    @property
    def offset(self) -> int:
        """Bytes written so far (buffered + durable)."""
        return self._offset

    @property
    def synced_offset(self) -> int:
        """Bytes known durable (covered by an fsync)."""
        return self._synced_offset

    # ------------------------------------------------------------------
    def _die(self, plan: Any) -> None:
        """Apply a crash plan's mechanics and raise the simulated death."""
        assert self.crash is not None
        self._file.flush()
        if plan.power_loss:
            # The page cache never reached the platter: everything past
            # the last fsync is gone.
            os.ftruncate(self._file.fileno(), self._synced_offset)
        self._file.close()
        self.closed = True
        raise self.crash.crash(plan)

    def _write(self, data: bytes) -> None:
        self._file.write(data)
        self._offset += len(data)
        self.bytes_written += len(data)
        self.appends += 1

    def append(self, payload: dict[str, Any]) -> None:
        """Append one record (no durability decision -- see :meth:`commit_point`)."""
        if self._writer is not None:
            # Log-writer mode: hand the payload over.  Payload leaves are
            # freshly-projected immutable scalars (see ``_columnar``), so
            # deferring the encode cannot observe later mutations.  No
            # wake-up here: every append is followed by a commit_point
            # (or DDL commit) that notifies once for the whole batch.
            with self._cv:
                self._pending.append(payload)
            return
        data = encode_record(payload)
        if self.crash is not None:
            plan = self.crash.check("wal.append")
            if plan is not None:
                if plan.torn_bytes is not None:
                    torn = data[: max(1, min(plan.torn_bytes, len(data) - 1))]
                    self._file.write(torn)
                self._die(plan)
        self._write(data)
        if self.crash is not None:
            plan = self.crash.check("wal.post_append")
            if plan is not None:
                self._die(plan)

    def commit_point(self) -> None:
        """A transaction just committed: make it durable per policy."""
        self.commits += 1
        if self._writer is not None:
            # Enqueue the commit boundary; block only when group_commits
            # are already in flight, so the loss window of a crash of ANY
            # kind stays bounded by the configured group.
            with self._cv:
                self._pending.append(_COMMIT)
                self._pending_commits += 1
                self._cv.notify_all()
                while (
                    self._pending_commits >= self.group_commits
                    and self._writer_error is None
                    and not self._stop
                ):
                    self._cv.wait(0.05)
                if self._writer_error is not None:
                    raise _as_database_error(self._writer_error)
            return
        # Hand the commit's records over to the OS: a *process* crash (as
        # opposed to power loss) must never lose committed data the engine
        # already handed over -- the same contract write(2) gives a DBMS.
        self._file.flush()
        self._flushed_offset = self._offset
        if self.fsync_policy == FSYNC_NEVER:
            return
        self._unsynced_commits += 1
        if self.fsync_policy == FSYNC_ALWAYS:
            self.sync()
            return
        # Group commit under crash injection: both triggers run
        # synchronously on the committing thread.
        elapsed_ms = (time.monotonic() - self._last_sync) * 1000.0
        if (
            self._unsynced_commits >= self.group_commits
            or elapsed_ms >= self.group_interval_ms
        ):
            self.sync()

    def drain(self) -> None:
        """Block until the log-writer thread has written everything queued."""
        if self._writer is None:
            return
        with self._cv:
            while self._pending and self._writer_error is None:
                self._cv.wait(0.05)
            if self._writer_error is not None:
                raise _as_database_error(self._writer_error)

    def sync(self) -> None:
        """fsync the segment (crash point ``wal.fsync`` sits here)."""
        if self.crash is not None:
            plan = self.crash.check("wal.fsync")
            if plan is not None:
                # The dropped-fsync fault: die *instead of* syncing.
                self._die(plan)
        self.drain()
        started = time.perf_counter()
        synced = False
        with self._sync_lock:
            if not self.closed and self._synced_offset != self._offset:
                self._file.flush()
                self._flushed_offset = self._offset
                os.fsync(self._file.fileno())
                self._synced_offset = self._offset
                self.syncs += 1
                synced = True
            self._unsynced_commits = 0
            self._last_sync = time.monotonic()
        if synced and OBS.enabled:
            OBS.metrics.counter("wal.fsyncs").inc()
            OBS.metrics.histogram("wal.sync_ms").observe(
                (time.perf_counter() - started) * 1000.0
            )

    def _writer_loop(self) -> None:
        """The log writer: encode, write, flush, and fsync per policy.

        Sole writer of the segment file while running -- committing
        threads never touch it, they enqueue through :meth:`append` /
        :meth:`commit_point` and are woken once their records are down.
        """
        interval_s = max(self.group_interval_ms, 1.0) / 1000.0
        while True:
            with self._cv:
                while not self._pending and not self._stop:
                    if not self._cv.wait(timeout=interval_s):
                        break  # idle: let the time trigger below run
                batch = list(self._pending)
            commits = 0
            try:
                for payload in batch:
                    if payload is _COMMIT:
                        commits += 1
                        self._unsynced_commits += 1
                    else:
                        self._write(encode_record(payload))
                if batch:
                    self._file.flush()
                    self._flushed_offset = self._offset
                elapsed_ms = (time.monotonic() - self._last_sync) * 1000.0
                if self._flushed_offset > self._synced_offset and (
                    self._unsynced_commits >= self.group_commits
                    or elapsed_ms >= self.group_interval_ms
                ):
                    self._fsync_from_writer()
            except BaseException as exc:  # surface on the next commit/drain
                with self._cv:
                    self._writer_error = exc
                    self._cv.notify_all()
                return
            with self._cv:
                for _ in batch:
                    self._pending.popleft()
                self._pending_commits -= commits
                self._cv.notify_all()
                if self._stop and not self._pending:
                    return

    def _fsync_from_writer(self) -> None:
        started = time.perf_counter()
        with self._sync_lock:
            if self.closed:
                return
            os.fsync(self._file.fileno())
            self._synced_offset = self._flushed_offset
            self._unsynced_commits = 0
            self._last_sync = time.monotonic()
            self.syncs += 1
        if OBS.enabled:
            OBS.metrics.counter("wal.fsyncs").inc()
            OBS.metrics.histogram("wal.sync_ms").observe(
                (time.perf_counter() - started) * 1000.0
            )

    def close(self) -> None:
        if self.closed:
            return
        if self._writer is not None:
            with self._cv:
                self._stop = True
                self._cv.notify_all()
            self._writer.join(timeout=10.0)
            self._writer = None
        if self.fsync_policy != FSYNC_NEVER:
            self.sync()
        else:
            self._file.flush()
        with self._sync_lock:
            self._file.close()
            self.closed = True

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"WriteAheadLog({self.path.name!r}, policy={self.fsync_policy}, "
            f"appends={self.appends}, commits={self.commits}, syncs={self.syncs})"
        )


# ----------------------------------------------------------------------
# The records' one reader (used by recovery)
def committed_transactions(
    records: list[WalRecord],
) -> Iterator[tuple[int, list[dict[str, Any]]]]:
    """Yields ``(commit_clock, ops)`` per record, in commit order: a
    commit record carries its whole operation list, a DDL record is its
    own single operation.  Every intact record is committed work -- the
    crash's in-flight commit is a torn record :func:`read_wal` cut off.
    """
    for record in records:
        payload = record.payload
        if payload["k"] == KIND_COMMIT:
            yield payload.get("clk", 0), payload["ops"]
        elif payload["k"] == KIND_DDL:
            yield payload.get("clk", 0), [payload]
        else:
            raise DatabaseError(
                f"WAL record of unknown kind {payload['k']!r} "
                "(a log written by an older version?)"
            )
