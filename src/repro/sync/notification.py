"""The Notification table and its feeding triggers.

"Whenever one such change happens, the corresponding trigger adds to the
Notification table stored in the database one tuple of the form
``(seq_no, ts, tn, op)``" (Section VI-C).  Alongside, a compact tombstone
table records the tids touched by each notification so clients can pull
exactly the changed rows later (the notification itself stays minimal;
tombstones are server-side state, never sent over the wire).

The center also fans each notification out to in-process listeners --
the :class:`~repro.sync.server.SyncServer` registers one to push NOTIFY
messages to remote clients.

Propagation policies (Section V's P1/P2/P3) are configured per table via
:meth:`NotificationCenter.set_policy`: under a non-immediate policy the
trigger path *buffers* change sets in a :class:`DeltaCoalescer` and a
flush records the net delta as one seq-no batch, fanned out to
batch-aware listeners in a single call.

Locking: the database fires triggers while holding its global lock, so
the write path enters here as ``db lock -> center lock``.  Every center
method that may run on another thread and touch both (flush, purge, the
replay readers) therefore acquires the *database* lock first -- one
consistent order, no deadlock, and replay scans see a stable snapshot
instead of racing a concurrent purge (the RefreshDriver/purge race).

Sharding: the buffering plane is split into N independent shards
(table -> shard via a stable CRC32, so the mapping survives process
restarts and hash randomization).  Each shard owns its lock, its
:class:`BatchBuffer` and its flush timer thread, so concurrent flushes
of tables on different shards never serialize on a single center lock.
Sequence numbers stay globally monotonic: ``_record`` allocates them
under the database lock, which already serializes every write path.
The lock order becomes ``db lock -> shard lock`` (and, separately,
``db lock -> center lock`` for the listener/policy registry); a shard
lock is never held while acquiring the registry lock or another shard's.
"""

from __future__ import annotations

import threading
import time
import zlib
from typing import Any, Callable, Optional

from ..core import datamodel
from ..db.database import Database
from ..db.schema import TID, Column
from ..db.table import ChangeSet
from ..db.types import INTEGER, TEXT
from ..errors import SyncError
from ..obs.runtime import OBS
from .batching import IMMEDIATE, BatchBuffer, PropagationPolicy

T_CHANGED_ROWS = "ediflow_changed_rows"

#: Listener signature: (table_name, op, seq_no).
Listener = Callable[[str, str, int], None]

#: Batch listener signature: (table_name, [(op, seq_no), ...]) -- one call
#: per recorded event group (singletons included), in seq order.
BatchListener = Callable[[str, list[tuple[str, int]]], None]


DEFAULT_SHARDS = 8


class _Shard:
    """One slice of the notification plane: lock + buffer + timer.

    A shard serializes only the tables that hash to it; flushes on
    different shards proceed concurrently (each still takes the database
    lock for the record step, but buffering, coalescing and due-ness
    tracking never contend across shards).
    """

    __slots__ = (
        "index",
        "lock",
        "buffer",
        "flush_thread",
        "flushes",
        "timer_fires",
    )

    def __init__(self, index: int) -> None:
        self.index = index
        self.lock = threading.RLock()
        self.buffer = BatchBuffer()
        self.flush_thread: Optional[threading.Thread] = None
        self.flushes = 0
        self.timer_fires = 0


class NotificationCenter:
    """Watches tables and appends to the Notification table."""

    def __init__(self, database: Database, shards: int = DEFAULT_SHARDS) -> None:
        self.database = database
        datamodel.install_core_schema(database)
        if not database.has_table(T_CHANGED_ROWS):
            database.create_table(
                T_CHANGED_ROWS,
                [
                    Column("seq_no", INTEGER, nullable=False),
                    Column("table_name", TEXT, nullable=False),
                    Column("tid", INTEGER, nullable=False),
                    Column("op", TEXT, nullable=False),
                ],
            )
        # Replay queries (changes_since / notifications_since) are range
        # scans on seq_no -- keep both tables sorted-indexed so a client
        # pulling a small tail never pays for the whole log.
        for name in (datamodel.T_NOTIFICATION, T_CHANGED_ROWS):
            table = database.table(name)
            if not table.has_index(f"ix_{name}_seq"):
                table.create_index(f"ix_{name}_seq", ("seq_no",), sorted=True)
        self._watched: set[str] = set()
        self._listeners: list[Listener] = []
        self._batch_listeners: list[BatchListener] = []
        self._lock = threading.RLock()
        self._next_seq = self._initial_seq()
        # Propagation policies (P1/P2/P3): table -> policy; absent means
        # immediate.  Buffered changes live in the owning shard's buffer.
        self._policies: dict[str, PropagationPolicy] = {}
        self._shards = [_Shard(i) for i in range(max(1, int(shards)))]
        self._flush_stop = threading.Event()
        self._closed = False
        # Counters (tests and dashboards read these).
        self.flushes = 0
        self.coalesced_ops = 0

    @property
    def shard_count(self) -> int:
        return len(self._shards)

    def shard_of(self, table: str) -> int:
        """Stable shard index for ``table`` (CRC32, not randomized hash)."""
        return zlib.crc32(table.encode("utf-8")) % len(self._shards)

    def _shard_for(self, table: str) -> _Shard:
        return self._shards[self.shard_of(table)]

    def _initial_seq(self) -> int:
        table = self.database.table(datamodel.T_NOTIFICATION)
        index = table.find_sorted_index("seq_no")
        highest = index.max_key() if index is not None else None
        if highest is None:
            highest = 0
            for row in table.scan():
                if row["seq_no"] > highest:
                    highest = row["seq_no"]
        return highest + 1

    # ------------------------------------------------------------------
    def watch(self, table: str) -> None:
        """Install CREATE/UPDATE/DELETE monitoring on ``table``."""
        if table in (datamodel.T_NOTIFICATION, T_CHANGED_ROWS):
            raise SyncError(f"cannot watch the notification machinery table {table!r}")
        with self._lock:
            if table in self._watched:
                return
            self.database.table(table)  # must exist
            self.database.on(
                table,
                ("insert", "update", "delete"),
                self._on_change,
                name=f"notify_{table}",
            )
            self._watched.add(table)

    def unwatch(self, table: str) -> None:
        self.flush(table)
        with self._lock:
            if table not in self._watched:
                return
            self.database.drop_trigger(f"notify_{table}")
            self._watched.discard(table)

    def watched_tables(self) -> list[str]:
        return sorted(self._watched)

    def add_listener(self, listener: Listener) -> None:
        with self._lock:
            self._listeners.append(listener)

    def remove_listener(self, listener: Listener) -> None:
        with self._lock:
            if listener in self._listeners:
                self._listeners.remove(listener)

    def add_batch_listener(self, listener: BatchListener) -> None:
        """Register a listener receiving one call per recorded batch."""
        with self._lock:
            self._batch_listeners.append(listener)

    def remove_batch_listener(self, listener: BatchListener) -> None:
        with self._lock:
            if listener in self._batch_listeners:
                self._batch_listeners.remove(listener)

    # ------------------------------------------------------------------
    # Propagation policies
    def set_policy(self, table: str, policy: PropagationPolicy) -> None:
        """Configure how changes of ``table`` propagate (P1/P2/P3).

        Switching policies never strands queued changes: anything pending
        under the old policy is flushed first.
        """
        self.flush(table)
        with self._lock:
            if policy.buffers:
                self._policies[table] = policy
            else:
                self._policies.pop(table, None)
        if policy.max_delay_ms is not None:
            self._ensure_flush_thread(self._shard_for(table))

    def policy(self, table: str) -> PropagationPolicy:
        with self._lock:
            return self._policies.get(table, IMMEDIATE)

    def pending_ops(self, table: str) -> int:
        """Buffered (not yet flushed) raw operations for ``table``."""
        shard = self._shard_for(table)
        with shard.lock:
            return shard.buffer.pending_ops(table)

    # ------------------------------------------------------------------
    # Time-based flushing (one timer thread per shard, started lazily
    # when a timed policy lands on a table owned by that shard).
    def _ensure_flush_thread(self, shard: _Shard) -> None:
        with self._lock:
            if shard.flush_thread is not None or self._closed:
                return
            shard.flush_thread = threading.Thread(
                target=self._shard_flush_loop, args=(shard,), daemon=True
            )
            shard.flush_thread.start()

    def _flush_interval(self, shard: _Shard) -> float:
        with self._lock:
            delays = [
                p.max_delay_ms
                for table, p in self._policies.items()
                if p.max_delay_ms and self.shard_of(table) == shard.index
            ]
        if not delays:
            return 0.05
        return min(0.05, max(0.001, min(delays) / 1000.0 / 4.0))

    def _shard_flush_loop(self, shard: _Shard) -> None:
        while not self._flush_stop.wait(self._flush_interval(shard)):
            due = self._due_tables_in(shard)
            if due:
                shard.timer_fires += 1
            for table in due:
                self.flush(table)

    def _due_tables_in(self, shard: _Shard) -> list[str]:
        with shard.lock:
            pending = shard.buffer.keys()
            ages = {table: shard.buffer.age_ms(table) for table in pending}
        with self._lock:
            due = []
            for table in pending:
                policy = self._policies.get(table)
                if policy is None:
                    due.append(table)  # policy dropped with changes queued
                elif policy.max_delay_ms is not None and (
                    ages[table] >= policy.max_delay_ms
                ):
                    due.append(table)
            return due

    def due_tables(self) -> list[str]:
        """Tables whose buffered changes have exceeded their time bound."""
        due: list[str] = []
        for shard in self._shards:
            due.extend(self._due_tables_in(shard))
        return sorted(due)

    def close(self) -> None:
        """Flush everything and stop the background flushers."""
        self._closed = True
        self._flush_stop.set()
        self.flush_all()
        for shard in self._shards:
            thread = shard.flush_thread
            if thread is not None:
                thread.join(timeout=2.0)
                shard.flush_thread = None

    # ------------------------------------------------------------------
    def _on_change(self, change: ChangeSet) -> None:
        # Trigger context: the database lock is held here, so taking the
        # registry/shard locks respects the global db -> center order.
        with self._lock:
            policy = self._policies.get(change.table)
        if policy is not None:
            shard = self._shard_for(change.table)
            with shard.lock:
                coalescer = shard.buffer.add(change.table, change)
                due = policy.should_flush(
                    coalescer.raw_ops, shard.buffer.age_ms(change.table)
                )
            if due:
                self.flush(change.table)
            return
        if OBS.enabled:
            with OBS.tracer.span(
                "sync.notify", tags={"table": change.table}
            ) as span:
                notified, listeners, batchers = self._record(change)
                span.set_tag("notifications", len(notified))
                self._register_links(notified, span)
                self._fan_out(change.table, notified, listeners, batchers)
            return
        notified, listeners, batchers = self._record(change)
        self._fan_out(change.table, notified, listeners, batchers)

    @staticmethod
    def _register_links(notified: list[tuple[str, str, int]], span: Any) -> None:
        # Register the notify context under (table, seq_no) so the
        # mirror refresh -- on another thread, reached only through
        # the protocol -- can join this trace, and so the
        # NOTIFY->applied latency has a start timestamp.
        context = span.context()
        for table, op, seq_no in notified:
            OBS.tracer.link(("notify", table, seq_no), context)
            OBS.metrics.counter("sync.notifications", op=op).inc()

    def flush(self, table: str) -> int:
        """Record and fan out the net delta buffered for ``table``.

        Returns the number of net operations shipped (0 when nothing was
        pending).  Safe to call from any thread and at any time,
        including under an immediate policy (no-op).
        """
        # Acquire the database lock first: the trigger path arrives with
        # it held, so a flusher thread must take the same order.
        shard = self._shard_for(table)
        with self.database.lock:
            with shard.lock:
                coalescer = shard.buffer.take(table)
                # Only on a real take: an empty probe must not mint gauge
                # series (the telemetry sink flushes its own tables, and
                # self-instrumentation noise would feed back into it).
                if coalescer is not None and OBS.enabled:
                    self._observe_shard_depth(shard)
            if coalescer is None:
                return 0
            away = coalescer.coalesced_away()
            if coalescer.is_empty():
                # The batch annihilated itself (e.g. insert+delete per
                # tid): nothing to record, but the savings still count.
                self.coalesced_ops += away
                if away and OBS.enabled:
                    OBS.metrics.counter(
                        "sync.coalesced_away", table=table
                    ).inc(away)
                return 0
            net = coalescer.net_changeset()
            net_ops = coalescer.net_ops()
            started = time.perf_counter()
            if OBS.enabled:
                with OBS.tracer.span(
                    "sync.flush", tags={"table": table, "ops": net_ops}
                ) as span:
                    notified, listeners, batchers = self._record(net)
                    self._register_links(notified, span)
                self._observe_flush(table, net_ops, away, started)
            else:
                notified, listeners, batchers = self._record(net)
            self.flushes += 1
            shard.flushes += 1
            self.coalesced_ops += away
            self._fan_out(table, notified, listeners, batchers)
            return net_ops

    def _observe_shard_depth(self, shard: _Shard) -> None:
        # Caller holds shard.lock.  One gauge per shard: buffered raw ops
        # not yet flushed -- the backpressure signal for the fan-out plane.
        depth = sum(shard.buffer.pending_ops(t) for t in shard.buffer.keys())
        OBS.metrics.gauge("sync.shard.pending_ops", shard=str(shard.index)).set(depth)

    def shard_stats(self) -> list[dict[str, int]]:
        """Per-shard snapshot: buffered tables/ops and completed flushes."""
        stats = []
        for shard in self._shards:
            with shard.lock:
                tables = shard.buffer.keys()
                stats.append(
                    {
                        "shard": shard.index,
                        "tables": len(tables),
                        "pending_ops": sum(
                            shard.buffer.pending_ops(t) for t in tables
                        ),
                        "flushes": shard.flushes,
                        "timer_fires": shard.timer_fires,
                    }
                )
        return stats

    def _observe_flush(
        self, table: str, net_ops: int, away: int, started: float
    ) -> None:
        OBS.metrics.histogram("sync.batch_size", table=table).observe(net_ops)
        OBS.metrics.histogram("sync.flush_ms", table=table).observe(
            (time.perf_counter() - started) * 1000.0
        )
        if away:
            OBS.metrics.counter("sync.coalesced_away", table=table).inc(away)

    def flush_all(self) -> int:
        """Flush every table with buffered changes; returns total net ops."""
        tables: list[str] = []
        for shard in self._shards:
            with shard.lock:
                tables.extend(shard.buffer.keys())
        return sum(self.flush(table) for table in tables)

    def _record(
        self, change: ChangeSet
    ) -> tuple[list[tuple[str, str, int]], list[Listener], list[BatchListener]]:
        # Each event's tids are logged ascending (a coalesced delta or a
        # delete_by_tids may list them otherwise): changes_since then reads
        # them back in (seq_no, tid) order straight off the seq index.
        events: list[tuple[str, list[int]]] = []
        if change.inserted:
            events.append(
                (datamodel.OP_INSERT, sorted(r[TID] for r in change.inserted))
            )
        if change.updated:
            events.append(
                (datamodel.OP_UPDATE, sorted(after[TID] for _, after in change.updated))
            )
        if change.deleted:
            events.append(
                (datamodel.OP_DELETE, sorted(r[TID] for r in change.deleted))
            )
        notified: list[tuple[str, str, int]] = []
        with self.database.lock:
            with self._lock:
                for op, tids in events:
                    seq_no = self._next_seq
                    self._next_seq += 1
                    ts = self.database.now()
                    self.database.insert(
                        datamodel.T_NOTIFICATION,
                        {
                            "seq_no": seq_no,
                            "ts": ts,
                            "table_name": change.table,
                            "op": op,
                        },
                    )
                    self.database.insert_many(
                        T_CHANGED_ROWS,
                        [
                            {
                                "seq_no": seq_no,
                                "table_name": change.table,
                                "tid": tid,
                                "op": op,
                            }
                            for tid in tids
                        ],
                    )
                    notified.append((change.table, op, seq_no))
                listeners = list(self._listeners)
                batchers = list(self._batch_listeners)
        return notified, listeners, batchers

    @staticmethod
    def _fan_out(
        table: str,
        notified: list[tuple[str, str, int]],
        listeners: list[Listener],
        batchers: list[BatchListener],
    ) -> None:
        if not notified:
            return
        events = [(op, seq_no) for _table, op, seq_no in notified]
        for batcher in batchers:
            batcher(table, events)
        for _table, op, seq_no in notified:
            for listener in listeners:
                listener(table, op, seq_no)

    # ------------------------------------------------------------------
    # Client pull support
    def changes_since(
        self, table: str, last_seq_no: int
    ) -> tuple[int, list[tuple[int, str]]]:
        """All ``(tid, op)`` changes on ``table`` after ``last_seq_no``.

        Returns ``(newest_seq_no, changes)``; changes are ordered by
        sequence number so replaying them yields the current state.  The
        snapshot is taken under the database lock so a concurrent purge
        (which deletes log rows) can never shift the scan mid-iteration.
        """
        with self.database.lock:
            with self._lock:
                rows = self._rows_after(T_CHANGED_ROWS, last_seq_no)
                # Seq order is the index's; within one seq_no _record
                # logged the tids ascending: (seq_no, tid) order already.
                changes = [
                    (row["tid"], row["op"])
                    for row in rows
                    if row["table_name"] == table
                ]
                newest = next(
                    (
                        row["seq_no"]
                        for row in reversed(rows)
                        if row["table_name"] == table
                    ),
                    last_seq_no,
                )
        return newest, changes

    def _rows_after(self, table_name: str, last_seq_no: int) -> list[dict[str, Any]]:
        """Rows of ``table_name`` with ``seq_no > last_seq_no``, in seq
        order: one slice of the sorted seq_no index the constructor
        guarantees (a reconnecting client pulls a short tail of a long
        log).  Callers hold the database lock."""
        table = self.database.table(table_name)
        index = table.find_sorted_index("seq_no")
        get = table.get
        return [
            get(tid) for _seq, tid in index.slice(last_seq_no, None, include_low=False)
        ]

    def notifications_since(self, table: str, last_seq_no: int) -> list[tuple[int, str]]:
        """All ``(seq_no, op)`` notifications on ``table`` after ``last_seq_no``.

        Used by reconnecting clients to *replay* what they missed while
        their transport was down: the purge horizon (step 11) keeps every
        notification above any connected client's ``last_seq_no``, so the
        replay is lossless.
        """
        with self.database.lock:
            with self._lock:
                return [
                    (row["seq_no"], row["op"])
                    for row in self._rows_after(datamodel.T_NOTIFICATION, last_seq_no)
                    if row["table_name"] == table
                ]

    def purge(self) -> int:
        """Drop notifications every connected client has already consumed.

        Step 11 of the protocol: the purge horizon is the lowest
        ``last_seq_no`` in the ConnectedUser table -- our ``last_seq_no``
        means "consumed up to and including", so entries at or below the
        horizon are safe to drop.  Returns the number of notification
        rows removed.

        Runs under the database lock (then the center lock) so it is
        serialized against in-flight ``changes_since`` scans -- a refresh
        taking its seq snapshot can never observe a half-purged log.
        """
        with self.database.lock:
            with self._lock:
                connected = self.database.table(datamodel.T_CONNECTED_USER)
                lowest: Optional[int] = None
                for row in connected.scan():
                    seq = row["last_seq_no"]
                    if lowest is None or seq < lowest:
                        lowest = seq
                if lowest is None:
                    # No clients: everything already consumed.
                    lowest = self._next_seq
                removed = self._drop_through(datamodel.T_NOTIFICATION, lowest)
                self._drop_through(T_CHANGED_ROWS, lowest)
                return removed

    def _drop_through(self, table_name: str, horizon: int) -> int:
        """Delete the log rows with ``seq_no <= horizon`` as one statement,
        in tid order as ``DELETE ... WHERE`` lists them: a prefix of the
        seq index, so no row is read to find them."""
        index = self.database.table(table_name).find_sorted_index("seq_no")
        tids = sorted(tid for _seq, tid in index.slice(None, horizon))
        return self.database.delete_by_tids(table_name, tids)
