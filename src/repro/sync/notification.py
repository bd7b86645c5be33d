"""The Notification table and its feeding triggers.

"Whenever one such change happens, the corresponding trigger adds to the
Notification table stored in the database one tuple of the form
``(seq_no, ts, tn, op)``" (Section VI-C).  That tuple is the change log:
it also says which rows the event touched -- the tids ``lo..hi``, all of
them when ``tids`` is NULL (every ``insert_many``, every one-row
statement), else exactly the ascending list ``tids`` -- so clients can
pull exactly the changed rows later (what goes over the wire stays
``(seq_no, tn, op)``; the tids are server-side state).  The row format
is known to this module alone; :meth:`NotificationCenter.events_since`
is its one reader.

The center also fans each notification out to in-process listeners --
the :class:`~repro.sync.server.SyncServer` registers one to push NOTIFY
messages to remote clients.

The unit is the *commit*: the database hands the center a commit's net
delta per table (one statement's change set, or a transaction's,
coalesced), the center logs it as at most one seq-no per op kind -- rows
that join that commit, one WAL record with the user's -- and the
listeners are called once, after the log (``Database.after_commit``).

Propagation policies (Section V's P1/P2/P3) are configured per table via
:meth:`NotificationCenter.set_policy` and applied by the center's
:class:`~repro.sync.batching.PolicyGate`: under a non-immediate policy
the trigger path hands the change set to the gate, and a flush records
the net delta the same way -- one seq-no batch, one commit, fanned out to
the listeners in a single call.

Locking: the database fires triggers while holding its global lock, so
the write path enters here as ``db lock -> gate lock`` / ``db lock ->
center lock``.  Every center method that may run on another thread and
touch both (flush, purge, the replay readers) therefore acquires the
*database* lock first -- one consistent order, no deadlock, and replay
scans see a stable snapshot instead of racing a concurrent purge (the
RefreshDriver/purge race).  Sequence numbers are allocated in
``_record`` under the database lock, which serializes every write path,
so they are gapless and monotonic across tables and writer threads.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Optional, Sequence

from ..core import datamodel
from ..db.database import Database
from ..db.schema import TID
from ..db.table import ChangeSet
from ..errors import SyncError
from ..obs.runtime import OBS
from .batching import DeltaCoalescer, PolicyGate, PropagationPolicy

#: Listener signature: (table_name, [(op, seq_no), ...]) -- one call per
#: recorded event group (singletons included), in seq order.
BatchListener = Callable[[str, list[tuple[str, int]]], None]


class NotificationCenter:
    """Watches tables and appends to the Notification table."""

    def __init__(self, database: Database) -> None:
        self.database = database
        datamodel.install_core_schema(database)
        log = database.table(datamodel.T_NOTIFICATION)
        if not log.schema.has_column("tids"):
            raise SyncError(
                f"{datamodel.T_NOTIFICATION} lacks the changed tids, the shape "
                "of an older version that logged them in a second table; "
                "this one keeps one log"
            )
        # Replay is a range scan on seq_no -- keep the log sorted-indexed
        # so a client pulling a small tail never pays for the whole of it.
        if not log.has_index(f"ix_{datamodel.T_NOTIFICATION}_seq"):
            log.create_index(
                f"ix_{datamodel.T_NOTIFICATION}_seq", ("seq_no",), sorted=True
            )
        self._watched: set[str] = set()
        self._listeners: list[BatchListener] = []
        self._lock = threading.RLock()
        self._next_seq = self._initial_seq()
        # Propagation policies (P1/P2/P3), keyed by table.
        self._gate = PolicyGate(database.lock, self._deliver_flush)
        # Counters (tests and dashboards read these).
        self.flushes = 0
        self.coalesced_ops = 0

    def _initial_seq(self) -> int:
        """One past every seq-no already handed out: the newest still
        logged or, where purge has drained the log, the highest a
        ConnectedUser row remembers consuming -- a restarted center must
        never re-issue a number a reconnecting client is already past."""
        log = self.database.table(datamodel.T_NOTIFICATION)
        highest = log.find_sorted_index("seq_no").max_key() or 0
        for row in self.database.table(datamodel.T_CONNECTED_USER).scan():
            highest = max(highest, row["last_seq_no"])
        return highest + 1

    # ------------------------------------------------------------------
    def watch(self, table: str) -> None:
        """Install CREATE/UPDATE/DELETE monitoring on ``table``."""
        if table == datamodel.T_NOTIFICATION:
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

    def add_batch_listener(self, listener: BatchListener) -> None:
        """Register a listener receiving one call per recorded batch."""
        with self._lock:
            self._listeners.append(listener)

    def remove_batch_listener(self, listener: BatchListener) -> None:
        with self._lock:
            if listener in self._listeners:
                self._listeners.remove(listener)

    # ------------------------------------------------------------------
    # Propagation policies: the gate's, keyed by table.
    def set_policy(self, table: str, policy: PropagationPolicy) -> None:
        """Configure how changes of ``table`` propagate (P1/P2/P3).

        Switching policies never strands queued changes: anything pending
        under the old policy is flushed first.
        """
        self._gate.set_policy(table, policy)

    def policy(self, table: str) -> PropagationPolicy:
        return self._gate.policy(table)

    def pending_ops(self, table: Optional[str] = None) -> int:
        """Buffered (not yet flushed) raw operations for ``table``; with
        no argument, for every table -- the plane's backlog."""
        return self._gate.pending_ops(table)

    def due_tables(self) -> list[str]:
        """Tables whose buffered changes have exceeded their time bound."""
        return sorted(self._gate.due())

    def flush(self, table: str) -> int:
        """Record and fan out the net delta buffered for ``table``.

        Returns the number of net operations shipped (0 when nothing was
        pending).  Safe to call from any thread and at any time,
        including under an immediate policy (no-op).
        """
        return self._gate.flush(table)

    def flush_all(self) -> int:
        """Flush every table with buffered changes; returns total net ops."""
        return self._gate.flush_all()

    def close(self) -> None:
        """Flush everything and stop the gate's timer."""
        self._gate.close()

    # ------------------------------------------------------------------
    def _on_change(self, change: ChangeSet) -> None:
        # Trigger context: the database lock is held here, so taking the
        # gate/center locks respects the global db -> center order.  The
        # change is a commit's net delta on the table: its log rows join
        # that commit, the listeners hear of it once it is logged.
        if self._gate.offer(change.table, change):
            return
        with OBS.span("sync.notify", {"table": change.table}) as span:
            events, listeners = self._record(change, span)
            span.set_tag("notifications", len(events))
        self.database.after_commit(self._fan_out, change.table, events, listeners)

    def _deliver_flush(self, table: str, coalescer: DeltaCoalescer) -> int:
        # The gate's delivery: database lock held, gate lock not.
        away = coalescer.coalesced_away()
        self.coalesced_ops += away
        if away and OBS.enabled:
            OBS.metrics.counter("sync.coalesced_away", table=table).inc(away)
        if coalescer.is_empty():
            # The batch annihilated itself (e.g. insert+delete per tid):
            # nothing to record, but the savings still count.
            return 0
        net_ops = coalescer.net_ops()
        started = time.perf_counter()
        # One commit for the flush's log rows, wherever it runs: its own,
        # or -- a count bound reached inside a trigger -- that commit's.
        with OBS.span("sync.flush", {"table": table, "ops": net_ops}) as span:
            with self.database.transaction():
                events, listeners = self._record(coalescer.net_changeset(), span)
        if OBS.enabled:
            OBS.metrics.histogram("sync.batch_size", table=table).observe(net_ops)
            OBS.metrics.histogram("sync.flush_ms", table=table).observe(
                (time.perf_counter() - started) * 1000.0
            )
        self.flushes += 1
        self.database.after_commit(self._fan_out, table, events, listeners)
        return net_ops

    def _record(
        self, change: ChangeSet, span: Any
    ) -> tuple[list[tuple[str, int]], list[BatchListener]]:
        """Log ``change`` as one seq-no, one Notification row, per op
        kind and link each to ``span``; returns the ``(op, seq_no)``
        events and the listeners to hand them to."""
        # Each event's tids are logged ascending (a coalesced delta or a
        # delete_by_tids may list them otherwise) and are distinct, so
        # ``hi - lo`` tells a contiguous run, stored as its bounds alone.
        groups = [
            (op, sorted(row[TID] for row in rows))
            for op, rows in (
                (datamodel.OP_INSERT, change.inserted),
                (datamodel.OP_UPDATE, [after for _before, after in change.updated]),
                (datamodel.OP_DELETE, change.deleted),
            )
            if rows
        ]
        with self.database.lock:
            with self._lock:
                first = self._next_seq
                self._next_seq += len(groups)
                events = [(op, first + i) for i, (op, _tids) in enumerate(groups)]
                # Row at a time: there are <= 3.
                for (op, seq_no), (_op, tids) in zip(events, groups):
                    lo, hi = tids[0], tids[-1]
                    self.database.insert(
                        datamodel.T_NOTIFICATION,
                        {
                            "seq_no": seq_no,
                            "ts": self.database.now(),
                            "table_name": change.table,
                            "op": op,
                            "lo": lo,
                            "hi": hi,
                            "tids": None if hi - lo + 1 == len(tids) else tids,
                        },
                    )
                listeners = list(self._listeners)
        if OBS.enabled:
            # Register the notify context under (table, seq_no) so the
            # mirror refresh -- on another thread, reached only through
            # the protocol -- can join this trace, and so the
            # NOTIFY->applied latency has a start timestamp.
            context = span.context()
            for op, seq_no in events:
                OBS.tracer.link(("notify", change.table, seq_no), context)
                OBS.metrics.counter("sync.notifications", op=op).inc()
        return events, listeners

    @staticmethod
    def _fan_out(
        table: str, events: list[tuple[str, int]], listeners: list[BatchListener]
    ) -> None:
        if events:
            for listener in listeners:
                listener(table, events)

    # ------------------------------------------------------------------
    # Client pull support
    def events_since(
        self, table: str, last_seq_no: int
    ) -> list[tuple[int, str, Sequence[int]]]:
        """The events on ``table`` after ``last_seq_no``, one ``(seq_no,
        op, tids)`` each in seq order: the log's one reader.

        ``tids`` is ascending -- a ``range``, or the stored list (read
        it, never change it); replaying the events in order yields the
        current state.  One slice of the sorted seq_no index the
        constructor guarantees (a reconnecting client pulls a short tail
        of a long log), taken under the database lock so a concurrent
        purge (which deletes log rows) can never shift the scan
        mid-iteration.  The purge horizon (step 11) keeps every event of
        a table above the ``last_seq_no`` of each of its connected
        clients, so a reconnecting client's replay is lossless.
        """
        events: list[tuple[int, str, Sequence[int]]] = []
        with self.database.lock:
            with self._lock:
                log = self.database.table(datamodel.T_NOTIFICATION)
                index = log.find_sorted_index("seq_no")
                for seq_no, tid in index.slice(last_seq_no, None, include_low=False):
                    row = log.get(tid)
                    if row["table_name"] == table:
                        tids = row["tids"]
                        if tids is None:
                            tids = range(row["lo"], row["hi"] + 1)
                        events.append((seq_no, row["op"], tids))
        return events

    def changes_since(
        self, table: str, last_seq_no: int
    ) -> tuple[int, list[tuple[int, str]]]:
        """:meth:`events_since` flattened to one ``(tid, op)`` per changed
        row, in ``(seq_no, tid)`` order, behind the newest seq-no read."""
        events = self.events_since(table, last_seq_no)
        newest = events[-1][0] if events else last_seq_no
        return newest, [(tid, op) for _seq, op, tids in events for tid in tids]

    def notifications_since(self, table: str, last_seq_no: int) -> list[tuple[int, str]]:
        """:meth:`events_since` as the ``(seq_no, op)`` notifications a
        client missed while its transport was down."""
        return [(seq, op) for seq, op, _tids in self.events_since(table, last_seq_no)]

    def purge(self) -> int:
        """Drop the notifications their table's clients have all consumed.

        Step 11 of the protocol: a table's purge horizon is the lowest
        ``last_seq_no`` among *its* ConnectedUser rows -- our
        ``last_seq_no`` means "consumed up to and including", so its
        entries at or below the horizon are safe to drop; a mirror of a
        quiet table holds back no other table's log, and a table nobody
        mirrors keeps nothing.  Returns the number of notification rows
        removed.

        Runs under the database lock (then the center lock) so it is
        serialized against in-flight :meth:`events_since` scans -- a refresh
        taking its seq snapshot can never observe a half-purged log.
        """
        with self.database.lock:
            with self._lock:
                horizons: dict[str, int] = {}
                for row in self.database.table(datamodel.T_CONNECTED_USER).scan():
                    name, seq = row["table_name"], row["last_seq_no"]
                    horizons[name] = min(seq, horizons.get(name, seq))
                # One statement, in tid order as ``DELETE ... WHERE``
                # lists them: one read per logged event.
                consumed = sorted(
                    row[TID]
                    for row in self.database.table(datamodel.T_NOTIFICATION).scan()
                    if row["seq_no"] <= horizons.get(row["table_name"], row["seq_no"])
                )
                return self.database.delete_by_tids(datamodel.T_NOTIFICATION, consumed)
