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

Watching a table is subscribing to it (:meth:`Database.subscribe`), and
Section V's policies (P1/P2/P3) are the edge's:
``center.watch(t).set_policy(p)``, or ``center.subscriptions[t]``.
Under a buffering policy the database's gate delivers the net delta
later, to the same :meth:`NotificationCenter._deliver`, as a commit of
its own -- one seq-no batch, fanned out to the listeners in one call.

Locking: the database fires triggers while holding its global lock, so
the write path enters here as ``db lock -> center lock``.  Every center
method that may run on another thread and touch both (watch, purge, the
replay readers) therefore acquires the *database* lock first -- one
consistent order, no deadlock, and replay scans see a stable snapshot
instead of racing a concurrent purge (the RefreshDriver/purge race).
Sequence numbers are allocated in ``_record`` under the database lock,
which serializes every write path, so they are gapless and monotonic
across tables and writer threads.
"""

from __future__ import annotations

import threading
from itertools import chain, repeat
from operator import itemgetter
from typing import Any, Callable, Sequence

from ..core import datamodel
from ..db.database import Database
from ..db.schema import TID
from ..db.table import ChangeSet
from ..db.triggers import Subscription
from ..errors import SyncError
from ..obs.runtime import OBS

#: Listener signature: (table_name, [(op, seq_no), ...]) -- one call per
#: recorded event group (singletons included), in seq order.
BatchListener = Callable[[str, list[tuple[str, int]]], None]

_tid_of = itemgetter(TID)
_after = itemgetter(1)


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
        #: Watched table -> its edge (the handle on its policy).
        self.subscriptions: dict[str, Subscription] = {}
        self._listeners: list[BatchListener] = []
        self._lock = threading.RLock()
        self._next_seq = self._initial_seq()

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
    def watch(self, table: str) -> Subscription:
        """Install CREATE/UPDATE/DELETE monitoring on ``table``; returns
        its edge (the same one when already watched)."""
        if table == datamodel.T_NOTIFICATION:
            raise SyncError(f"cannot watch the notification machinery table {table!r}")
        with self.database.lock, self._lock:
            edge = self.subscriptions.get(table)
            if edge is None:
                edge = self.subscriptions[table] = self.database.subscribe(
                    table, self._deliver, f"notify_{table}"
                )
            return edge

    def unwatch(self, table: str) -> None:
        """Deliver what ``table``'s edge still buffers and stop watching."""
        with self._lock:
            edge = self.subscriptions.pop(table, None)
        if edge is not None:
            edge.close()

    def watched_tables(self) -> list[str]:
        return sorted(self.subscriptions)

    def add_batch_listener(self, listener: BatchListener) -> None:
        """Register a listener receiving one call per recorded batch."""
        with self._lock:
            self._listeners.append(listener)

    def remove_batch_listener(self, listener: BatchListener) -> None:
        with self._lock:
            if listener in self._listeners:
                self._listeners.remove(listener)

    def close(self) -> None:
        """Unwatch every table, delivering what its edge still buffers."""
        for table in list(self.subscriptions):
            self.unwatch(table)

    # ------------------------------------------------------------------
    def _deliver(self, change: ChangeSet) -> None:
        # The edge's delivery, immediate or flushed: the database lock is
        # held and a commit is being made, so the log rows join it and
        # the listeners hear of them once it is logged.
        with OBS.span("sync.notify", {"table": change.table}) as span:
            events, listeners = self._record(change, span)
            span.set_tag("notifications", len(events))
        self.database.after_commit(self._fan_out, change.table, events, listeners)

    def _record(
        self, change: ChangeSet, span: Any
    ) -> tuple[list[tuple[str, int]], list[BatchListener]]:
        """Log ``change`` as one seq-no, one Notification row, per op
        kind and link each to ``span``; returns the ``(op, seq_no)``
        events and the listeners to hand them to."""
        # Each event's tids are distinct, so ``hi - lo`` tells a contiguous
        # run, stored as its bounds alone (an INSERT's: nothing sorted);
        # any other list is logged ascending (a coalesced delta or a
        # delete_by_tids may list it otherwise).
        groups = [
            (op, tids)
            for op, tids in (
                (datamodel.OP_INSERT, list(map(_tid_of, change.inserted))),
                (datamodel.OP_UPDATE, list(map(_tid_of, map(_after, change.updated)))),
                (datamodel.OP_DELETE, list(map(_tid_of, change.deleted))),
            )
            if tids
        ]
        with self.database.lock:
            with self._lock:
                first = self._next_seq
                self._next_seq += len(groups)
                events = [(op, first + i) for i, (op, _tids) in enumerate(groups)]
                # Row at a time: there are <= 3.
                for (op, seq_no), (_op, tids) in zip(events, groups):
                    lo, hi = min(tids), max(tids)
                    if hi - lo + 1 != len(tids):
                        tids.sort()
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
                logged = list(index.range(last_seq_no, None, include_low=False))
                for row in log.images(logged):
                    if row["table_name"] == table:
                        tids = row["tids"]
                        if tids is None:
                            tids = range(row["lo"], row["hi"] + 1)
                        events.append((row["seq_no"], row["op"], tids))
        return events

    def changes_since(
        self, table: str, last_seq_no: int
    ) -> tuple[int, list[tuple[int, str]]]:
        """:meth:`events_since` flattened to one ``(tid, op)`` per changed
        row, in ``(seq_no, tid)`` order, behind the newest seq-no read."""
        events = self.events_since(table, last_seq_no)
        newest = events[-1][0] if events else last_seq_no
        return newest, list(
            chain.from_iterable(zip(tids, repeat(op)) for _seq, op, tids in events)
        )

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
