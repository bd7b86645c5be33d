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
``_deliver`` draws a delivery's seq-nos and its log rows' tids in one
step, under both locks: the rows, built here in schema order, are no
statement but the log's one append (:meth:`Database.appender`) to the
commit being made.  Both only ascend, so seq-no order is tid order: the
log has no key and no index, and its reader and the purge bisect it.
"""

from __future__ import annotations

import threading
from itertools import chain, repeat
from operator import itemgetter
from typing import Callable, Optional, Sequence

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
_OPS = (datamodel.OP_INSERT, datamodel.OP_UPDATE, datamodel.OP_DELETE)


def _groups(change: ChangeSet) -> list[tuple[str, int, int, Optional[list[int]]]]:
    """``change``'s log events, one ``(op, lo, hi, tids)`` per op kind in
    seq order.  Each event's tids are distinct, so ``hi - lo`` tells a
    contiguous run, stored as its bounds alone (``tids`` None); any other
    list is logged ascending.  A one-row change builds no list."""
    inserted, updated, deleted = change.inserted, change.updated, change.deleted
    if len(inserted) + len(updated) + len(deleted) == 1:
        op, row = (
            (datamodel.OP_INSERT, inserted[0])
            if inserted
            else (datamodel.OP_UPDATE, updated[0][1])
            if updated
            else (datamodel.OP_DELETE, deleted[0])
        )
        return [(op, row[TID], row[TID], None)]
    groups = []
    for op, rows in zip(_OPS, (inserted, list(map(_after, updated)), deleted)):
        if rows:
            tids = list(map(_tid_of, rows))
            lo, hi = min(tids), max(tids)
            run = hi - lo + 1 == len(tids)
            groups.append((op, lo, hi, None if run else sorted(tids)))
    return groups


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
        #: The log's one write path (the center is its one writer).
        self._append = database.appender(datamodel.T_NOTIFICATION)
        #: Watched table -> its edge (the handle on its policy).
        self.subscriptions: dict[str, Subscription] = {}
        #: Replaced, never changed in place: a delivery keeps the tuple.
        self._listeners: tuple[BatchListener, ...] = ()
        self._lock = threading.RLock()
        self._next_seq = self._initial_seq()

    def _initial_seq(self) -> int:
        """One past every seq-no ever handed out: a row's seq-no is at most its
        tid, and the log's tid counter survives purge, checkpoint and recovery
        (the newest row and the clients cover a log numbered past its tids)."""
        log = self.database.table(datamodel.T_NOTIFICATION)
        users = self.database.table(datamodel.T_CONNECTED_USER).scan()
        newest = next(filter(None, map(log.get, reversed(log.span))), {"seq_no": 0})
        seqs = [log.named_tids, newest["seq_no"], *(row["last_seq_no"] for row in users)]
        return 1 + max(seqs)

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
            self._listeners += (listener,)

    def remove_batch_listener(self, listener: BatchListener) -> None:
        with self._lock:
            self._listeners = tuple(x for x in self._listeners if x != listener)

    def close(self) -> None:
        """Unwatch every table, delivering what its edge still buffers."""
        for table in list(self.subscriptions):
            self.unwatch(table)

    # ------------------------------------------------------------------
    def _deliver(self, change: ChangeSet) -> None:
        """The edge's delivery (immediate or flushed; database lock held,
        a commit being made): log ``change`` as one seq-no and one row per
        op kind -- one append, joining the commit -- and hand the ``(op,
        seq_no)`` events to the listeners once that commit is logged."""
        groups, table, traced = _groups(change), change.table, OBS.enabled
        with OBS.span("sync.notify", {"table": table} if traced else None) as span:
            with self.database.lock, self._lock:
                seq, ts = self._next_seq, self.database.now()
                rows = [
                    {
                        "seq_no": seq_no,
                        "ts": ts,
                        "table_name": table,
                        "op": op,
                        "lo": lo,
                        "hi": hi,
                        "tids": tids,
                    }
                    for seq_no, (op, lo, hi, tids) in enumerate(groups, seq)
                ]
                self._next_seq = seq + len(rows)
                self._append(rows)  # their tids ascend with their seq-nos
                listeners = self._listeners
            events = [(row["op"], row["seq_no"]) for row in rows]
            if traced:
                span.set_tag("notifications", len(events))
                # Register the notify context under (table, seq_no) so the
                # mirror refresh -- on another thread, reached only through
                # the protocol -- can join this trace, and so the
                # NOTIFY->applied latency has a start timestamp.
                context = span.context()
                for op, seq_no in events:
                    OBS.tracer.link(("notify", table, seq_no), context)
                    OBS.metrics.counter("sync.notifications", op=op).inc()
        self.database.after_commit(self._fan_out, table, events, listeners)

    @staticmethod
    def _fan_out(
        table: str, events: list[tuple[str, int]], listeners: tuple[BatchListener, ...]
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
        current state.  One bisect of the log on seq_no (a reconnecting
        client pulls a short tail of a long log) and one slice, under the
        database lock so a concurrent purge (which deletes log rows) can
        never shift the slice.  The purge horizon (step 11) keeps every event of
        a table above the ``last_seq_no`` of each of its connected
        clients, so a reconnecting client's replay is lossless.
        """
        events: list[tuple[int, str, Sequence[int]]] = []
        with self.database.lock, self._lock:
            log = self.database.table(datamodel.T_NOTIFICATION)
            tail = range(log.bisect("seq_no", last_seq_no), log.span.stop)
            for row in filter(None, log.images(tail)):
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
        removed.  Seq-no ascends with tid, so while every watched table
        has clients the pass stops at the first row past the highest
        horizon (a table neither watched nor mirrored loses its rows once
        a horizon passes them).

        Runs under the database lock (then the center lock) so it is
        serialized against in-flight :meth:`events_since` scans -- a refresh
        taking its seq snapshot can never observe a half-purged log.
        """
        with self.database.lock, self._lock:
            horizons: dict[str, int] = {}
            for row in self.database.table(datamodel.T_CONNECTED_USER).scan():
                name, seq = row["table_name"], row["last_seq_no"]
                horizons[name] = min(seq, horizons.get(name, seq))
            log = self.database.table(datamodel.T_NOTIFICATION)
            stop = log.span.stop
            if horizons and horizons.keys() >= self.subscriptions.keys():
                stop = log.bisect("seq_no", max(horizons.values()))
            # One statement, in tid order as ``DELETE ... WHERE`` lists them.
            consumed = [
                row[TID]
                for row in filter(None, log.images(range(log.span.start, stop)))
                if row["seq_no"] <= horizons.get(row["table_name"], row["seq_no"])
            ]
            return self.database.delete_by_tids(datamodel.T_NOTIFICATION, consumed)
