"""Client-side synchronization: listening socket, R_M refresh, write-back.

One :class:`SyncClient` plays the role of the "connection manager" on a
visualization host (Section VI-C): it owns a listening socket, registers
its memory tables with the DBMS server, accepts the DBMS's call-back
connection, and counts NOTIFY messages.  The visualization software
"may decide what are the appropriate moments to refresh the display"
(step 8) -- so a NOTIFY only raises a dirty flag, which wakes whoever
waits on it; :meth:`refresh` performs the actual pull.

The client talks to the database through direct method calls (standing in
for JDBC): in the paper's deployment the client host holds a DB
connection too; here both ends share the process, while the *notification
path* still crosses a real TCP socket when ``use_sockets=True``.

Fault tolerance (beyond the paper): the callback connection's one thread
is its reader.  Any inbound message (NOTIFY or the server's PING, which
it answers with PONG) restarts its ``heartbeat_timeout`` receive
deadline; when the stream errors out, closes or falls silent past it, it

1. marks every mirror dirty and flips ``status`` to ``"reconnecting"``
   (satellite of the paper's step 8: a frozen link must never look like
   a quiet one), then runs the status hooks;
2. re-attaches via :meth:`SyncServer.reconnect_client` under an
   exponential-backoff :class:`~repro.retry.RetryPolicy` (the new stream
   gets its own reader), *replays* every notification it missed from the
   server-side Notification table (``seq_no > last_seq_no`` -- the same
   invariant that protects those rows from purging), and exits;
3. failing that, **degrades to polling**: it subscribes to the
   :class:`NotificationCenter` in-process (the ``use_sockets=False``
   path) so dirty flags and :meth:`refresh` keep working, and flags the
   condition via ``status == "degraded"``.
"""

from __future__ import annotations

import socket
import threading
import time
from itertools import chain
from typing import Any, Callable, Collection, Iterable, Optional, Sequence

from ..db.database import Database
from ..errors import SyncError
from ..obs.runtime import OBS
from ..obs.trace import SpanContext
from ..retry import RetryPolicy
from . import protocol
from .memtable import MemoryTable, RowPredicate
from .notification import NotificationCenter
from .server import SyncServer

Row = dict[str, Any]

#: Callback invoked (table, op, seq_no) whenever a NOTIFY arrives.
NotifyHook = Callable[[str, str, int], None]

#: Callback invoked (status, reason) on every connection-state change.
StatusHook = Callable[[str, str], None]

# Connection states (the ``status`` property).
IDLE = "idle"  # socket mode, nothing mirrored yet
CONNECTED = "connected"  # live callback connection
RECONNECTING = "reconnecting"  # transport lost, backoff in progress
DEGRADED = "degraded"  # gave up on sockets; polling the center
POLLING = "polling"  # in-process mode by construction
CLOSED = "closed"


def default_reconnect_policy() -> RetryPolicy:
    """Backoff used when none is supplied: 6 tries over ~1.5 s."""
    return RetryPolicy(
        max_attempts=6,
        base_delay=0.05,
        multiplier=2.0,
        max_delay=0.5,
        jitter=0.5,
        retryable=(OSError, SyncError),
    )


class SyncClient:
    """A visualization host's connection manager plus its R_M tables."""

    def __init__(
        self,
        server: SyncServer,
        host: str = "127.0.0.1",
        user_id: Optional[int] = None,
        reconnect: Optional[RetryPolicy] = None,
        auto_reconnect: bool = True,
        heartbeat_timeout: Optional[float] = None,
    ) -> None:
        self.server = server
        self.database: Database = server.database
        self.center: NotificationCenter = server.center
        self.host = host
        self.user_id = user_id
        self.auto_reconnect = auto_reconnect
        self.reconnect_policy = reconnect or default_reconnect_policy()
        if heartbeat_timeout is None and server.heartbeat_interval is not None:
            # Give the server's pinger generous slack before declaring death.
            heartbeat_timeout = server.heartbeat_interval * 8
        self.heartbeat_timeout = heartbeat_timeout
        self._tables: dict[str, MemoryTable] = {}
        self._cu_ids: dict[str, int] = {}
        self._dirty: set[str] = set()
        # Notified on every raised flag; ``_intakes`` counts them, so a
        # waiter that read the set can tell whether one landed since.
        self._dirty_lock = threading.Condition()
        self._intakes = 0
        # Per-table refresh serialization: the RefreshDriver's loop and an
        # explicit flush() may call refresh concurrently; without this
        # both would take the same changes_since snapshot and apply it
        # twice.
        self._refresh_locks: dict[str, threading.Lock] = {}
        self._refresh_locks_guard = threading.Lock()
        self.notify_received = 0
        self.batch_notifies_received = 0
        self._hooks: list[NotifyHook] = []
        self._status_hooks: list[StatusHook] = []
        self._listener: Optional[socket.socket] = None
        self._reader: Optional[threading.Thread] = None
        self._stream: Optional[protocol.MessageStream] = None
        self.port = 0
        self._closed = False
        # Guards ``status`` (see _set_status) and wakes wait_status.
        self._state_lock = threading.Condition()
        self.connection_lost_reason: Optional[str] = None
        # Counters (tests and dashboards read these).
        self.reconnects = 0
        self.replayed_notifications = 0
        self.pongs_sent = 0
        #: Real (non-shutdown) accept failures on the callback listener.
        self.accept_failures = 0
        #: Hook invocations that raised (and were contained); a failing
        #: observer must never take the reader down with it.
        self.hook_failures = 0
        #: table -> span context of the last completed refresh, so later
        #: pipeline stages (layout, display) can join the trace.
        self._refresh_contexts: dict[str, Any] = {}
        #: table -> (seq_no, (trace_id, span_id, sent_ns)) decoded from
        #: the newest NOTIFY/NOTIFYB frame's ``ctx`` field.  This is the
        #: *cross-socket* trace bridge: unlike the tracer's link
        #: registry it needs no shared memory with the server side.
        self._frame_contexts: dict[str, tuple[int, tuple[int, int, int]]] = {}
        if server.use_sockets:
            self._set_status(IDLE)
            self._open_listener()
        else:
            # In-process transport: dirty flags come straight from the
            # notification center instead of a socket reader thread.
            self._set_status(POLLING)
            self.center.add_batch_listener(self._on_local_notify)

    def _on_local_notify(self, table: str, events: list[tuple[str, int]]) -> None:
        if table not in self._tables:
            return
        if OBS.enabled:
            OBS.metrics.counter("sync.client.messages", type="notify").inc(len(events))
        self._intake(table, events)

    def _intake(self, table: str, events: Sequence[tuple[str, int]]) -> None:
        """Take in ``(op, seq_no)`` notifications of ``table``, however
        they arrived (a NOTIFY or NOTIFYB frame, the center's listener, a
        reconnect's replay): count them and raise the dirty flag, as one
        step, then fire the notify hooks.

        The count and the flag land once the database lock is free: the
        sending commit publishes under it, so a refresher woken earlier
        would only take the GIL from the writer and then block on that
        lock.  With heartbeats on, the wait is bounded by one interval --
        this reader answers the PINGs too.

        Hooks are user code running on the liveness-critical thread (the
        socket reader, also during recovery); their failures are contained,
        one raising observer must not kill delivery for everyone else.
        """
        bound = self.server.heartbeat_interval
        held = self.database.lock.acquire(timeout=-1 if bound is None else bound)
        self._flag((table,), received=len(events))
        if held:
            self.database.lock.release()
        for op, seq_no in events:
            for hook in list(self._hooks):
                try:
                    hook(table, op, seq_no)
                except Exception:
                    self.hook_failures += 1
                    OBS.metrics.counter(
                        "sync.client.hook_failures", kind="notify"
                    ).inc()

    def _flag(self, tables: Iterable[str], received: int = 0) -> None:
        """Raise dirty flags and wake every waiter (RefreshDriver,
        wait_dirty); ``received`` notifications are counted in the same
        step, so a reader of ``notify_received`` finds their flags up."""
        with self._dirty_lock:
            self.notify_received += received
            self._dirty.update(tables)
            self._intakes += 1
            self._dirty_lock.notify_all()

    # ------------------------------------------------------------------
    # Status surface
    @property
    def connection_lost(self) -> bool:
        """True while the socket path is down (reconnecting or degraded)."""
        return self.status in (RECONNECTING, DEGRADED)

    def on_notify(self, hook: NotifyHook) -> None:
        """Register a callback fired on every incoming NOTIFY."""
        self._hooks.append(hook)

    def on_status(self, hook: StatusHook) -> None:
        """Register a callback fired on every connection-state change."""
        self._status_hooks.append(hook)

    def _set_status(self, status: str) -> None:
        """The one writer of ``status``; wakes :meth:`wait_status`.  Callers
        that test-and-set hold ``_state_lock`` (reentrant) around it and
        announce the change with :meth:`_fire_status_hooks` outside it."""
        with self._state_lock:
            self.status = status
            self._state_lock.notify_all()

    def _fire_status_hooks(self, status: str, reason: str) -> None:
        for hook in list(self._status_hooks):
            # Status hooks run on the reader, mid-recovery; a hook that
            # raises must not abort recovery or skip later hooks.
            try:
                hook(status, reason)
            except Exception:
                self.hook_failures += 1
                OBS.metrics.counter("sync.client.hook_failures", kind="status").inc()

    # ------------------------------------------------------------------
    def _open_listener(self) -> None:
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host, 0))
        listener.listen(4)
        self._listener = listener
        self.port = listener.getsockname()[1]

    def _accept_callback_connection(self, timeout: float) -> protocol.MessageStream:
        """Accept the DBMS's call-back connection and handshake (step 6)."""
        assert self._listener is not None
        try:
            self._listener.settimeout(timeout)
            sock, _addr = self._listener.accept()
        except socket.timeout:
            raise SyncError("DBMS never connected back") from None
        except OSError as exc:
            # A mid-accept OSError is expected exactly once: when close()
            # tears down the listener under us.  Anything else is a real
            # accept failure (fd exhaustion, listener died) and must be
            # visible, not folded into the shutdown path.
            if self._closed:
                raise SyncError("listener closed during shutdown") from None
            self.accept_failures += 1
            OBS.metrics.counter("sync.client.accept_failures").inc()
            raise SyncError(f"listener unusable: {exc}") from None
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        stream = protocol.MessageStream(sock)
        protocol.client_handshake(stream)
        return stream

    def _read_loop(self, stream: protocol.MessageStream) -> None:
        """The link's one thread: read until the stream errors, closes or
        stays silent past ``heartbeat_timeout``, then recover it and exit."""
        lost: Optional[str] = None
        while lost is None and not self._closed:
            try:
                message = stream.receive(timeout=self.heartbeat_timeout)
            except Exception as exc:
                # receive() re-raises the socket's timeout as a protocol
                # error; that timeout is the heartbeat deadline.
                silent = isinstance(exc.__context__, socket.timeout)
                lost = "heartbeat timeout" if silent else f"read failed: {exc}"
                break
            kind = message["type"]
            if OBS.enabled:
                # Lowercase so socket and in-process paths share series.
                OBS.metrics.counter("sync.client.messages", type=kind.lower()).inc()
            if kind == protocol.NOTIFY:
                table, seq_no = message["table"], message.get("seq_no", 0)
                self._note_frame_context(table, seq_no, message)
                self._intake(table, [(message.get("op", ""), seq_no)])
            elif kind == protocol.NOTIFY_BATCH:
                table = message["table"]
                try:
                    events = protocol.batch_events(message)
                except SyncError:
                    # Malformed frame from a confused peer: the dirty
                    # flag still forces a pull, so nothing is lost.
                    events = []
                self.batch_notifies_received += 1
                self._note_frame_context(table, message.get("hi", 0), message)
                self._intake(table, events)
            elif kind == protocol.PING:
                # Count before sending: once the frame is on the wire the
                # server (or a test polling its pongs_received) may observe
                # it ahead of this thread's next statement.  On send
                # failure the link is torn down anyway, so one phantom
                # count never survives a healthy run.
                self.pongs_sent += 1
                try:
                    stream.send(protocol.pong(message.get("seq", 0)))
                except OSError as exc:
                    lost = f"pong send failed: {exc}"
            elif kind == protocol.DISCONNECT:
                lost = "server sent DISCONNECT"
        if lost is not None and not self._closed and stream is self._stream:
            self._connection_lost(lost)

    # ------------------------------------------------------------------
    # Connection-loss recovery, run by the lost link's reader
    def _connection_lost(self, reason: str) -> None:
        """Recover from a transport death: flag, announce, reconnect or degrade."""
        with self._state_lock:
            # A successor reader that lost its stream before the recovery
            # that started it said CONNECTED lets that recovery land first.
            self._state_lock.wait_for(lambda: self.status != RECONNECTING)
            if self._closed or self.status not in (CONNECTED, IDLE):
                return
            stale = self._stream
            self._stream = None
            self.connection_lost_reason = reason
            self._set_status(RECONNECTING)
        # Rare event: always counted, enabled or not.
        OBS.metrics.counter("sync.client.connection_lost").inc()
        if stale is not None:
            stale.close()
        # A dead link means *unknown* staleness: flag every mirror so
        # dirty_tables()/RefreshDriver consumers pull rather than trust.
        self._flag(self._tables)
        self._fire_status_hooks(RECONNECTING, reason)
        if self.auto_reconnect:
            self._reconnect_loop()
        else:
            self._degrade(f"auto_reconnect disabled ({reason})")

    def _reconnect_loop(self) -> None:
        policy = self.reconnect_policy
        last_error: Optional[BaseException] = None
        for attempt in policy.attempts():
            if self._closed:
                return
            try:
                # Rendezvous with the server's connect-back, exactly like
                # the initial registration.
                self._rendezvous(
                    lambda: self.server.reconnect_client(self.host, self.port), 2.0
                )
            except Exception as exc:
                last_error = exc
                continue
            with self._state_lock:
                if self._closed:
                    return
                self.reconnects += 1
                self._set_status(CONNECTED)
            OBS.metrics.counter("sync.client.reconnects").inc()
            self._replay_missed()
            reason = f"reconnected on attempt {attempt.number}"
            self._fire_status_hooks(CONNECTED, reason)
            return
        self._degrade(
            f"reconnect failed after {policy.max_attempts} attempts: {last_error}"
        )

    def _rendezvous(self, call: Callable[[], Any], timeout: float) -> Any:
        """Run ``call`` -- a server request that connects back to this
        client -- on a helper thread while this thread accepts the
        call-back connection (``timeout`` bounds the accept); returns
        what ``call`` returned.  Once the helper is done, the accepted
        stream gets its reader.

        A failure on either side raises, the server's in preference, and
        only once the server is done: a registration it rolled back leaves
        no ConnectedUser row behind the raise.
        """
        result: dict[str, Any] = {}

        def run() -> None:
            try:
                result["value"] = call()
            except Exception as exc:
                result["error"] = exc

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        stream: Optional[protocol.MessageStream] = None
        failure: Optional[Exception] = None
        try:
            stream = self._accept_callback_connection(timeout=timeout)
        except (OSError, SyncError) as exc:
            failure = exc
        thread.join(timeout=5.0)
        failure = result.get("error", failure)
        if failure is not None:
            if stream is not None:
                stream.close()
            raise failure
        self._stream = stream
        self._reader = threading.Thread(
            target=self._read_loop, args=(stream,), daemon=True
        )
        self._reader.start()
        return result["value"]

    def _replay_missed(self) -> None:
        """Seq-no catch-up: re-deliver every notification that fired while
        the transport was down (the paper's "purge only below every
        client's last_seq_no" invariant guarantees they still exist)."""
        for table, memtable in list(self._tables.items()):
            missed = self.center.notifications_since(table, memtable.last_seq_no)
            if missed:
                self.replayed_notifications += len(missed)
                self._intake(table, [(op, seq_no) for seq_no, op in missed])

    def _degrade(self, reason: str) -> None:
        """Fall back to polling the NotificationCenter in-process.

        Views keep refreshing -- dirty flags now come from the center's
        listener fan-out and :meth:`refresh` never needed the socket --
        but the condition is flagged (``status == "degraded"``) so
        operators know the push path is gone."""
        with self._state_lock:
            if self._closed or self.status == DEGRADED:
                return
            self._set_status(DEGRADED)
        OBS.metrics.counter("sync.client.degrades").inc()
        self.center.add_batch_listener(self._on_local_notify)
        self._replay_missed()
        self._fire_status_hooks(DEGRADED, reason)

    # ------------------------------------------------------------------
    def mirror(
        self,
        table: str,
        fraction: float = 1.0,
        predicate: Optional[RowPredicate] = None,
        prefill: bool = True,
    ) -> MemoryTable:
        """Create R_M for ``table`` and register with the DBMS (steps 1-6)."""
        if table in self._tables:
            raise SyncError(f"table {table!r} is already mirrored")
        memtable = MemoryTable(table, fraction=fraction, predicate=predicate)
        self._tables[table] = memtable
        first_socket_table = (
            self.server.use_sockets and self._stream is None and self.status == IDLE
        )
        if first_socket_table:
            # Register, and accept the call-back connection the server
            # opens during register_client.  A registration whose link
            # never came is dropped: its row would pin the purge horizon.
            registered: list[int] = []

            def register() -> int:
                registered.append(
                    self.server.register_client(table, self.host, self.port, self.user_id)
                )
                return registered[0]

            try:
                self._cu_ids[table] = self._rendezvous(register, timeout=5.0)
            except Exception:
                del self._tables[table]
                for cu_id in registered:
                    self.server.unregister_client(cu_id)
                raise
            self._set_status(CONNECTED)
        else:
            self._cu_ids[table] = self.server.register_client(
                table, self.host, self.port, self.user_id
            )
        if prefill:
            self.refresh(table, full=True)
        return memtable

    def table(self, name: str) -> MemoryTable:
        try:
            return self._tables[name]
        except KeyError:
            raise SyncError(f"table {name!r} is not mirrored") from None

    # ------------------------------------------------------------------
    def dirty_tables(self) -> set[str]:
        """Tables with NOTIFYs not yet refreshed (socket mode).

        While the connection is lost every mirrored table reports dirty:
        without a transport the client cannot rule out missed changes."""
        with self._dirty_lock:
            return set(self._dirty)

    def wait_dirty(self, table: str, timeout: float = 5.0) -> bool:
        """Block until ``table`` is flagged dirty; False after ``timeout``
        seconds.  The raised flag itself wakes the caller."""
        with self._dirty_lock:
            return self._dirty_lock.wait_for(lambda: table in self._dirty, timeout)

    def wait_status(self, status: str, timeout: float = 5.0) -> bool:
        """Block until the client reaches ``status``; False after
        ``timeout`` seconds.  The status change itself wakes the caller."""
        with self._state_lock:
            return self._state_lock.wait_for(lambda: self.status == status, timeout)

    def refresh(self, table: str, full: bool = False) -> dict[str, int]:
        """Step 8: pull changed rows from R_D and fold them into R_M.

        Returns counters: ``upserts``, the changed rows pulled (each
        once, however many events touched it), and ``deletes``, the
        changed rows gone by now.  With ``full=True``, the entire table is
        pulled (initial fill).

        This path never touches the notification socket -- it reads the
        database directly -- so it keeps working while the client is
        reconnecting or degraded (stale-but-consistent views, then
        convergence, rather than a frozen display).

        Refreshes of one table are serialized: the RefreshDriver's loop
        and an explicit ``flush()`` would otherwise race, take the same
        seq snapshot, and apply the same delta twice.
        """
        with self._refresh_lock(table):
            traced = OBS.enabled
            with OBS.span("sync.mirror_refresh", {"table": table, "full": full}) as span:
                memtable = self.table(table)
                base = self.database.table(table)
                # Clear the flag before the pull, not after it: a commit
                # before the pull is pulled, one after it raises the flag
                # again (at worst a refresh that pulls nothing).
                with self._dirty_lock:
                    self._dirty.discard(table)
                try:
                    # One critical section: the notification horizon and the row
                    # images are of one committed state -- never part of a
                    # commit, never an open transaction's.  So a changed row's
                    # image now is all a replay of its events would leave:
                    # each is read, and folded, once.
                    with self.database.lock:
                        events = self.center.events_since(table, memtable.last_seq_no)
                        newest = events[-1][0] if events else memtable.last_seq_no
                        if full:
                            # The whole table, and what the mirror holds
                            # that the table no longer has.
                            tids: Collection[int] = dict.fromkeys(
                                chain(base.tids(), memtable.tids())
                            )
                        elif len(events) == 1:
                            tids = events[0][2]
                        else:
                            tids = dict.fromkeys(chain.from_iterable(e[2] for e in events))
                        upserts: list[Any] = base.images(tids)
                    deletes: Sequence[int] = ()
                    if None in upserts:
                        # Changed, and gone by now.
                        deletes = [t for t, row in zip(tids, upserts) if row is None]
                        upserts = [row for row in upserts if row is not None]
                    memtable.apply_batch(upserts, deletes)
                    stats = {"upserts": len(upserts), "deletes": len(deletes)}
                    moved = newest != memtable.last_seq_no
                    memtable.last_seq_no = newest
                except BaseException:
                    self._flag((table,))  # nothing consumed: still dirty
                    raise
                if traced:
                    self._join_notify_trace(span, table, newest)
                if moved:
                    # The ConnectedUser cursor already says so otherwise:
                    # an idle refresh is no commit.
                    self.server.update_client_seq(self._cu_ids[table], newest)
                span.set_tag("upserts", stats["upserts"])
                span.set_tag("deletes", stats["deletes"])
            if traced:
                OBS.metrics.histogram("sync.refresh_ms", table=table).observe(
                    span.duration_ms
                )
                self._refresh_contexts[table] = span.context()
            return stats

    def _refresh_lock(self, table: str) -> threading.Lock:
        with self._refresh_locks_guard:
            lock = self._refresh_locks.get(table)
            if lock is None:
                lock = self._refresh_locks[table] = threading.Lock()
            return lock

    def last_refresh_context(self, table: str) -> Optional[Any]:
        """Span context of the latest traced refresh of ``table``.

        Lets downstream pipeline stages (the refresh driver's listeners:
        delta handlers, layout, display) join the propagation trace.
        Returns ``None`` when tracing is off or no refresh ran yet.
        """
        return self._refresh_contexts.get(table)

    def _note_frame_context(
        self, table: str, seq_no: int, message: dict[str, Any]
    ) -> None:
        """Remember the newest frame-carried trace context for ``table``.

        Called from the socket read loop on every NOTIFY/NOTIFYB; with
        tracing off the server sends no ``ctx`` field and this is a no-op.
        """
        ctx = protocol.frame_trace_context(message)
        if ctx is None:
            return
        with self._dirty_lock:
            previous = self._frame_contexts.get(table)
            if previous is None or seq_no >= previous[0]:
                self._frame_contexts[table] = (seq_no, ctx)

    def _join_notify_trace(self, span: Any, table: str, newest: int) -> None:
        """Adopt the notify span that produced ``newest`` as our parent.

        The notification protocol shares no thread or call stack with
        the refresh, so the parent context must arrive out of band.
        Preferred bridge: the ``ctx`` field the server puts on
        NOTIFY/NOTIFYB frames (works across real sockets, no shared
        memory).  Fallback: the in-process link registry keyed
        ``(table, seq_no)`` -- polling mode, replayed notifications, a
        refresh that outran its frame.  Either bridge's origin timestamp
        yields the NOTIFY -> mirror-applied latency.
        """
        with self._dirty_lock:
            stored = self._frame_contexts.get(table)
        if stored is not None and stored[0] >= newest:
            # A frame covering this refresh's horizon already arrived.
            seq, (trace_id, span_id, sent_ns) = stored
            span.set_parent(SpanContext(trace_id, span_id))
            span.set_tag("ctx_source", "frame")
            self._observe_notify_latency(table, sent_ns)
            return
        linked = OBS.tracer.lookup_link(("notify", table, newest))
        if linked is not None:
            context, registered_at_ns = linked
            span.set_parent(context)
            span.set_tag("ctx_source", "link")
            self._observe_notify_latency(table, registered_at_ns)
            return
        if stored is not None:
            # The refresh outran the socket (the write is visible in the
            # database but its frame is still in flight): the latest
            # received frame is the best-known origin.
            seq, (trace_id, span_id, sent_ns) = stored
            span.set_parent(SpanContext(trace_id, span_id))
            span.set_tag("ctx_source", "frame")
            self._observe_notify_latency(table, sent_ns)

    @staticmethod
    def _observe_notify_latency(table: str, origin_ns: int) -> None:
        OBS.metrics.histogram("sync.notify_to_applied_ms", table=table).observe(
            (time.perf_counter_ns() - origin_ns) / 1e6
        )

    # ------------------------------------------------------------------
    def write_back(self, table: str, tid: int, column: str, value: Any) -> None:
        """Step 9: propagate a local R_M edit to R_D.

        The database is written first; once that UPDATE committed, the
        mirror holds the image it returned.  The DBMS-side trigger will
        emit a NOTIFY for this change, and the refresh it prompts finds
        that very image held: the echo is processed "in a smart way to
        avoid redundant work".  A write the database rejects leaves the
        mirror as it was.  The table's refresh lock spans both steps, so
        no refresh folds an older image over the new one in between.

        While a transaction block is open the UPDATE may return before
        its commit: the mirror then leaves the edit to the refresh after
        the commit (after a rollback there is nothing to pull).
        """
        memtable = self.table(table)
        if memtable.get(tid) is None:
            raise SyncError(f"R_M for {table!r} holds no row with tid {tid}")
        if self.database.in_transaction():
            self.database.update_by_tid(table, tid, {column: value})
            return
        with self._refresh_lock(table):
            memtable.hold(self.database.update_by_tid(table, tid, {column: value}))

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Step 10: disconnect and remove ConnectedUser entries."""
        with self._state_lock:
            if self._closed:
                return
            self._closed = True
            was_polling = self.status in (POLLING, DEGRADED)
            self._set_status(CLOSED)
        if was_polling:
            self.center.remove_batch_listener(self._on_local_notify)
        for table, cu_id in self._cu_ids.items():
            self.server.unregister_client(cu_id)
        self._cu_ids.clear()
        self._tables.clear()
        if self._stream is not None:
            self._stream.close()
        if self._listener is not None:
            self._listener.close()
