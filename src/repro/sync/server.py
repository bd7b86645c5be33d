"""DBMS-side connection manager and NOTIFY dispatcher.

Implements steps 4, 5, 7 and 11 of the Section VI-C protocol: clients
register a ``(db, R_D, ip, port)`` quadruplet in the ConnectedUser table;
the DBMS connects back to each client's listening socket, handshakes, and
thereafter pushes one compact NOTIFY message per statement-level change
to a watched table.

Fault tolerance (beyond the paper, which assumes a reliable LAN): each
callback connection is a *detachable endpoint*.  The server pings it
every ``heartbeat_interval`` seconds and consumes the client's PONGs; a
send failure, read EOF, or prolonged PONG silence **detaches** the
endpoint -- the ConnectedUser rows and their ``last_seq_no`` survive, so
notifications keep accumulating on the server and the purge horizon
(step 11) protects everything the client has not consumed.  A detached
client later calls :meth:`reconnect_client` to attach a fresh stream and
replays what it missed from ``NotificationCenter.notifications_since``.
The ConnectedUser table is the one record of who mirrors what (a
restarted server inherits its rows as detached registrations); a row is
dropped only by :meth:`unregister_client` / :meth:`close` (or an
operator calling :meth:`evict_detached`).  The server counts no
deliveries: the Notification log and each client's ``last_seq_no`` are
the one record of what a client has consumed.

Delivery: a single-threaded :mod:`selectors` event loop owns every
callback socket in non-blocking mode.  A flush encodes its one
NOTIFY/NOTIFYB frame **once** and appends it **once** to its table's
send log; each subscriber reads that log through its own byte cursor,
and one drain routine sends every subscriber what lies past its cursor
(subscribers at one cursor share one buffer).  The notifying thread runs
the drain inline on a quiet plane (a healthy link's frame is written
before the commit returns); a burst leaves it to the loop, which also
finishes writes the kernel pushed back.  The log keeps only bytes some
subscriber has not sent.  A cursor that lags past the frame or byte bound
in its log means the client reads slower than the system writes: it
**collapses** to the log's newest frame (counted in
:attr:`SyncServer.evictions`), whose seq-no makes the client's refresh
pull every skipped event, and the connection stays up.
PINGs, PONGs and DISCONNECTs ride the same loop -- the server starts no
thread other than ``ediflow-sync-loop``.
"""

from __future__ import annotations

import selectors
import socket
import threading
import time
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Optional

from ..core import datamodel
from ..db.database import Database
from ..db.expression import col
from ..errors import ProtocolError, SyncError
from ..obs.metrics import Histogram
from ..obs.runtime import OBS
from . import protocol
from .notification import NotificationCenter

#: Optional wrapper applied to every callback stream the server opens --
#: the fault-injection hook (see :mod:`repro.sync.faults`).  It returns a
#: stream, whose socket the event loop adopts after the handshake.
TransportFactory = Callable[[protocol.MessageStream], protocol.MessageStream]

#: Per-subscriber cost estimate of an inline fan-out write.  Broadcasts
#: arriving faster than ``links * BURST_COST_PER_LINK_S`` since the
#: previous one only append to their send log and leave the drain to the
#: event loop: the log builds for a moment and one drain sends every
#: subscriber many frames per ``send()`` syscall.  At one or two mirrors
#: the window is tens of microseconds (every realistic write path stays
#: inline); at 1k mirrors a burst switches to the loop after the first
#: flush.
BURST_COST_PER_LINK_S = 50e-6
#: Upper bound on one coalesced write (matches the protocol's frame cap;
#: large enough to merge hundreds of NOTIFYs, small enough to keep a
#: single ``send()`` from monopolizing the loop).
COALESCE_BYTES = protocol.MAX_MESSAGE_BYTES
#: Bytes a client may lag behind in one send log past which it skips to
#: the log's newest frame (as past ``max_queue_frames`` frames).
MAX_QUEUE_BYTES = 4 << 20
#: Seconds :meth:`SyncServer.close` waits for every connection to reach
#: the end of its send logs.
DRAIN_TIMEOUT = 2.0


def _at(row: dict[str, Any]) -> tuple[str, int]:
    """The (host, port) a ConnectedUser row registers."""
    return row["host"], row["port"]


@dataclass
class _Endpoint:
    """One callback connection to a client process, live or detached
    (shared by every ConnectedUser row at its host and port)."""

    host: str
    port: int
    #: ``time.monotonic()`` of the last inbound message (PONG).
    last_rx: float = 0.0
    ping_seq: int = 0
    #: ``time.monotonic()`` of the last PING sent (for PONG RTT).
    last_ping_at: float = 0.0
    #: When the endpoint detached (for :meth:`SyncServer.evict_detached`).
    detached_at: Optional[float] = None
    #: The event-loop connection state (it owns the live transport), or
    #: ``None`` while detached.
    conn: Optional["_AsyncConn"] = None


class _SendLog:
    """One table's outgoing frames, each appended once for every subscriber.

    ``buf`` holds the bytes some subscriber has not sent; ``base`` and
    ``end`` are the absolute offsets of its first byte and one past its
    last, so a cursor is an absolute offset that survives a trim.
    ``ends[i]`` is the i-th retained frame's end offset.
    ``subscribers`` is a tuple, replaced on change: a drain iterates a
    snapshot.  Drains send copies (:meth:`read`), never a view of
    ``buf``, which would stop the next append from growing it.
    ``prefix`` is the table's untraced NOTIFY up to its seq-no.
    """

    __slots__ = (
        "lock", "buf", "base", "end", "ends", "subscribers", "scheduled", "read_at",
        "chunk", "prefix",
    )

    def __init__(self, table: str) -> None:
        self.prefix = protocol.notify_prefix(table)
        self.lock = threading.Lock()
        self.buf = bytearray()
        self.base = 0
        self.end = 0
        self.ends: list[int] = []
        self.subscribers: tuple[_AsyncConn, ...] = ()
        #: True while a loop drain is submitted and has not started.
        self.scheduled = False
        #: The last copy :meth:`read` made, and the cursor it starts at.
        self.read_at = -1
        self.chunk = bytearray()

    def read(self, cursor: int) -> tuple[bytearray, int]:
        """``(bytes past cursor, frames past cursor)``.  The bytes are a
        copy of whole frames, at most ``COALESCE_BYTES`` of them (a frame
        is never longer), so a cursor only ever rests between frames;
        readers at one cursor share the copy."""
        with self.lock:
            first = bisect_right(self.ends, cursor)
            if cursor != self.read_at:
                stop = self.ends[bisect_right(self.ends, cursor + COALESCE_BYTES) - 1]
                self.read_at = cursor
                self.chunk = self.buf[cursor - self.base : stop - self.base]
            return self.chunk, len(self.ends) - first

    def trim(self) -> None:
        """Drop every byte and frame below the lowest cursor."""
        with self.lock:
            low = min(
                (conn.cursors.get(self, self.end) for conn in self.subscribers),
                default=self.end,
            )
            if low > self.base:
                del self.buf[: low - self.base]
                self.base = low
                del self.ends[: bisect_right(self.ends, low)]
                if self.read_at < low:
                    self.read_at, self.chunk = -1, bytearray()


class _AsyncConn:
    """Event-loop state for one callback socket.

    ``lock`` guards the cursors and the staged chunks; it is taken by
    notifying threads (inline drains) and by the loop, never while
    holding the server registry lock.  Lock order: ``conn.lock`` before
    a log's ``lock``.

    ``cursors`` holds one absolute byte offset per send log the
    connection reads.  ``pending`` holds chunks to send before the next
    log byte: a control frame (PING, DISCONNECT), or the unsent tail of a
    partial write (so a frame begun is finished before any other starts).
    """

    __slots__ = (
        "sock", "endpoint", "transport", "lock", "cursors", "pending",
        "pending_frames", "pending_bytes", "rbuf", "closing", "want_write",
        "events", "hiwat_frames", "hiwat_bytes",
    )

    def __init__(
        self, sock: Any, endpoint: _Endpoint, transport: Any, rbuf: bytes
    ) -> None:
        self.sock = sock
        self.endpoint = endpoint
        self.transport = transport
        self.lock = threading.Lock()
        self.cursors: dict[_SendLog, int] = {}
        self.pending: deque[bytes] = deque()
        #: Frames ending in ``pending`` (each frame ends with a newline).
        self.pending_frames = 0
        self.pending_bytes = 0
        #: Bytes received but not yet framed into a message.
        self.rbuf = rbuf
        #: Set once the connection is retired; nothing more is sent.
        self.closing = False
        #: True while the loop has been asked to drain this connection.
        self.want_write = False
        #: Selector interest mask currently registered for this socket
        #: (loop thread only; lets no-op interest changes skip epoll_ctl).
        self.events = 0
        #: Lag high watermarks (saturation telemetry): the furthest this
        #: connection has been seen behind at a drain, in frames and bytes.
        self.hiwat_frames = 0
        self.hiwat_bytes = 0

    def lag(self) -> tuple[int, int]:
        """``(frames, bytes)`` this connection has yet to send."""
        frames, nbytes = self.pending_frames, self.pending_bytes
        for log, cursor in list(self.cursors.items()):
            with log.lock:
                frames += len(log.ends) - bisect_right(log.ends, cursor)
            nbytes += log.end - cursor
        return frames, nbytes

    def trim(self) -> None:
        """Let each log this connection reads drop what all its readers sent."""
        for log in list(self.cursors):
            log.trim()

    def note_depth(self, frames: int, nbytes: int) -> None:
        """Record the high watermarks (lag at a drain or at retirement)."""
        self.hiwat_frames = max(self.hiwat_frames, frames)
        self.hiwat_bytes = max(self.hiwat_bytes, nbytes)

    def stage(self, chunk: bytes) -> None:
        """Queue ``chunk`` ahead of the next log byte; caller holds ``lock``."""
        self.pending.append(chunk)
        self.pending_frames += chunk.count(b"\n")
        self.pending_bytes += len(chunk)


class _EventLoop:
    """The single thread that owns every callback socket.

    Readiness-driven: readable sockets feed PONG/DISCONNECT frames back
    to the server, writable sockets get what lies past their cursors.  A
    non-blocking socketpair doubles as the wake-up pipe for the
    thread-safe command queue (attach/detach/interest changes all hop
    onto the loop so selector state has a single owner).
    """

    def __init__(self, server: "SyncServer") -> None:
        self._server = server
        self._selector = selectors.DefaultSelector()
        self._rwake, self._wwake = socket.socketpair()
        self._rwake.setblocking(False)
        self._wwake.setblocking(False)
        self._selector.register(self._rwake, selectors.EVENT_READ, None)
        #: ``(fn, enqueued_at_ns)`` pairs; the enqueue timestamp feeds
        #: the scheduled-wake-to-serviced lag histogram below.
        self._commands: deque[tuple[Callable[[], None], int]] = deque()
        self._stop = threading.Event()
        self._conns: set[_AsyncConn] = set()
        #: Connections whose socket holds its bytes back until its
        #: ``not_before`` (a fault-injected delay): the one per-link timer.
        self._delayed: set[_AsyncConn] = set()
        self._thread = threading.Thread(
            target=self._run, name="ediflow-sync-loop", daemon=True
        )
        # Saturation accounting -- always on.  The cost is a few clock
        # reads and integer adds per loop *iteration* (not per event or
        # per delivered frame), so it is invisible next to the selector
        # syscall each iteration already pays.
        #: Loop iterations completed.
        self.iterations = 0
        #: Commands executed off the submit queue.
        self.commands_run = 0
        #: ns spent blocked in ``select()`` (the loop's idle headroom).
        self._poll_ns = 0
        #: ns spent doing work between selects.
        self._busy_ns = 0
        #: submit() -> executed delta: how long a cross-thread request
        #: waited for the loop.  This is the single best saturation
        #: signal -- an overloaded loop services its wake pipe late.
        self.lag_hist = Histogram("sync.loop.lag_ms")
        #: Per-iteration working time (select excluded).
        self.iter_hist = Histogram("sync.loop.iteration_ms")
        #: Heartbeat timer fires serviced by this loop.
        self.timer_fires = 0

    def start(self) -> None:
        self._thread.start()

    def submit(self, fn: Callable[[], None]) -> None:
        """Run ``fn`` on the loop thread at the next iteration."""
        self._commands.append((fn, time.perf_counter_ns()))
        self.wake()

    def wake(self) -> None:
        try:
            self._wwake.send(b"\x00")
        except OSError:
            pass

    def stop(self, join: bool = True) -> None:
        self._stop.set()
        self.wake()
        if join and self._thread.is_alive():
            self._thread.join(timeout=2.0)

    # -- loop thread ----------------------------------------------------
    def _run(self) -> None:
        interval = self._server.heartbeat_interval
        tick = 0.05 if interval is None else min(0.05, interval / 2.0)
        last_beat = time.monotonic()
        try:
            while not self._stop.is_set():
                try:
                    select_at = time.perf_counter_ns()
                    events = self._selector.select(timeout=tick)
                    woke_at = time.perf_counter_ns()
                    self._poll_ns += woke_at - select_at
                    for key, mask in events:
                        if key.data is None:
                            self._drain_wake()
                            continue
                        conn = key.data
                        if mask & selectors.EVENT_READ:
                            self._handle_read(conn)
                        if mask & selectors.EVENT_WRITE:
                            self.service_conn(conn)
                    while self._commands:
                        fn, enqueued_ns = self._commands.popleft()
                        self.lag_hist.observe(
                            (time.perf_counter_ns() - enqueued_ns) / 1e6
                        )
                        fn()
                        self.commands_run += 1
                    if self._delayed:
                        now = time.monotonic()
                        for conn in list(self._delayed):
                            if conn.sock.not_before <= now:
                                self._delayed.discard(conn)
                                self.service_conn(conn)
                    if interval is not None:
                        now = time.monotonic()
                        if now - last_beat >= interval:
                            last_beat = now
                            self.timer_fires += 1
                            self._server._heartbeat_tick()
                    done_at = time.perf_counter_ns()
                    self._busy_ns += done_at - woke_at
                    self.iter_hist.observe((done_at - woke_at) / 1e6)
                    self.iterations += 1
                except Exception:
                    if self._stop.is_set():
                        break
                    # A loop crash would silently freeze every client;
                    # count it and keep serving (the offending conn, if
                    # any, dies on its next readiness event).
                    self._server.loop_errors += 1
                    OBS.metrics.counter("sync.server.loop_errors").inc()
        finally:
            try:
                self._selector.close()
            except OSError:
                pass
            for sock in (self._rwake, self._wwake):
                try:
                    sock.close()
                except OSError:
                    pass

    def _drain_wake(self) -> None:
        try:
            while self._rwake.recv(4096):
                pass
        except (BlockingIOError, InterruptedError):
            pass
        except OSError:
            pass

    def add_conn(self, conn: _AsyncConn) -> None:
        """Register a fresh connection (loop thread only)."""
        if self._stop.is_set():
            return
        try:
            fd = conn.sock.fileno()
        except OSError:
            fd = -1
        if fd < 0:
            self._server._conn_dead(conn)
            return
        stale = self._selector.get_map().get(fd)
        if stale is not None:
            # The previous owner of this fd was closed behind our back
            # (tests kill sockets directly); evict the stale entry so the
            # kernel-reused fd maps to the right connection.
            try:
                self._selector.unregister(stale.fileobj)
            except (KeyError, ValueError, OSError):
                pass
            if stale.data is not None:
                self._conns.discard(stale.data)
                self._delayed.discard(stale.data)
        try:
            self._selector.register(conn.sock, selectors.EVENT_READ, conn)
            conn.events = selectors.EVENT_READ
        except (ValueError, OSError):
            self._server._conn_dead(conn)
            return
        self._conns.add(conn)
        if conn.want_write:
            self.service_conn(conn)

    def drop(self, conn: _AsyncConn) -> None:
        """Forget a connection (loop thread only); socket closing is the
        transport's job."""
        self._conns.discard(conn)
        self._delayed.discard(conn)
        try:
            self._selector.unregister(conn.sock)
        except (KeyError, ValueError, OSError):
            pass

    def _set_events(self, conn: _AsyncConn, events: int) -> None:
        if conn.events == events:
            return
        try:
            self._selector.modify(conn.sock, events, conn)
            conn.events = events
        except (KeyError, ValueError, OSError):
            pass

    def _handle_read(self, conn: _AsyncConn) -> None:
        try:
            data = conn.sock.recv(65536)
        except (BlockingIOError, InterruptedError):
            return
        except OSError:
            self._server._conn_dead(conn)
            return
        if not data:
            self._server._conn_dead(conn)
            return
        conn.rbuf += data
        while True:
            newline = conn.rbuf.find(b"\n")
            if newline < 0:
                break
            line = conn.rbuf[:newline]
            conn.rbuf = conn.rbuf[newline + 1 :]
            try:
                message = protocol.decode(line)
            except ProtocolError:
                continue
            self._server._on_frame(conn, message)
        if len(conn.rbuf) > protocol.MAX_MESSAGE_BYTES:
            self._server._conn_dead(conn)

    def service_conn(self, conn: _AsyncConn) -> None:
        """Drain what the kernel will take and update selector interest
        (loop thread only)."""
        with conn.lock:
            status = self._server._pump_locked(conn)
            if status == "alive":
                conn.want_write = False
        conn.trim()
        if status == "dead":
            self._server._conn_dead(conn)
            return
        events = selectors.EVENT_READ
        self._delayed.discard(conn)
        if status == "blocked":
            if getattr(conn.sock, "not_before", 0.0):
                # A fault-injected delay: the socket holds its bytes back
                # until a deadline, so the timer in _run wakes it, not
                # writability.
                self._delayed.add(conn)
            else:
                events |= selectors.EVENT_WRITE
        self._set_events(conn, events)

    # -- saturation telemetry (any thread) ------------------------------
    def stats(self) -> dict[str, Any]:
        """Loop-health snapshot: lag, iteration time, idle headroom.

        ``poll_idle_ratio`` near 1.0 means the loop mostly waits (cold);
        near 0.0 means every iteration returns with work already pending
        -- the single core is the bottleneck and the ROADMAP's multi-loop
        sharding is due.  ``lag_ms`` quantiles are the submit-to-serviced
        delay cross-thread work experienced.
        """
        poll_ns = self._poll_ns
        busy_ns = self._busy_ns
        total_ns = poll_ns + busy_ns
        lag = self.lag_hist
        iteration = self.iter_hist
        return {
            "iterations": self.iterations,
            "commands_run": self.commands_run,
            "commands_pending": len(self._commands),
            "timer_fires": self.timer_fires,
            "conns": len(self._conns),
            "poll_idle_ratio": poll_ns / total_ns if total_ns else 1.0,
            "busy_ratio": busy_ns / total_ns if total_ns else 0.0,
            "lag_ms": {
                "count": lag.count,
                "p50": lag.quantile(0.5),
                "p99": lag.quantile(0.99),
                "max": lag.max,
            },
            "iteration_ms": {
                "count": iteration.count,
                "p50": iteration.quantile(0.5),
                "p99": iteration.quantile(0.99),
                "max": iteration.max,
            },
        }


class SyncServer:
    """Pushes change notifications to registered clients.

    ``use_sockets=False`` runs the identical bookkeeping without opening
    TCP connections -- clients then poll :class:`NotificationCenter`
    directly.  Benchmarks use real sockets (loopback); most unit tests use
    the in-process mode.

    ``heartbeat_interval=None`` disables the ping tick; dead links are
    then detected on the next failed NOTIFY send or on a read EOF (the
    event loop always watches readability).  Otherwise a peer silent for
    six intervals is dead.

    ``max_queue_frames`` / :data:`MAX_QUEUE_BYTES` bound each client's
    lag in each table's send log: a broadcast that takes it past either
    moves its cursor to that log's newest frame (slow-consumer
    protection; :attr:`evictions` counts these collapses).  Only a dead
    socket, an EOF or a heartbeat timeout detaches a client.

    The ConnectedUser table is its one registry (build one server per
    database): a server started on rows re-arms their watches and, with
    sockets, files each row's (host, port) as a detached endpoint.
    """

    def __init__(
        self,
        database: Database,
        center: Optional[NotificationCenter] = None,
        use_sockets: bool = True,
        heartbeat_interval: Optional[float] = 0.5,
        transport_factory: Optional[TransportFactory] = None,
        max_queue_frames: int = 1024,
    ) -> None:
        self.database = database
        self.center = center or NotificationCenter(database)
        self.use_sockets = use_sockets
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_timeout = (
            None if heartbeat_interval is None else heartbeat_interval * 6
        )
        self.transport_factory = transport_factory
        self.max_queue_frames = max_queue_frames
        #: (host, port) -> shared callback endpoint; one per client
        #: process even when it mirrors several tables (socket mode).
        self._endpoints: dict[tuple[str, int], _Endpoint] = {}
        #: table -> its send log (created by the first subscription).
        self._logs: dict[str, _SendLog] = {}
        self._lock = threading.RLock()
        self._allocator = datamodel.IdAllocator(database)
        # Re-arm watch triggers for tables that durable ConnectedUser rows
        # say clients still mirror: triggers are runtime objects, so a
        # server restarted on a recovered database would otherwise stop
        # logging the very changes those clients reconnect to replay.
        # Their clients' links died with the previous server: detached.
        tables = set(database.table_names())
        started = time.monotonic()
        for row, _endpoint in self._registrations():
            if row["table_name"] in tables:
                self.center.watch(row["table_name"])
            if use_sockets:
                self._endpoints.setdefault(
                    _at(row), _Endpoint(*_at(row), detached_at=started)
                )
        self.center.add_batch_listener(self.broadcast)
        self._closed = False
        #: Notified when a connection catches up once closing (see close()).
        self._drained = threading.Condition()
        self._loop: Optional[_EventLoop] = None
        #: monotonic time of the last socket broadcast; back-to-back
        #: broadcasts (relative to the fan-out's inline-write cost) skip
        #: the inline drain so the loop can coalesce logged frames into
        #: few syscalls.
        self._last_broadcast = 0.0
        # Counters (tests and dashboards read these).
        self.detaches = 0
        self.reattaches = 0
        self.pings_sent = 0
        self.pongs_received = 0
        self.evictions = 0
        self.loop_errors = 0

    # ------------------------------------------------------------------
    # Connection plumbing
    def _open_callback(self, host: str, port: int) -> Any:
        """Connect back to a client listener and handshake (steps 5-6);
        returns the transport."""
        transport: Optional[Any] = None
        try:
            sock = socket.create_connection((host, port), timeout=5.0)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            transport = protocol.MessageStream(sock)
            if self.transport_factory is not None:
                transport = self.transport_factory(transport)
            # Step 5/6: the DBMS expects HELLO and answers REPLY.
            protocol.server_handshake(transport, timeout=5.0)
        except (OSError, SyncError) as exc:
            if transport is not None:
                transport.close()
            raise SyncError(
                f"cannot connect back to client at {host}:{port}: {exc}"
            ) from None
        return transport

    def _ensure_loop(self) -> _EventLoop:
        with self._lock:
            if self._loop is None:
                self._loop = _EventLoop(self)
                self._loop.start()
            return self._loop

    def _registrations(self) -> list[tuple[dict, Optional[_Endpoint]]]:
        """Each ConnectedUser row with the endpoint at its (host, port).
        The table is read before ``_lock`` is taken, never under it: a
        committing writer holds the database lock when it takes ``_lock``."""
        rows = list(self.database.table(datamodel.T_CONNECTED_USER).rows())
        with self._lock:
            return [(row, self._endpoints.get(_at(row))) for row in rows]

    def _attach(self, endpoint: _Endpoint, transport: Any) -> None:
        """Install a live transport on an endpoint and start servicing it:
        it reads the log of every table registered at its host and port."""
        endpoint.last_rx = time.monotonic()
        endpoint.detached_at = None
        # The event loop owns the handshake-complete stream's socket (a
        # fault wrapper's, under a FaultyTransport) and its buffered bytes.
        sock, rbuf, transport._buffer = transport._sock, transport._buffer, b""
        sock.setblocking(False)
        conn = _AsyncConn(sock, endpoint, transport, rbuf)
        key = (endpoint.host, endpoint.port)
        rows = [row for row, _ in self._registrations() if _at(row) == key]
        with self._lock:
            endpoint.conn = conn
        for table in {row["table_name"] for row in rows}:
            self._subscribe(conn, table)
        loop = self._ensure_loop()
        loop.submit(lambda: loop.add_conn(conn))

    def _subscribe(self, conn: _AsyncConn, table: str) -> None:
        """Let ``conn`` read ``table``'s log from its current end."""
        with self._lock:
            log = self._logs.get(table) or self._logs.setdefault(table, _SendLog(table))
        with conn.lock, log.lock:
            if conn.closing or log in conn.cursors:
                return
            conn.cursors[log] = log.end
            log.subscribers += (conn,)

    def _unsubscribe(self, conn: _AsyncConn, log: _SendLog) -> None:
        with conn.lock:
            conn.cursors.pop(log, None)
        with log.lock:
            log.subscribers = tuple(c for c in log.subscribers if c is not conn)
        log.trim()

    def _detach_endpoint(
        self, endpoint: _Endpoint, expected: Optional[_AsyncConn] = None
    ) -> bool:
        """Idempotently take a (suspected dead) transport out of service.

        The registration -- ConnectedUser rows, ``last_seq_no`` horizon,
        endpoint -- survives; only the socket goes away.  When
        ``expected`` is given, the detach only proceeds if the endpoint
        still carries that connection (a concurrent reconnect must not be
        torn down by the failure notice of its predecessor).
        """
        with self._lock:
            conn = endpoint.conn
            if conn is None or (expected is not None and conn is not expected):
                return False
            endpoint.conn = None
            endpoint.detached_at = time.monotonic()
            self.detaches += 1
        # Rare event: always counted, enabled or not.
        OBS.metrics.counter("sync.server.detaches").inc()
        self._retire_conn(conn)
        return True

    def _retire_conn(self, conn: _AsyncConn) -> None:
        """Tear down a connection no endpoint points at any more: stop
        sending, leave its logs, drop its staged chunks, close."""
        with conn.lock:
            conn.note_depth(*conn.lag())
            conn.closing = True
            conn.pending.clear()
            conn.pending_frames = conn.pending_bytes = 0
            logs = list(conn.cursors)
        for log in logs:
            self._unsubscribe(conn, log)
        self._queue_emptied()
        loop = self._loop
        if loop is not None:
            loop.submit(lambda: loop.drop(conn))
        try:
            conn.transport.close()
        except OSError:
            pass

    def _conn_dead(self, conn: _AsyncConn) -> None:
        """A connection's socket failed, EOF'd, or went silent."""
        if not self._detach_endpoint(conn.endpoint, expected=conn):
            # The endpoint moved on (reconnect won the race); just tear
            # down this superseded connection.
            self._retire_conn(conn)

    # ------------------------------------------------------------------
    # Drain: send each connection what lies past its cursors
    def _pump_locked(self, conn: _AsyncConn, logs: tuple = ()) -> str:
        """Send what ``conn`` owes in ``logs`` (none given: in every log
        it reads) until the kernel pushes back.

        Caller holds ``conn.lock``.  Returns ``"alive"`` (caught up),
        ``"blocked"`` (the socket pushed back), or ``"dead"`` (it failed).

        Staged chunks go first.  Then each log's whole frames past the
        cursor, coalesced up to ``COALESCE_BYTES`` per ``send()``; a
        partial write stages the rest of its chunk.  The caller trims the
        logs.
        """
        if conn.closing:
            return "alive"
        owed = []
        frames, nbytes = conn.pending_frames, conn.pending_bytes
        for log in logs or conn.cursors:
            cursor = conn.cursors.get(log, log.end)
            if cursor < log.end:
                chunk, behind = log.read(cursor)
                frames += behind
                nbytes += log.end - cursor
                owed.append((log, cursor, chunk))
        conn.note_depth(frames, nbytes)
        status = self._flush_locked(conn)
        if status != "alive":
            return status
        for log, cursor, chunk in owed:
            while True:
                try:
                    sent = conn.sock.send(chunk)
                except (BlockingIOError, InterruptedError):
                    return "blocked"
                except OSError:
                    return "dead"
                cursor += len(chunk)
                conn.cursors[log] = cursor
                if sent < len(chunk):
                    # Finish this frame before any other: the tail goes first.
                    conn.stage(bytes(chunk[sent:]))
                    return "blocked"
                if cursor >= log.end:
                    break
                chunk = log.read(cursor)[0]
        self._queue_emptied()
        return "alive"

    def _flush_locked(self, conn: _AsyncConn) -> str:
        """Send the staged chunks (caller holds ``conn.lock``)."""
        while conn.pending:
            chunk = conn.pending[0]
            try:
                sent = conn.sock.send(chunk)
            except (BlockingIOError, InterruptedError):
                return "blocked"
            except OSError:
                return "dead"
            conn.pending_bytes -= sent
            if sent < len(chunk):
                conn.pending_frames -= chunk.count(b"\n", 0, sent)
                conn.pending[0] = chunk[sent:]
                return "blocked"
            conn.pending_frames -= chunk.count(b"\n")
            conn.pending.popleft()
        return "alive"

    def _kick(self, conn: _AsyncConn, logs: tuple = ()) -> None:
        """Pump ``conn`` (in ``logs``) on this thread; what the kernel
        refuses goes to the loop.  A connection the loop already owns is
        left to it."""
        with conn.lock:
            if conn.closing or conn.want_write:
                return
            status = self._pump_locked(conn, logs)
            if status == "blocked":
                conn.want_write = True
        if status == "dead":
            self._conn_dead(conn)
        elif status != "alive":
            loop = self._loop
            if loop is not None:
                loop.submit(lambda: loop.service_conn(conn))

    def _drain(self, log: _SendLog) -> None:
        """The one drain routine: send every subscriber of ``log`` what
        lies past its cursor in it (after its staged chunks), then drop
        what all of them have sent.  The notifying thread runs it inline
        on a quiet plane, the loop for a burst."""
        with log.lock:
            log.scheduled = False
        for conn in log.subscribers:
            self._kick(conn, (log,))
        log.trim()

    def _post(self, conn: _AsyncConn, data: bytes) -> bool:
        """Send one encoded frame to ``conn`` alone (PING, DISCONNECT).
        False when the connection is gone."""
        with conn.lock:
            if conn.closing:
                return False
            conn.stage(data)
        self._kick(conn)
        conn.trim()
        return True

    def _queue_emptied(self) -> None:
        """A connection caught up (``conn.lock`` held, so the drain never
        takes it under ``_drained``): wake a closing server's drain."""
        if self._closed:
            with self._drained:
                self._drained.notify_all()

    def _on_frame(self, conn: _AsyncConn, message: dict[str, Any]) -> None:
        """One inbound client frame, delivered by the event loop."""
        endpoint = conn.endpoint
        endpoint.last_rx = time.monotonic()
        kind = message.get("type")
        if kind == protocol.PONG:
            self.pongs_received += 1
            if OBS.enabled and endpoint.last_ping_at:
                OBS.metrics.gauge(
                    "sync.heartbeat_rtt_ms",
                    client=f"{endpoint.host}:{endpoint.port}",
                ).set((endpoint.last_rx - endpoint.last_ping_at) * 1e3)
        elif kind == protocol.DISCONNECT:
            self._conn_dead(conn)

    def _heartbeat_tick(self) -> None:
        """Liveness pass, run by the event loop every
        ``heartbeat_interval`` seconds."""
        if self.heartbeat_interval is None:
            return
        now = time.monotonic()
        with self._lock:
            endpoints = list(self._endpoints.values())
        for endpoint in endpoints:
            conn = endpoint.conn
            if conn is None:
                continue
            if (
                self.heartbeat_timeout is not None
                and now - endpoint.last_rx > self.heartbeat_timeout
            ):
                self._conn_dead(conn)
                continue
            endpoint.ping_seq += 1
            endpoint.last_ping_at = time.monotonic()
            if self._post(conn, protocol.encode(protocol.ping(endpoint.ping_seq))):
                self.pings_sent += 1

    # ------------------------------------------------------------------
    def register_client(
        self,
        table: str,
        host: str,
        port: int,
        user_id: Optional[int] = None,
    ) -> int:
        """Protocol steps 4-6: record the quadruplet, connect back,
        handshake.  Returns the ConnectedUser id."""
        if self._closed:
            raise SyncError("server is closed")
        self.center.watch(table)
        cu_id = self._allocator.next_id(datamodel.T_CONNECTED_USER)
        self.database.insert(
            datamodel.T_CONNECTED_USER,
            {
                "id": cu_id,
                "user_id": user_id,
                "host": host,
                "port": port,
                "table_name": table,
                "last_seq_no": 0,
            },
        )
        endpoint: Optional[_Endpoint] = None
        if self.use_sockets:
            with self._lock:
                endpoint = self._endpoints.get((host, port))
            if endpoint is None:
                try:
                    transport = self._open_callback(host, port)
                except SyncError:
                    # Failed connection or handshake: no trace left behind.
                    self.database.delete(
                        datamodel.T_CONNECTED_USER, col("id") == cu_id
                    )
                    raise
                endpoint = _Endpoint(host, port)
                self._attach(endpoint, transport)
                with self._lock:
                    self._endpoints[(host, port)] = endpoint
        conn = endpoint.conn if endpoint is not None else None
        if conn is not None:
            self._subscribe(conn, table)
        return cu_id

    def reconnect_client(self, host: str, port: int) -> bool:
        """Re-attach a fresh callback connection to a detached client.

        The client keeps its ConnectedUser rows (and thus its
        ``last_seq_no`` purge protection) across the outage -- also across
        a server restart -- so this call only restores the push path.
        Raises :class:`SyncError` when no registration exists for
        ``(host, port)`` or the connect-back fails; the client's retry
        policy decides what happens next.
        """
        if self._closed:
            raise SyncError("server is closed")
        if not self.use_sockets:
            raise SyncError("reconnect_client requires socket mode")
        with self._lock:
            endpoint = self._endpoints.get((host, port))
        if endpoint is None:
            raise SyncError(f"no registered client at {host}:{port}")
        transport = self._open_callback(host, port)
        with self._lock:
            stale = endpoint.conn
            endpoint.conn = None
        if stale is not None:
            self._retire_conn(stale)
        self._attach(endpoint, transport)
        self.reattaches += 1
        OBS.metrics.counter("sync.server.reattaches").inc()
        return True

    def unregister_client(self, connected_user_id: int) -> bool:
        """Protocol step 10: delete the ConnectedUser row; the endpoint
        goes with its last row, a table's log with its endpoint's last
        row for that table.

        Idempotent: concurrent callers (e.g. two notification threads
        observing the same dead client) race benignly -- exactly one
        deletes the row and performs the teardown, the rest return
        ``False``.
        """
        registry = self.database.table(datamodel.T_CONNECTED_USER)
        row = registry.by_key(connected_user_id)
        if row is None or not self.database.delete(
            datamodel.T_CONNECTED_USER, col("id") == connected_user_id
        ):
            return False
        key = _at(row)
        siblings = {r["table_name"] for r, _ in self._registrations() if _at(r) == key}
        with self._lock:
            endpoint = self._endpoints.get(key)
            if endpoint is not None and not siblings:
                del self._endpoints[key]
            conn = endpoint.conn if endpoint is not None else None
            log = self._logs.get(row["table_name"])
        if endpoint is not None and not siblings:
            self._detach_endpoint(endpoint)
        elif conn and log and row["table_name"] not in siblings:
            self._unsubscribe(conn, log)
        return True

    def evict_detached(self, max_age: float) -> int:
        """Permanently unregister clients detached longer than ``max_age``
        seconds.  Returns the number of registrations dropped.  This is
        the operator-facing escape hatch that re-enables notification
        purging when a client is never coming back."""
        now = time.monotonic()
        stale = [
            row["id"]
            for row, endpoint in self._registrations()
            if endpoint is not None
            and endpoint.conn is None
            and endpoint.detached_at is not None
            and now - endpoint.detached_at >= max_age
        ]
        return sum(1 for cu_id in stale if self.unregister_client(cu_id))

    def update_client_seq(self, connected_user_id: int, seq_no: int) -> None:
        """Record how far a client has consumed (enables purging)."""
        self.database.update(
            datamodel.T_CONNECTED_USER,
            {"last_seq_no": seq_no},
            col("id") == connected_user_id,
        )

    def client_count(self) -> int:
        """Registrations: the ConnectedUser rows."""
        return len(self.database.table(datamodel.T_CONNECTED_USER))

    def connected_count(self) -> int:
        """Registrations whose callback connection is currently live."""
        return sum(1 for _, ep in self._registrations() if ep and ep.conn is not None)

    def detached_count(self) -> int:
        """Registrations whose endpoint is detached (none in-process)."""
        return sum(1 for _, ep in self._registrations() if ep and ep.conn is None)

    def queued_frames(self) -> int:
        """Frames live connections have yet to send (backpressure
        snapshot): their lag behind the send logs, plus staged chunks."""
        return self.queue_depths()["depth_frames"]

    def queue_depths(self) -> dict[str, Any]:
        """Send-side saturation across every live connection.

        Depth is a connection's lag: what lies past its cursors, plus its
        staged chunks.  Current depths say how far behind clients are *right now*; the
        high watermarks say how close the worst burst came to the
        collapse bounds (``max_queue_frames`` / :data:`MAX_QUEUE_BYTES`,
        per send log) -- a ``hiwat_frames`` near the limit means the next
        burst skips frames.
        """
        with self._lock:
            endpoints = list(self._endpoints.values())
        depth_frames = depth_bytes = 0
        max_depth = hiwat_frames = hiwat_bytes = 0
        connections = 0
        for endpoint in endpoints:
            conn = endpoint.conn
            if conn is None:
                continue
            connections += 1
            depth, nbytes = conn.lag()
            depth_frames += depth
            depth_bytes += nbytes
            max_depth = max(max_depth, depth)
            # A burst still logged has not met its first drain yet.
            hiwat_frames = max(hiwat_frames, conn.hiwat_frames, depth)
            hiwat_bytes = max(hiwat_bytes, conn.hiwat_bytes, nbytes)
        return {
            "connections": connections,
            "depth_frames": depth_frames,
            "depth_bytes": depth_bytes,
            "max_depth_frames": max_depth,
            "hiwat_frames": hiwat_frames,
            "hiwat_bytes": hiwat_bytes,
            "limit_frames": self.max_queue_frames,
            "limit_bytes": MAX_QUEUE_BYTES,
        }

    def health(self) -> dict[str, Any]:
        """One saturation snapshot of the whole notification plane.

        Combines loop health (:meth:`_EventLoop.stats`), send-side lag
        depths/watermarks (:meth:`queue_depths`), the
        NotificationCenter's buffered backlog, and the server's lifetime
        counters.  Each call also publishes the headline numbers as
        ``sync.health.*`` gauges, so a running telemetry sink lands them
        in ``sys_metrics`` and dashboards chart saturation over time the
        same way they chart everything else.
        """
        loop = self._loop
        loop_stats = loop.stats() if loop is not None else None
        queues = self.queue_depths()
        pending_ops = sum(
            edge.pending_ops() for edge in list(self.center.subscriptions.values())
        )
        snapshot: dict[str, Any] = {
            "use_sockets": self.use_sockets,
            "clients": self.client_count(),
            "connected": self.connected_count(),
            "detached": self.detached_count(),
            "detaches": self.detaches,
            "reattaches": self.reattaches,
            "evictions": self.evictions,
            "loop_errors": self.loop_errors,
            "pings_sent": self.pings_sent,
            "pongs_received": self.pongs_received,
            "loop": loop_stats,
            "queues": queues,
            "pending_ops": pending_ops,
        }
        gauge = OBS.metrics.gauge
        if loop_stats is not None:
            lag = loop_stats["lag_ms"]
            gauge("sync.health.loop_lag_p50_ms").set(lag["p50"] or 0.0)
            gauge("sync.health.loop_lag_p99_ms").set(lag["p99"] or 0.0)
            gauge("sync.health.loop_poll_idle_ratio").set(
                loop_stats["poll_idle_ratio"]
            )
            gauge("sync.health.loop_iterations").set(loop_stats["iterations"])
        gauge("sync.health.queue_depth_frames").set(queues["depth_frames"])
        gauge("sync.health.queue_hiwat_frames").set(queues["hiwat_frames"])
        gauge("sync.health.queue_hiwat_bytes").set(queues["hiwat_bytes"])
        gauge("sync.health.connected").set(snapshot["connected"])
        gauge("sync.health.evictions").set(self.evictions)
        gauge("sync.health.pending_ops").set(pending_ops)
        return snapshot

    # ------------------------------------------------------------------
    @staticmethod
    def _trace_ctx(table: str, seq_no: int) -> Optional[dict[str, int]]:
        """The ``ctx`` frame field for one notification, if a span
        context was linked under ``(table, seq_no)`` on this side."""
        linked = OBS.tracer.lookup_link(("notify", table, seq_no))
        if linked is None:
            return None
        context, registered_ns = linked
        return protocol.trace_context(
            context.trace_id, context.span_id, registered_ns
        )

    def broadcast(self, table: str, events: list[tuple[str, int]]) -> None:
        """Step 7: push ``[(op, seq_no), ...]`` to every client on ``table``.

        This is the notification plane's entry point: the center's batch
        listener (one call per flush) and fan-out benchmarks, which drive
        the plane without paying the storage engine's per-row cost.

        Every subscriber gets the same frame -- a NOTIFY for one event, a
        NOTIFYB for several, with the newest event's span context while
        tracing -- encoded once and appended once, to the table's send
        log; an untraced NOTIFY is the log's ``prefix`` plus its seq-no
        and op.  On a quiet plane this thread then drains the log, so a
        healthy client's bytes are written before the commit returns.
        Back-to-back broadcasts (faster than the fan-out can be written
        inline) only append and leave one drain to the loop: this thread
        touches no connection unless the log now holds more than the
        collapse bound (:meth:`_collapse`).  A send failure detaches the
        endpoint; the reconnecting client replays the Notification log
        from its ``last_seq_no``.
        """
        if not events:
            return
        log = self._logs.get(table)
        if log is None or not log.subscribers:
            return  # in-process, or every client detached: replay covers it
        ctx = self._trace_ctx(table, events[-1][1]) if OBS.enabled else None
        if len(events) > 1:
            data = protocol.encode(protocol.notify_batch(table, events, ctx=ctx))
        else:
            ((op, seq_no),) = events
            if ctx is None:  # the table's frame, bound once
                data = log.prefix + str(seq_no).encode() + protocol.NOTIFY_TAILS[op]
            else:
                data = protocol.encode(protocol.notify(table, seq_no, op, ctx=ctx))
        now, window = time.monotonic(), len(log.subscribers) * BURST_COST_PER_LINK_S
        inline = now - self._last_broadcast >= window
        self._last_broadcast = now
        with log.lock:
            log.buf += data
            log.end += len(data)
            log.ends.append(log.end)
            schedule = not inline and not log.scheduled
            if schedule:
                log.scheduled = True
        if len(log.ends) > self.max_queue_frames or len(log.buf) > MAX_QUEUE_BYTES:
            self._collapse(log)
        loop = self._loop
        if inline:
            self._drain(log)
        elif schedule and loop is not None:
            loop.submit(lambda: self._drain(log))

    def _collapse(self, log: _SendLog) -> None:
        """Move each subscriber past ``max_queue_frames`` frames or
        :data:`MAX_QUEUE_BYTES` bytes behind in ``log`` to the start of its
        newest frame, which names the newest seq-no (the client's refresh
        pulls the rest), then trim ``log``."""
        collapsed = 0
        for conn in log.subscribers:
            with conn.lock, log.lock:
                cursor = conn.cursors.get(log, log.end)
                newest = log.ends[-2] if len(log.ends) > 1 else log.base
                behind = len(log.ends) - bisect_right(log.ends, cursor)
                if cursor < newest and (
                    behind > self.max_queue_frames or log.end - cursor > MAX_QUEUE_BYTES
                ):
                    conn.cursors[log] = newest
                    collapsed += 1
        log.trim()
        with self._lock:
            self.evictions += collapsed
        OBS.metrics.counter("sync.server.evictions").inc(collapsed)

    # ------------------------------------------------------------------
    def purge_notifications(self) -> int:
        """Step 11: purge fully-consumed notifications."""
        return self.center.purge()

    def close(self) -> None:
        """Drain and close every link, then drop every registration (one
        DELETE: one commit)."""
        self._closed = True
        with self._lock:
            endpoints = list(self._endpoints.values())
            self._endpoints.clear()
        self._drain_and_stop(endpoints)
        self.database.delete(datamodel.T_CONNECTED_USER)
        self.center.remove_batch_listener(self.broadcast)

    def _drain_and_stop(self, endpoints: list[_Endpoint]) -> None:
        """Graceful shutdown: send what each link owes, say goodbye after
        it, stop the loop."""
        live = [endpoint.conn for endpoint in endpoints if endpoint.conn is not None]
        for endpoint in endpoints:
            endpoint.conn = None
        deadline = time.monotonic() + DRAIN_TIMEOUT

        def caught_up() -> bool:
            with self._drained:
                return self._drained.wait_for(
                    lambda: not any(conn.lag()[0] for conn in live),
                    max(0.0, deadline - time.monotonic()),
                )

        caught_up()
        goodbye = protocol.encode(protocol.disconnect())
        for conn in live:
            self._post(conn, goodbye)
        caught_up()
        loop = self._loop
        if loop is not None:
            loop.stop()
            self._loop = None
        for conn in live:
            conn.transport.close()
