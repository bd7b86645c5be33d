"""A model of the sync server's send side: one send log per table, one
cursor per (connection, log).

The event loop is held still -- its thread never starts, and the test
runs its submitted commands and its writability service by hand -- so
every interleaving of broadcasts, drains, stalls, partial writes,
collapses, detaches, reattaches and faults is one the test chose.  What
each connection should hold is recomputed independently: per table, the
frames broadcast between its attach and its detach, less those a
collapse skipped.  A connection that lags past ``max_queue_frames``
frames in a table at a broadcast skips to that table's newest frame: its
wire then holds the frames it was sent before that broadcast, the newest
frame and every frame after it.

Invariants, after every step:

* each connection has received, per table, a prefix of its frames, in
  order (a faulted one: of its frames as its ``FaultPlan`` rewrites
  them, with the stalls and partial writes under its fault wrapper); a
  live connection whose socket takes everything holds all of them once
  the loop has run;
* a log holds nothing below its lowest cursor;
* ``queued_frames()`` is the summed lag -- frames not yet fully on the
  wire -- of the live connections;
* a collapse happens exactly where the model puts one (``evictions``
  counts them), and no connection is detached but by the test;
* ``close()`` sends every live peer what it owes, then a DISCONNECT; the
  ``SyncClient`` has heard, per table, its frames' ascending seq-nos,
  ending at the last one sent, and one refresh per table makes its
  mirrors equal the tables.

Three direct cases pin the bound for a stalled peer, one table or two.
A last test drains a backlog longer than one coalesced write to a
two-table peer through a socket that takes a few kilobytes at a time,
with a PING staged between drains: it must arrive as whole frames.
"""

import json
import socket
import threading
import time

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.db import Column, Database
from repro.db.types import INTEGER
from repro.sync import (
    FaultPlan,
    FaultyTransport,
    NotificationCenter,
    SyncClient,
    SyncServer,
    protocol,
)
from repro.sync import server as server_module

MAX_FRAMES = 4
TABLES = ("a", "b")
#: Peer name -> the tables it mirrors over its one callback connection.
PEERS = {"p0": ("a",), "p1": ("b",), "p2": ("a", "b"), "pf": ("a",)}
#: The faulted peer's plan; index 0 is the handshake REPLY.
PLAN = dict(drop={2}, duplicate={4})
TRICKLE = 7  # bytes a trickling socket takes per send()


class Valve:
    """The server's end of a peer socket: open, shut (the kernel buffer
    is full), trickling (partial writes) or metered (``budget`` bytes,
    then full)."""

    def __init__(self, real):
        self._real = real
        self.mode = "open"
        self.budget = 0

    def send(self, data):
        if self.mode == "shut":
            raise BlockingIOError("stubbed: kernel buffer full")
        if self.mode == "trickle":
            data = bytes(data[:TRICKLE])
        if self.mode == "metered":
            if not self.budget:
                raise BlockingIOError("stubbed: kernel buffer full")
            data = bytes(data[: self.budget])
            self.budget -= len(data)
        return self._real.send(data)

    def __getattr__(self, name):
        return getattr(self._real, name)


def frame(table, seq):
    return protocol.encode(protocol.notify(table, seq, "insert"))


def rewrite(frames):
    """What ``PLAN`` puts on the wire for ``frames`` (index 1 onward)."""
    wire = []
    for index, data in enumerate(frames, 1):
        if index in PLAN["drop"]:
            continue
        wire += [data, data] if index in PLAN["duplicate"] else [data]
    return wire


class Tap:
    """The outermost socket the server writes to.  It records what each
    ``send`` took, so ``taken`` plus the connection's staged chunks are
    the bytes the server has taken out of its send logs."""

    def __init__(self, inner):
        self._inner = inner
        self.taken = bytearray()

    def send(self, data):
        sent = self._inner.send(data)
        self.taken += data[:sent]
        return sent

    def __getattr__(self, name):
        return getattr(self._inner, name)


def taken_out(conn):
    """Frames per table the server has taken out of its logs for
    ``conn``: on the socket, or staged to finish a partial write."""
    counts = dict.fromkeys(TABLES, 0)
    stream = bytes(conn.sock.taken) + b"".join(conn.pending)
    for line in stream.split(b"\n")[:-1]:
        message = json.loads(line)
        if message["type"] == protocol.NOTIFY:
            counts[message["table"]] += 1
    return counts


class Incarnation:
    """One callback connection of a peer, from attach to its end."""

    def __init__(self, conn, valve, sock):
        self.conn = conn
        self.valve = valve  # the server's end
        self.sock = sock  # the peer's end
        self.sock.setblocking(False)
        self.expected = {table: [] for table in TABLES}
        self.received = b""
        self.ended = False

    def read(self):
        """Take what the server wrote: a loopback ``send()`` has queued
        its bytes at the peer by the time it returns."""
        while True:
            try:
                chunk = self.sock.recv(65536)
            except (BlockingIOError, InterruptedError):
                return
            if not chunk:
                return
            self.received += chunk

    def lines(self):
        """Complete NOTIFY lines received (the REPLY and a DISCONNECT
        excluded), with their newlines."""
        out = []
        for line in self.received.split(b"\n")[:-1]:
            if json.loads(line).get("type") == protocol.NOTIFY:
                out.append(line + b"\n")
        return out


class ClientSide:
    """The ``SyncClient``'s callback connection, as the model sees it:
    the frames it should hear, per table."""

    def __init__(self, conn):
        self.conn = conn
        self.expected = {table: [] for table in TABLES}
        self.ended = False


class SendLogModel(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.db = Database()
        for table in TABLES:
            self.db.create_table(
                table, [Column("id", INTEGER, nullable=False)], primary_key="id"
            )
        self.listeners = {}
        for name in PEERS:
            listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            listener.bind(("127.0.0.1", 0))
            listener.listen(4)
            listener.settimeout(5.0)
            self.listeners[name] = listener
        faulted_port = self.listeners["pf"].getsockname()[1]

        def factory(stream):
            if stream._sock.getpeername()[1] == faulted_port:
                return FaultyTransport(stream, FaultPlan(**PLAN))
            return stream

        self.server = SyncServer(
            self.db,
            NotificationCenter(self.db),
            use_sockets=True,
            heartbeat_interval=None,
            transport_factory=factory,
            max_queue_frames=MAX_FRAMES,
        )
        # The loop exists but never runs: the test steps it.
        self.loop = server_module._EventLoop(self.server)
        self.server._loop = self.loop
        self.seq = 0
        self.collapses = 0
        self.detaches = 0
        self.peers = {}
        for name, tables in PEERS.items():
            self._connect(name, tables)
        # A SyncClient mirroring both tables on its one endpoint.
        self.client = SyncClient(self.server, auto_reconnect=False)
        self.heard = {table: [] for table in TABLES}
        self.client.on_notify(lambda t, _op, seq: self.heard[t].append(seq))
        for table in TABLES:
            self.client.mirror(table)
        conn = self.server._endpoints[(self.client.host, self.client.port)].conn
        conn.sock = Tap(conn.sock)
        self.client_side = ClientSide(conn)
        self.sent = {table: [] for table in TABLES}
        self.closed = False

    # -- helpers ---------------------------------------------------------
    def _endpoint(self, name):
        port = self.listeners[name].getsockname()[1]
        return self.server._endpoints[("127.0.0.1", port)]

    def _handshake(self, name, call):
        """Run a server call that connects back to ``name`` beside the
        accept and HELLO it blocks on; returns the peer's socket."""
        errors = []

        def run():
            try:
                call()
            except Exception as exc:  # re-raised on this thread
                errors.append(exc)

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        sock, _ = self.listeners[name].accept()
        sock.sendall(protocol.encode(protocol.hello()))
        thread.join(timeout=10.0)
        assert not errors, errors
        return sock

    def _connect(self, name, tables):
        port = self.listeners[name].getsockname()[1]
        sock = self._handshake(
            name, lambda: self.server.register_client(tables[0], "127.0.0.1", port)
        )
        for table in tables[1:]:
            self.server.register_client(table, "127.0.0.1", port)
        self._incarnate(name, sock)

    def _incarnate(self, name, sock):
        conn = self._endpoint(name).conn
        if name == "pf":
            # Under the fault wrapper: the plan rewrites whole frames, and
            # the real socket takes what it will of them.
            valve = conn.sock._sock = Valve(conn.sock._sock)
            conn.sock = Tap(conn.sock)
        else:
            valve = Valve(conn.sock)
            conn.sock = Tap(valve)
        self.peers[name] = Incarnation(conn, valve, sock)

    def _live(self):
        return [p for p in self.peers.values() if not p.ended]

    def _wire(self, name, peer, table):
        frames = peer.expected[table]
        return rewrite(frames) if name == "pf" else frames

    def _lag(self, name, peer):
        """Frames of ``peer`` not yet fully on the wire; None where the
        model cannot tell (a faulted peer rewrites its frames)."""
        if name == "pf":
            return None
        got = peer.lines()
        return sum(len(peer.expected[t]) for t in TABLES) - len(got)

    def _run_loop(self):
        while self.loop._commands:
            fn, _enqueued = self.loop._commands.popleft()
            fn()

    def _service(self):
        for conn in list(self.loop._conns):
            if conn.want_write or conn in self.loop._delayed:
                self.loop.service_conn(conn)

    def _settle(self):
        """Open every socket and step the loop until nothing is owed."""
        for peer in self._live():
            peer.valve.mode = "open"
        for _ in range(50):
            self._run_loop()
            self._service()
            if not self.loop._commands and not any(
                c.want_write for c in self.loop._conns
            ):
                break
        self._read_all()

    def _read_all(self):
        for peer in self.peers.values():
            peer.read()

    # -- rules -----------------------------------------------------------
    @precondition(lambda self: not self.closed)
    @rule(
        table=st.sampled_from(TABLES),
        burst=st.booleans(),
        count=st.integers(1, MAX_FRAMES + 2),
    )
    def broadcast(self, table, burst, count):
        """``count`` committed inserts, one at a time."""
        for _ in range(count):
            self._insert(table, burst)

    def _insert(self, table, burst):
        """One committed insert: its NOTIFY is the table's newest frame.
        Whoever it takes past the bound in that table skips to it."""
        self.seq += 1
        sides = [
            side
            for name, side in [*self.peers.items(), ("client", self.client_side)]
            if not side.ended and (name == "client" or table in PEERS[name])
        ]
        for side in sides:
            frames = side.expected[table]
            sent = taken_out(side.conn)[table]
            frames.append(frame(table, self.seq))
            if len(frames) - sent > MAX_FRAMES:
                del frames[sent:-1]
                self.collapses += 1
        self.sent[table].append(self.seq)
        window = float("inf") if burst else 0.0
        server_module.BURST_COST_PER_LINK_S, saved = (
            window,
            server_module.BURST_COST_PER_LINK_S,
        )
        try:
            self.db.insert(table, {"id": self.seq})  # notifies seq-no self.seq
        finally:
            server_module.BURST_COST_PER_LINK_S = saved
        self._read_all()
        assert self.server.evictions == self.collapses

    @rule()
    def run_loop(self):
        self._run_loop()
        self._read_all()

    @precondition(lambda self: not self.closed)
    @rule()
    def writable(self):
        self._service()
        self._read_all()

    @precondition(lambda self: not self.closed)
    @rule(
        name=st.sampled_from(sorted(PEERS)),
        mode=st.sampled_from(["open", "shut", "trickle"]),
    )
    def set_valve(self, name, mode):
        peer = self.peers[name]
        if not peer.ended:
            peer.valve.mode = mode

    @precondition(lambda self: not self.closed)
    @rule(name=st.sampled_from(sorted(PEERS)))
    def detach(self, name):
        peer = self.peers[name]
        if peer.ended:
            return
        self.server._conn_dead(peer.conn)
        self.detaches += 1
        peer.ended = True
        self._read_all()

    @precondition(lambda self: not self.closed)
    @rule(name=st.sampled_from(sorted(PEERS)))
    def reattach(self, name):
        peer = self.peers[name]
        if not peer.ended:
            return
        self._run_loop()
        self._read_all()
        port = self.listeners[name].getsockname()[1]
        sock = self._handshake(
            name, lambda: self.server.reconnect_client("127.0.0.1", port)
        )
        peer.sock.close()
        self._incarnate(name, sock)

    @precondition(lambda self: not self.closed)
    @rule()
    def close(self):
        """Settle (sockets open, loop run): the SyncClient hears its
        frames and one refresh per table converges.  Then close: every
        live peer gets what it owes, then a DISCONNECT."""
        self._settle()
        want = {
            table: [json.loads(x)["seq_no"] for x in self.client_side.expected[table]]
            for table in TABLES
        }
        deadline = time.monotonic() + 5.0
        while self.heard != want and time.monotonic() < deadline:
            time.sleep(0.005)
        for table in TABLES:
            heard = self.heard[table]
            assert heard == want[table], table
            assert heard == sorted(set(heard)), table
            assert heard[-1:] == self.sent[table][-1:], table
            self.client.refresh(table)
            mirror = sorted(row["id"] for row in self.client.table(table).all_rows())
            assert mirror == sorted(row["id"] for row in self.db.table(table).scan())
        self.server.close()
        self.closed = True
        for name, peer in self.peers.items():
            peer.read()
            if peer.ended:
                continue
            for table in TABLES:
                got = [x for x in peer.lines() if json.loads(x)["table"] == table]
                assert got == self._wire(name, peer, table), (name, table)
            if name != "pf":  # its plan may drop the goodbye
                last = peer.received.split(b"\n")[-2]
                assert json.loads(last)["type"] == protocol.DISCONNECT, name

    # -- invariants ------------------------------------------------------
    @invariant()
    def each_peer_holds_a_prefix_of_its_frames(self):
        for name, peer in self.peers.items():
            lines = peer.lines()
            for table in TABLES:
                got = [x for x in lines if json.loads(x)["table"] == table]
                want = self._wire(name, peer, table)
                assert got == want[: len(got)], (name, table)

    @invariant()
    def a_log_holds_nothing_below_its_lowest_cursor(self):
        if self.closed:
            return
        for log in self.server._logs.values():
            cursors = [c.cursors[log] for c in log.subscribers if log in c.cursors]
            assert log.base == min(cursors, default=log.end)
            assert len(log.buf) == log.end - log.base
            assert all(log.base < end <= log.end for end in log.ends)

    @invariant()
    def queued_frames_is_the_summed_lag(self):
        if self.closed:
            return
        self._read_all()
        want = 0
        for name, peer in self.peers.items():
            if peer.ended:
                continue
            lag = self._lag(name, peer)
            want += peer.conn.lag()[0] if lag is None else lag
        want += self.client_side.conn.lag()[0]
        assert self.server.queued_frames() == want

    @invariant()
    def no_connection_is_detached_for_lag(self):
        if self.closed:
            return
        assert self.server.detaches == self.detaches
        assert not self.client_side.conn.closing
        for peer in self._live():
            assert not peer.conn.closing

    def teardown(self):
        if not self.closed:
            self._settle()
            self.server.close()
        self.client.close()
        for peer in self.peers.values():
            peer.sock.close()
        for listener in self.listeners.values():
            listener.close()
        self.loop._selector.close()
        self.loop._rwake.close()
        self.loop._wwake.close()


SendLogModel.TestCase.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None
)
TestSendLogModel = SendLogModel.TestCase


def raw_peer(tables, max_queue_frames):
    """A server whose loop is held still and one raw peer mirroring
    ``tables`` over one connection, attached, behind a :class:`Valve`.
    Returns ``(server, loop, conn, peer socket, listener)``."""
    db = Database()
    for table in TABLES:
        db.create_table(
            table, [Column("id", INTEGER, nullable=False)], primary_key="id"
        )
    server = SyncServer(
        db,
        NotificationCenter(db),
        use_sockets=True,
        heartbeat_interval=None,
        max_queue_frames=max_queue_frames,
    )
    loop = server_module._EventLoop(server)  # held still: stepped by hand
    server._loop = loop
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    listener.settimeout(5.0)
    port = listener.getsockname()[1]
    registrar = threading.Thread(
        target=server.register_client,
        args=(tables[0], "127.0.0.1", port),
        daemon=True,
    )
    registrar.start()
    peer, _ = listener.accept()
    peer.sendall(protocol.encode(protocol.hello()))
    registrar.join(timeout=10.0)
    for table in tables[1:]:
        server.register_client(table, "127.0.0.1", port)
    conn = server._endpoints[("127.0.0.1", port)].conn
    conn.sock = Valve(conn.sock)
    peer.setblocking(False)
    while loop._commands:  # attach the connection
        loop._commands.popleft()[0]()
    return server, loop, conn, peer, listener


def shut_down(server, loop, peer, listener):
    server.close()
    peer.close()
    listener.close()
    loop._selector.close()
    loop._rwake.close()
    loop._wwake.close()


def notified(received):
    """``{table: [seq_no, ...]}`` of the NOTIFY lines in ``received``,
    which must end at a frame boundary."""
    assert received.endswith(b"\n")
    seqs = {table: [] for table in TABLES}
    for line in received.split(b"\n")[:-1]:
        message = protocol.decode(line)
        if message["type"] == protocol.NOTIFY:
            seqs[message["table"]].append(message["seq_no"])
    return seqs


def stalled_broadcasts(monkeypatch, tables, script, read=0):
    """Broadcast ``script`` -- ``(table, evictions after it)`` pairs, one
    inline broadcast at a time, seq-nos from 1 -- to a peer on
    ``tables`` whose socket refuses every send after the first ``read``
    broadcasts, with ``max_queue_frames=MAX_FRAMES``.  After each
    broadcast, ``evictions`` (the collapse count) must read as scripted
    and no log may hold more than ``MAX_FRAMES`` frames.  Then the socket
    opens and the loop drains; returns the seq-nos the peer got per
    table."""
    monkeypatch.setattr(server_module, "BURST_COST_PER_LINK_S", 0.0)
    server, loop, conn, peer, listener = raw_peer(tables, MAX_FRAMES)
    received = b""
    try:
        for seq, (table, collapses) in enumerate(script, 1):
            conn.sock.mode = "open" if seq <= read else "shut"
            server.broadcast(table, [("insert", seq)])
            assert server.evictions == collapses, (seq, table)
            assert all(len(log.ends) <= MAX_FRAMES for log in server._logs.values())
        assert server.detaches == 0 and not conn.closing
        conn.sock.mode = "open"
        while loop._commands:
            loop._commands.popleft()[0]()
        loop.service_conn(conn)
        assert not conn.lag()[0]
        while True:
            try:
                received += peer.recv(1 << 16)
            except BlockingIOError:
                break
    finally:
        shut_down(server, loop, peer, listener)
    return notified(received)


def test_a_stalled_one_table_peer_collapses_at_its_fifth_frame(monkeypatch):
    """Four frames behind is within the bound; the fifth broadcast it
    misses moves it to that frame, and the frames after it follow."""
    script = [("a", 0)] * 4 + [("a", 1)] * 3
    assert stalled_broadcasts(monkeypatch, ("a",), script) == {
        "a": [5, 6, 7],
        "b": [],
    }


def test_a_stalled_two_table_peer_collapses_per_table(monkeypatch):
    """Each table collapses at its own fifth frame of lag, however far
    the peer lags in the other one: eight frames behind across both
    tables is no collapse."""
    script = [("a", 0)] * 4 + [("b", 0)] * 4  # seq-nos 1-8: lag 4 + 4
    script += [("b", 1), ("a", 2), ("b", 2), ("a", 2)]  # 9-12
    script += [("b", 2)] * 2 + [("b", 3)]  # 13-15: b's fifth frame from 9
    assert stalled_broadcasts(monkeypatch, ("a", "b"), script) == {
        "a": [10, 12],
        "b": [15],
    }


def test_a_peer_gets_its_frames_before_the_collapse_then_the_newest(
    monkeypatch,
):
    """A peer that read two frames of each table and then stalled: per
    table, the wire holds those two, then the newest frame onward."""
    script = [("a", 0), ("b", 0)] * 2  # 1-4, read
    script += [("a", 0)] * 4 + [("a", 1)]  # 5-9: a collapses at 9
    script += [("b", 1)] * 4 + [("b", 2)] * 2 + [("a", 2)]  # 10-16
    assert stalled_broadcasts(monkeypatch, TABLES, script, read=4) == {
        "a": [1, 3, 9, 16],
        "b": [2, 4, 14, 15],
    }


def test_a_long_backlog_reaches_a_two_table_peer_in_whole_frames(monkeypatch):
    """More than one coalesced write of backlog per table, drained to a
    peer that mirrors both tables through a socket that takes 4,099 bytes
    a round, with a PING staged between rounds: the peer reads only whole
    frames (a cursor never rests inside one, so neither the PING nor the
    other table's frames can land in it), each table's in order."""
    per_table = 1500
    server, loop, conn, peer, listener = raw_peer(TABLES, 4 * per_table)
    conn.sock.mode = "metered"
    received = b""
    try:
        monkeypatch.setattr(server_module, "BURST_COST_PER_LINK_S", 3600.0)
        for seq in range(1, per_table + 1):
            for table in TABLES:
                server.broadcast(table, [("insert", seq)])
        for table in TABLES:
            assert len(server._logs[table].buf) > server_module.COALESCE_BYTES
        pings = 0
        for _ in range(1000):
            while loop._commands:
                loop._commands.popleft()[0]()
            conn.sock.budget = 4099
            loop.service_conn(conn)
            if not conn.lag()[0]:
                break
            assert server._post(conn, protocol.encode(protocol.ping(pings)))
            pings += 1
            while True:
                try:
                    received += peer.recv(1 << 20)
                except BlockingIOError:
                    break
        assert not conn.lag()[0] and not conn.closing
        peer.settimeout(5.0)
        while received.count(b"\n") < 1 + 2 * per_table + pings:
            chunk = peer.recv(1 << 20)
            assert chunk
            received += chunk
    finally:
        conn.sock.mode = "open"
        shut_down(server, loop, peer, listener)
    assert received.endswith(b"\n")
    messages = [protocol.decode(line) for line in received.split(b"\n")[:-1]]
    for table in TABLES:
        seqs = [
            m["seq_no"]
            for m in messages
            if m["type"] == protocol.NOTIFY and m["table"] == table
        ]
        assert seqs == list(range(1, per_table + 1)), table
    assert pings > 20
    assert [m["seq"] for m in messages if m["type"] == protocol.PING] == list(
        range(pings)
    )
