"""A model of the sync server's send side: one send log per table, one
cursor per (connection, log).

The event loop is held still -- its thread never starts, and the test
runs its submitted commands and its writability service by hand -- so
every interleaving of broadcasts, drains, stalls, partial writes,
evictions, detaches, reattaches and faults is one the test chose.  What
each peer should hold is recomputed from scratch: the frames broadcast
on each of its tables between its attach and its eviction or detach.

Invariants, after every step:

* each connection has received, per table, a prefix of its frames, in
  order (a faulted one: of its frames as its ``FaultPlan`` rewrites
  them, with the stalls and partial writes under its fault wrapper); a
  live connection whose socket takes everything holds all of them once
  the loop has run;
* a log holds nothing below its lowest cursor;
* ``queued_frames()`` is the summed lag -- frames not yet fully on the
  wire -- of the live connections;
* a connection is evicted only past ``max_queue_frames`` frames of lag,
  summed over its tables, and a stalled one -- one table or two -- is
  evicted by the broadcast that takes it past them;
* ``close()`` sends every live peer what it owes, then a DISCONNECT.

A second test drains a backlog longer than one coalesced write to a
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
        self.trickled = False

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
        self.peers = {}
        for name, tables in PEERS.items():
            self._connect(name, tables)
        # A SyncClient mirroring both tables on its one endpoint.
        self.client = SyncClient(self.server, auto_reconnect=False)
        self.heard = {table: [] for table in TABLES}
        self.client.on_notify(lambda t, _op, seq: self.heard[t].append(seq))
        for table in TABLES:
            self.client.mirror(table)
        self.client_conn = self.server._endpoints[
            (self.client.host, self.client.port)
        ].conn
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
        else:
            valve = conn.sock = Valve(conn.sock)
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
        self._note_ends({})

    def _read_all(self):
        for peer in self.peers.values():
            peer.read()

    def _note_ends(self, lag_before):
        """Mark connections the server retired; check each eviction."""
        for name, peer in self.peers.items():
            if not peer.ended and peer.conn.closing:
                peer.ended = True
                lag = lag_before.get(name)
                if lag is not None:
                    assert lag > MAX_FRAMES, (name, lag)

    # -- rules -----------------------------------------------------------
    @precondition(lambda self: not self.closed)
    @rule(table=st.sampled_from(TABLES), burst=st.booleans())
    def broadcast(self, table, burst):
        self.seq += 1
        self._read_all()
        lag_before = {}
        for name, peer in self.peers.items():
            if peer.ended or table not in PEERS[name]:
                continue
            peer.expected[table].append(frame(table, self.seq))
            lag = self._lag(name, peer)
            lag_before[name] = None if lag is None else lag
        self.sent[table].append(self.seq)
        window = float("inf") if burst else 0.0
        server_module.BURST_COST_PER_LINK_S, saved = (
            window,
            server_module.BURST_COST_PER_LINK_S,
        )
        try:
            self.server.broadcast(table, [("insert", self.seq)])
        finally:
            server_module.BURST_COST_PER_LINK_S = saved
        self._read_all()
        self._note_ends(lag_before)
        for name, lag in lag_before.items():
            peer = self.peers[name]
            if lag is not None and lag > MAX_FRAMES and not peer.trickled:
                # A stalled peer past the bound is evicted by this broadcast.
                assert peer.ended, (name, lag)

    @rule()
    def run_loop(self):
        self._run_loop()
        self._read_all()
        self._note_ends({})

    @precondition(lambda self: not self.closed)
    @rule()
    def writable(self):
        self._service()
        self._read_all()
        self._note_ends({})

    @precondition(lambda self: not self.closed)
    @rule(
        name=st.sampled_from(sorted(PEERS)),
        mode=st.sampled_from(["open", "shut", "trickle"]),
    )
    def set_valve(self, name, mode):
        peer = self.peers[name]
        if peer.ended:
            return
        peer.valve.mode = mode
        peer.trickled = peer.trickled or mode == "trickle"

    @precondition(lambda self: not self.closed)
    @rule(name=st.sampled_from(sorted(PEERS)))
    def detach(self, name):
        peer = self.peers[name]
        if peer.ended:
            return
        self.server._conn_dead(peer.conn)
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
        """Settle (sockets open, loop run) then close: every live peer
        gets what it owes, then a DISCONNECT."""
        self._settle()
        client_evicted = self.client_conn.closing
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
        # The SyncClient's reader heard every NOTIFY, in order, unless it
        # was evicted (then a prefix).
        deadline = time.monotonic() + 5.0
        while (
            not client_evicted
            and self.heard != self.sent
            and time.monotonic() < deadline
        ):
            time.sleep(0.005)
        for table in TABLES:
            heard = self.heard[table]
            assert heard == self.sent[table][: len(heard)], table
            if not client_evicted:
                assert heard == self.sent[table], table

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
        if not self.client_conn.closing:
            want += self.client_conn.lag()[0]
        assert self.server.queued_frames() == want

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


def test_a_long_backlog_reaches_a_two_table_peer_in_whole_frames(monkeypatch):
    """More than one coalesced write of backlog per table, drained to a
    peer that mirrors both tables through a socket that takes 4,099 bytes
    a round, with a PING staged between rounds: the peer reads only whole
    frames (a cursor never rests inside one, so neither the PING nor the
    other table's frames can land in it), each table's in order."""
    per_table = 1500
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
        max_queue_frames=4 * per_table,
    )
    loop = server_module._EventLoop(server)  # held still: stepped below
    server._loop = loop
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    listener.settimeout(5.0)
    port = listener.getsockname()[1]
    registrar = threading.Thread(
        target=server.register_client, args=("a", "127.0.0.1", port), daemon=True
    )
    registrar.start()
    peer, _ = listener.accept()
    peer.sendall(protocol.encode(protocol.hello()))
    registrar.join(timeout=10.0)
    server.register_client("b", "127.0.0.1", port)
    conn = server._endpoints[("127.0.0.1", port)].conn
    conn.sock = Valve(conn.sock)
    conn.sock.mode = "metered"
    peer.setblocking(False)
    received = b""
    try:
        while loop._commands:  # attach the connection
            loop._commands.popleft()[0]()
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
        server.close()
        peer.close()
        listener.close()
        loop._selector.close()
        loop._rwake.close()
        loop._wwake.close()
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
