"""FaultyTransport and protocol edge cases: the wire misbehaving on
schedule must never corrupt mirrors or hang the stack."""

import socket
import threading

import pytest

from repro.db import Column, Database
from repro.db.types import FLOAT, INTEGER
from repro.errors import ProtocolError, SyncError
from repro.sync import (
    FaultPlan,
    FaultyTransport,
    NotificationCenter,
    SyncClient,
    SyncServer,
    protocol,
)
from repro.sync import faults as faults_module


def stream_pair():
    """A connected (sender_stream, receiver_stream) over loopback TCP."""
    acceptor = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    acceptor.bind(("127.0.0.1", 0))
    acceptor.listen(1)
    port = acceptor.getsockname()[1]
    out_sock = socket.create_connection(("127.0.0.1", port))
    in_sock, _ = acceptor.accept()
    acceptor.close()
    return protocol.MessageStream(out_sock), protocol.MessageStream(in_sock)


class FakeTime:
    """The fault module's clock, advanced only by the sleeps it records."""

    def __init__(self):
        self.now = 0.0
        self.slept = []

    def monotonic(self):
        return self.now

    def sleep(self, seconds):
        self.slept.append(seconds)
        self.now += seconds


class Wire:
    """A socket stand-in that records what it is sent.  It takes at most
    ``per_call`` bytes a call and, when non-blocking, pushes back on
    every other call, as a full kernel buffer would."""

    def __init__(self, per_call=None):
        self.data = b""
        self.per_call = per_call
        self.timeout = None
        self.calls = 0
        self.shut = False

    def send(self, data):
        assert not self.shut, "sent after the sever"
        self.calls += 1
        if self.timeout == 0.0 and self.calls % 2 == 0:
            raise BlockingIOError("stubbed: kernel buffer full")
        data = bytes(data[: self.per_call])
        self.data += data
        return len(data)

    def gettimeout(self):
        return self.timeout

    def setblocking(self, flag):
        self.timeout = None if flag else 0.0

    def shutdown(self, how):
        self.shut = True

    def close(self):
        self.shut = True


def whole_frames(faulty, messages):
    """The handshake's way: a blocking ``sendall`` per frame."""
    for message in messages:
        faulty.send(message)


def offer(faulty, data, size):
    """The event loop's way: a non-blocking socket offered at most
    ``size`` bytes of what it has not taken, again after each push-back;
    a held-back deadline is waited out on the transport's clock."""
    sock = faulty._sock
    sock.setblocking(False)
    while data:
        try:
            data = data[sock.send(data[:size]) :]
        except BlockingIOError:
            if sock.not_before:
                faulty._clock(sock.not_before - faults_module.time.monotonic())


def coalesced(faulty, messages):
    """Every frame not yet taken, in one ``send`` call."""
    offer(faulty, b"".join(map(protocol.encode, messages)), None)


def fragmented(faulty, messages):
    """Seven bytes a call, cutting frames anywhere."""
    offer(faulty, b"".join(map(protocol.encode, messages)), 7)


# "send": whole_frames is FaultyTransport.send, frame by frame.
@pytest.fixture(params=[whole_frames, coalesced], ids=["send", "coalesced"])
def drive(request):
    return request.param


#: One plan per fault kind, plus the message that is both delayed and
#: held (it is buffered, so no delay is slept for it on either path).
PLANS = {
    "drop": FaultPlan(drop=frozenset({1})),
    "duplicate": FaultPlan(duplicate=frozenset({0})),
    "hold": FaultPlan(hold={0: 1}),
    "disconnect": FaultPlan(disconnect_at=1),
    "truncate": FaultPlan(truncate_at=2),
    "rates": FaultPlan(drop_rate=0.5, duplicate_rate=0.3),
    "delay": FaultPlan(delay={1: 0.25}),
    "delayed_and_held": FaultPlan(delay={0: 0.25}, hold={0: 2}),
}


def run_plan(monkeypatch, plan, drive, per_call=None, messages=12, seed=42):
    """Drive ``messages`` NOTIFYs through a fresh transport over a
    :class:`Wire` that takes ``per_call`` bytes a call; returns ``(bytes
    on the wire, counters, delays slept)``."""
    clock = FakeTime()
    monkeypatch.setattr(faults_module, "time", clock)
    wire = Wire(per_call)
    faulty = FaultyTransport(
        protocol.MessageStream(wire), plan, seed=seed, clock=clock.sleep
    )
    try:
        drive(faulty, [protocol.notify("t", seq, "insert") for seq in range(messages)])
    except OSError:
        assert wire.shut
    counters = {
        name: getattr(faulty, name)
        for name in (
            "sent",
            "dropped",
            "duplicated",
            "delayed",
            "reordered",
            "truncated",
            "disconnected",
        )
    }
    return wire.data, counters, clock.slept


class TestFaultyTransportUnit:
    @pytest.mark.parametrize("name", sorted(PLANS))
    def test_any_chunking_is_one_schedule(self, monkeypatch, name):
        """Whatever the chunking -- one blocking ``sendall`` per frame,
        several frames per non-blocking ``send``, frames cut anywhere --
        and however few bytes the socket takes per call, a plan puts the
        same bytes on the wire, counts the same faults and sleeps the
        same delays."""
        plan = PLANS[name]
        want = run_plan(monkeypatch, plan, whole_frames)
        for per_call in (None, 5):
            for drive in (whole_frames, coalesced, fragmented):
                got = run_plan(monkeypatch, plan, drive, per_call)
                assert got == want, (drive.__name__, per_call)

    def test_delayed_and_held_message_is_buffered_not_slept(self, monkeypatch, drive):
        wire, counters, slept = run_plan(
            monkeypatch, PLANS["delayed_and_held"], drive, messages=3
        )
        got = [protocol.decode(line)["seq_no"] for line in wire.splitlines()]
        assert got == [1, 2, 0]
        assert counters["delayed"] == 1 and counters["reordered"] == 1
        assert slept == []

    def test_drop_at_index(self, drive):
        sender, receiver = stream_pair()
        faulty = FaultyTransport(sender, FaultPlan(drop=frozenset({1})))
        drive(faulty, [protocol.notify("t", seq, "insert") for seq in range(3)])
        got = [receiver.receive(timeout=2)["seq_no"] for _ in range(2)]
        assert got == [0, 2]
        assert faulty.dropped == 1
        faulty.close()
        receiver.close()

    def test_duplicate_at_index(self, drive):
        sender, receiver = stream_pair()
        faulty = FaultyTransport(sender, FaultPlan(duplicate=frozenset({0})))
        drive(faulty, [protocol.notify("t", 7, "insert")])
        assert receiver.receive(timeout=2)["seq_no"] == 7
        assert receiver.receive(timeout=2)["seq_no"] == 7
        assert faulty.duplicated == 1
        faulty.close()
        receiver.close()

    def test_hold_reorders_deterministically(self, drive):
        sender, receiver = stream_pair()
        # Message 0 is held until message 1 has been sent: arrival order 1, 0.
        faulty = FaultyTransport(sender, FaultPlan(hold={0: 1}))
        drive(faulty, [protocol.notify("t", seq, "insert") for seq in range(2)])
        got = [receiver.receive(timeout=2)["seq_no"] for _ in range(2)]
        assert got == [1, 0]
        assert faulty.reordered == 1
        faulty.close()
        receiver.close()

    def test_disconnect_at_kills_socket(self, drive):
        sender, receiver = stream_pair()
        faulty = FaultyTransport(sender, FaultPlan(disconnect_at=1))
        drive(faulty, [protocol.notify("t", 0, "insert")])
        with pytest.raises(OSError):
            drive(faulty, [protocol.notify("t", 1, "insert")])
        assert receiver.receive(timeout=2)["seq_no"] == 0
        with pytest.raises(ProtocolError, match="closed"):
            receiver.receive(timeout=2)
        faulty.close()
        receiver.close()

    def test_truncate_leaves_partial_line_then_eof(self, drive):
        sender, receiver = stream_pair()
        faulty = FaultyTransport(sender, FaultPlan(truncate_at=0))
        with pytest.raises(OSError):
            drive(faulty, [protocol.notify("t", 0, "insert")])
        # The peer sees a half message and then EOF -- a loud protocol
        # error, never a silently-parsed partial frame.
        with pytest.raises(ProtocolError):
            receiver.receive(timeout=2)
        faulty.close()
        receiver.close()

    def test_probabilistic_drops_are_seeded(self, drive):
        def run(seed):
            sender, receiver = stream_pair()
            faulty = FaultyTransport(
                sender, FaultPlan(drop_rate=0.5), seed=seed
            )
            drive(faulty, [protocol.notify("t", seq, "insert") for seq in range(20)])
            received = []
            try:
                while len(received) < 20 - faulty.dropped:
                    received.append(receiver.receive(timeout=2)["seq_no"])
            finally:
                faulty.close()
                receiver.close()
            return received

        assert run(42) == run(42)
        assert run(42) != run(43)


class TestProtocolEdgeCases:
    def test_wrong_magic_handshake_rejected(self):
        sender, receiver = stream_pair()
        sender.send({"type": protocol.HELLO, "magic": "not-ediflow"})
        with pytest.raises(ProtocolError, match="bad handshake"):
            protocol.server_handshake(receiver, timeout=2)
        sender.close()
        receiver.close()

    def test_wrong_magic_reply_rejected(self):
        sender, receiver = stream_pair()
        receiver.send({"type": protocol.REPLY, "magic": "evil"})

        def absorb_hello():
            try:
                receiver.receive(timeout=2)
            except ProtocolError:
                pass

        thread = threading.Thread(target=absorb_hello, daemon=True)
        thread.start()
        with pytest.raises(ProtocolError, match="bad handshake"):
            protocol.client_handshake(sender, timeout=2)
        thread.join(timeout=2)
        sender.close()
        receiver.close()

    def test_truncated_json_line_is_protocol_error(self):
        sender, receiver = stream_pair()
        sender._sock.sendall(b'{"type": "NOTIFY", "table"\n')
        with pytest.raises(ProtocolError, match="undecodable"):
            receiver.receive(timeout=2)
        sender.close()
        receiver.close()

    def test_oversized_outgoing_message_rejected(self):
        with pytest.raises(ProtocolError, match="too large"):
            protocol.encode({"type": "NOTIFY", "pad": "x" * (1 << 17)})

    def test_oversized_terminated_line_rejected(self):
        # A peer ignoring our encoder can still ship a huge *terminated*
        # line; the receiver must bound it, not decode it.
        sender, receiver = stream_pair()
        payload = b'{"type": "NOTIFY", "pad": "' + b"x" * (1 << 17) + b'"}\n'
        thread = threading.Thread(
            target=lambda: sender._sock.sendall(payload), daemon=True
        )
        thread.start()
        with pytest.raises(ProtocolError, match="over-long"):
            receiver.receive(timeout=5)
        thread.join(timeout=2)
        sender.close()
        receiver.close()

    def test_disconnect_during_handshake(self):
        sender, receiver = stream_pair()
        sender.close()  # peer vanishes before HELLO
        with pytest.raises(ProtocolError, match="closed"):
            protocol.server_handshake(receiver, timeout=2)
        receiver.close()


def fault_stack(plans, heartbeat_interval=None, **client_kwargs):
    """A socket-mode stack whose Nth callback connection gets plans[N]
    (subsequent connections run clean)."""
    db = Database()
    db.create_table(
        "pts",
        [Column("id", INTEGER, nullable=False), Column("x", FLOAT)],
        primary_key="id",
    )
    center = NotificationCenter(db)
    queue = list(plans)
    transports = []

    def factory(stream):
        plan = queue.pop(0) if queue else None
        transport = FaultyTransport(stream, plan)
        transports.append(transport)
        return transport

    server = SyncServer(
        db,
        center,
        use_sockets=True,
        heartbeat_interval=heartbeat_interval,
        transport_factory=factory,
    )
    client = SyncClient(server, **client_kwargs)
    return db, server, client, transports


def mirrored_ids(client):
    return sorted(r["id"] for r in client.table("pts").all_rows())


class TestFaultyFullCycle:
    """register -> NOTIFY -> refresh with a misbehaving wire."""

    def test_dropped_notifies_do_not_lose_data(self):
        # Messages: 0 = handshake REPLY, 1.. = NOTIFYs (heartbeats off).
        db, server, client, transports = fault_stack(
            [FaultPlan(drop=frozenset({1, 3}))]
        )
        try:
            client.mirror("pts")
            for i in range(4):
                db.insert("pts", {"id": i, "x": float(i)})
            # NOTIFYs 2 and 4 arrive; 1 and 3 were dropped.
            assert client.wait_dirty("pts", timeout=5.0)
            client.refresh("pts")
            # The pull path reads changes_since(last_seq_no), so dropped
            # notifications cost latency, never data.
            assert mirrored_ids(client) == [0, 1, 2, 3]
            assert transports[0].dropped == 2
        finally:
            client.close()
            server.close()

    def test_duplicated_and_reordered_notifies_converge(self):
        db, server, client, transports = fault_stack(
            [FaultPlan(duplicate=frozenset({1}), hold={2: 3})]
        )
        try:
            client.mirror("pts")
            for i in range(4):
                db.insert("pts", {"id": i, "x": float(i)})
            assert client.wait_dirty("pts", timeout=5.0)
            deadline_ids = [0, 1, 2, 3]
            client.refresh("pts")
            assert mirrored_ids(client) == deadline_ids
            assert transports[0].duplicated == 1
            assert transports[0].reordered == 1
            # Refreshing again changes nothing: duplicate NOTIFYs coalesce
            # into dirty flags, they are never applied twice.
            stats = client.refresh("pts")
            assert stats == {"upserts": 0, "deletes": 0}
            assert mirrored_ids(client) == deadline_ids
        finally:
            client.close()
            server.close()

    def test_mid_handshake_truncation_fails_registration_cleanly(self):
        db, server, client, _transports = fault_stack([FaultPlan(truncate_at=0)])
        try:
            with pytest.raises(SyncError):
                client.mirror("pts")
            # No ConnectedUser row survives the failed registration.
            from repro.core import datamodel

            assert db.query(f"SELECT * FROM {datamodel.T_CONNECTED_USER}") == []
        finally:
            client.close()
            server.close()
