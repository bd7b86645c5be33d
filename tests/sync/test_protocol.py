"""Wire protocol framing and handshake."""

import ast
import json
import socket
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ProtocolError
from repro.sync import protocol

SYNC = Path(protocol.__file__).parent
OPS = tuple(protocol.NOTIFY_TAILS)
#: Table names JSON must escape: quotes, backslashes, control and
#: non-ASCII characters (lone surrogates too).
TABLES = st.text(
    st.one_of(st.sampled_from('"\\/\n\t\x00\x7fé☃😀\ud800'), st.characters()),
    max_size=24,
)
SEQS = st.integers(0, 2**63)
CTX = st.none() | st.builds(protocol.trace_context, SEQS, SEQS, SEQS)


class TestFraming:
    def test_encode_decode_round_trip(self):
        message = protocol.notify("t", 7, "insert")
        assert protocol.decode(protocol.encode(message).strip()) == message

    def test_decode_garbage(self):
        with pytest.raises(ProtocolError):
            protocol.decode(b"\xff\xfe")
        with pytest.raises(ProtocolError):
            protocol.decode(b"[1, 2]")
        with pytest.raises(ProtocolError):
            protocol.decode(b'{"no_type": 1}')

    def test_oversized_message_rejected(self):
        with pytest.raises(ProtocolError, match="too large"):
            protocol.encode({"type": "X", "data": "a" * protocol.MAX_MESSAGE_BYTES})

    def test_message_constructors(self):
        assert protocol.hello()["type"] == protocol.HELLO
        assert protocol.reply()["magic"] == protocol.MAGIC
        notify = protocol.notify("tbl", 3, "delete")
        assert (notify["table"], notify["seq_no"], notify["op"]) == ("tbl", 3, "delete")
        assert protocol.disconnect()["type"] == protocol.DISCONNECT


class TestFrameBytes:
    """The wire is byte-identical however a frame is built."""

    @settings(max_examples=300, deadline=None)
    @given(table=TABLES, seq_no=SEQS, op=st.sampled_from(OPS))
    def test_a_prefix_built_notify_is_the_encoded_notify(self, table, seq_no, op):
        built = protocol.notify_prefix(table) + str(seq_no).encode()
        built += protocol.NOTIFY_TAILS[op]
        message = protocol.notify(table, seq_no, op)
        assert built == protocol.encode(message)
        assert protocol.decode(built.rstrip(b"\n")) == message

    def test_every_op_has_a_tail(self):
        assert set(OPS) == {"insert", "update", "delete"}

    @settings(max_examples=200, deadline=None)
    @given(
        table=TABLES,
        events=st.lists(st.tuples(st.sampled_from(OPS), SEQS), min_size=1, max_size=4),
        ctx=CTX,
        seq=SEQS,
    )
    def test_the_module_encoder_writes_what_json_dumps_writes(
        self, table, events, ctx, seq
    ):
        for message in (
            protocol.notify_batch(table, events, ctx=ctx),
            protocol.notify(table, seq, events[0][0], ctx=ctx),
            protocol.ping(seq),
            protocol.pong(seq),
            protocol.hello(),
            protocol.reply(),
            protocol.disconnect(),
        ):
            dumped = json.dumps(message, separators=(",", ":")).encode("utf-8")
            assert protocol.encode(message) == dumped + b"\n"


def json_dumps_calls(source):
    """Lines of ``source`` that call ``json.dumps`` or import ``dumps``."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "dumps"
            and getattr(node.func.value, "id", None) == "json"
        )
        or (
            isinstance(node, ast.ImportFrom)
            and node.module == "json"
            and any(alias.name == "dumps" for alias in node.names)
        )
    )


def _mentions(node, name):
    return any(getattr(n, "id", None) == name for n in ast.walk(node))


def _slow_sides(test):
    """``(body, orelse)``: which side of an ``if`` on ``test`` is the
    multi-event or traced frame -- ``len(events)`` past one, or a
    ``ctx``.  Neither, for a test on anything else."""
    if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.And):
        sides = [_slow_sides(value) for value in test.values]
        # All true is the fast frame only if every term says so.
        return any(body for body, _ in sides), all(orelse for _, orelse in sides)
    if isinstance(test, ast.Name) and test.id == "ctx":
        return True, False
    if isinstance(test, ast.Compare) and len(test.ops) == 1:
        left, op = test.left, test.ops[0]
        if isinstance(left, ast.Name) and left.id == "ctx":
            return isinstance(op, ast.IsNot), isinstance(op, ast.Is)
        if isinstance(left, ast.Call) and _mentions(left, "events"):
            bound = getattr(test.comparators[0], "value", None)
            many = isinstance(op, ast.Gt) and bound == 1 or isinstance(op, ast.NotEq)
            return many, isinstance(op, ast.Eq) and bound == 1
    return False, False


def fast_path_encodes(source):
    """Lines where ``SyncServer.broadcast`` calls ``protocol.encode`` for
    a one-event untraced NOTIFY: outside every branch that a test of
    ``len(events)`` or ``ctx`` makes the multi-event or traced one."""
    broadcast = None
    for top in ast.parse(source).body:
        if isinstance(top, ast.ClassDef) and top.name == "SyncServer":
            for node in top.body:
                if isinstance(node, ast.FunctionDef) and node.name == "broadcast":
                    broadcast = node
    hits = []

    def visit(node, slow):
        if isinstance(node, ast.If):
            body_slow, orelse_slow = _slow_sides(node.test)
            visit(node.test, slow)
            for child in node.body:
                visit(child, slow or body_slow)
            for child in node.orelse:
                visit(child, slow or orelse_slow)
            return
        if (
            not slow
            and isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "encode"
            and getattr(node.func.value, "id", None) == "protocol"
        ):
            hits.append(node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child, slow)

    if broadcast is not None:
        visit(broadcast, False)
    return sorted(hits)


def test_the_protocol_encodes_with_its_one_encoder():
    assert json_dumps_calls((SYNC / "protocol.py").read_text(encoding="utf-8")) == []


def test_an_untraced_notify_is_the_tables_prefix_not_an_encode():
    server = (SYNC / "server.py").read_text(encoding="utf-8")
    assert "def broadcast" in server
    assert fast_path_encodes(server) == []


def test_the_frame_tripwires_fire_on_planted_offenders():
    parent_protocol = (
        "import json\n"
        "from json import dumps\n"
        "def encode(message):\n"
        "    data = json.dumps(message, separators=(',', ':')).encode()\n"
    )
    assert json_dumps_calls(parent_protocol) == [2, 4]
    # The parent's broadcast encoded every frame; a fast path that still
    # encodes is as bad.  The slow branches may encode, in any spelling.
    parent_server = (
        "class SyncServer:\n"
        "    def broadcast(self, table, events):\n"
        "        if len(events) == 1:\n"
        "            message = protocol.notify(table, seq_no, op, ctx=ctx)\n"
        "        else:\n"
        "            message = protocol.notify_batch(table, events, ctx=ctx)\n"
        "        data = protocol.encode(message)\n"
        "        if len(events) == 1 and ctx is None:\n"
        "            data = protocol.encode(protocol.notify(table, 1, op))\n"
        "        elif ctx is not None:\n"
        "            data = protocol.encode(protocol.notify(table, 1, op, ctx=ctx))\n"
        "        if len(events) > 1:\n"
        "            data = protocol.encode(protocol.notify_batch(table, events))\n"
        "        elif ctx:\n"
        "            data = protocol.encode(protocol.notify(table, 1, op, ctx=ctx))\n"
        "        else:\n"
        "            data = protocol.encode(protocol.notify(table, 1, op))\n"
    )
    assert fast_path_encodes(parent_server) == [7, 9, 17]


def socket_pair():
    server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    server.bind(("127.0.0.1", 0))
    server.listen(1)
    port = server.getsockname()[1]
    client = socket.create_connection(("127.0.0.1", port))
    accepted, _ = server.accept()
    server.close()
    return client, accepted


class TestMessageStream:
    def test_send_receive(self):
        a, b = socket_pair()
        stream_a = protocol.MessageStream(a)
        stream_b = protocol.MessageStream(b)
        stream_a.send(protocol.notify("t", 1, "insert"))
        stream_a.send(protocol.notify("t", 2, "insert"))
        first = stream_b.receive(timeout=2)
        second = stream_b.receive(timeout=2)
        assert first["seq_no"] == 1
        assert second["seq_no"] == 2
        stream_a.close()
        stream_b.close()

    def test_receive_after_close_raises(self):
        a, b = socket_pair()
        stream_a = protocol.MessageStream(a)
        stream_b = protocol.MessageStream(b)
        stream_a.close()
        with pytest.raises(ProtocolError, match="closed"):
            stream_b.receive(timeout=2)
        stream_b.close()

    def test_timeout(self):
        a, b = socket_pair()
        stream_b = protocol.MessageStream(b)
        with pytest.raises(ProtocolError, match="timed out"):
            stream_b.receive(timeout=0.05)
        a.close()
        stream_b.close()


class TestHandshake:
    def test_successful_handshake(self):
        a, b = socket_pair()
        stream_client = protocol.MessageStream(a)  # visualization host
        stream_server = protocol.MessageStream(b)  # DBMS side
        errors = []

        def server_side():
            try:
                protocol.server_handshake(stream_server, timeout=2)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        thread = threading.Thread(target=server_side)
        thread.start()
        protocol.client_handshake(stream_client, timeout=2)
        thread.join()
        assert not errors
        stream_client.close()
        stream_server.close()

    def test_bad_magic_rejected(self):
        a, b = socket_pair()
        stream_a = protocol.MessageStream(a)
        stream_b = protocol.MessageStream(b)
        stream_a.send({"type": protocol.HELLO, "magic": "wrong"})
        with pytest.raises(ProtocolError, match="bad handshake"):
            protocol.server_handshake(stream_b, timeout=2)
        stream_a.close()
        stream_b.close()

    def test_wrong_message_type_rejected(self):
        a, b = socket_pair()
        stream_a = protocol.MessageStream(a)
        stream_b = protocol.MessageStream(b)
        stream_a.send(protocol.notify("t", 1, "insert"))
        with pytest.raises(ProtocolError, match="bad handshake"):
            protocol.server_handshake(stream_b, timeout=2)
        stream_a.close()
        stream_b.close()
