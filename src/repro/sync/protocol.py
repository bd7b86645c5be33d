"""Wire protocol for DBMS <-> visualization synchronization.

Section VI-C's protocol, verbatim:

5. The DBMS connects back to the client at ``ip:port`` and expects a
   HELLO message to check that it is the right protocol.
6. The connection manager accepts the connection, sends the HELLO
   message and expects a REPLY message.
7. When R_D is modified, the DBMS trigger sends a NOTIFY message with
   the table name as parameter.
10. When R_M is deleted, it sends a DISCONNECT message.

Messages are newline-delimited JSON objects: ``{"type": ..., ...}``.
"Smooth interaction with a visualization component requires that
notifications be processed very fast, therefore we keep them very
compact and transmit no more information than the above" -- a NOTIFY
carries only the table name and sequence number.
"""

from __future__ import annotations

import json
import socket
from typing import Any, Optional

from ..core.datamodel import OP_DELETE, OP_INSERT, OP_UPDATE
from ..errors import ProtocolError

# Message types.
HELLO = "HELLO"
REPLY = "REPLY"
NOTIFY = "NOTIFY"
# Batched-notification extension: one frame carrying every (op, seq_no)
# of a flush for one table, so a 4096-row burst costs one message
# instead of thousands.  A flush of one event rides a plain NOTIFY.
NOTIFY_BATCH = "NOTIFYB"
DISCONNECT = "DISCONNECT"
# Liveness extension (not in the paper): the DBMS pings each callback
# connection; the client answers.  Either side treats prolonged silence
# as a dead transport and starts recovery.
PING = "PING"
PONG = "PONG"

#: Protocol magic exchanged during the handshake (steps 5-6).
MAGIC = "ediflow-sync-1"

#: Generous bound on one serialized message; protects against garbage peers.
MAX_MESSAGE_BYTES = 1 << 16

#: The one encoder of every frame (``json.dumps`` with any argument
#: builds a new encoder per call).
_ENCODER = json.JSONEncoder(separators=(",", ":"))


def encode(message: dict[str, Any]) -> bytes:
    """Serialize one message to its wire form."""
    data = _ENCODER.encode(message).encode("utf-8") + b"\n"
    if len(data) > MAX_MESSAGE_BYTES:
        raise ProtocolError(f"message too large ({len(data)} bytes)")
    return data


def decode(line: bytes) -> dict[str, Any]:
    """Parse one wire line into a message dict."""
    try:
        message = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"undecodable message: {exc}") from None
    if not isinstance(message, dict) or "type" not in message:
        raise ProtocolError(f"malformed message: {message!r}")
    return message


def hello() -> dict[str, Any]:
    return {"type": HELLO, "magic": MAGIC}


def reply() -> dict[str, Any]:
    return {"type": REPLY, "magic": MAGIC}


def trace_context(
    trace_id: int, span_id: int, sent_ns: int
) -> dict[str, int]:
    """The compact ``ctx`` frame field carrying a span identity.

    While tracing, NOTIFY/NOTIFYB frames carry it -- ``{"t": trace_id,
    "s": span_id, "n": sent_ns}`` -- so the receiver's refresh spans join
    the server-side propagation trace across the socket (no shared link
    registry required).
    """
    return {"t": trace_id, "s": span_id, "n": sent_ns}


def frame_trace_context(
    message: dict[str, Any]
) -> Optional[tuple[int, int, int]]:
    """Decode a frame's ``ctx`` field into ``(trace_id, span_id, sent_ns)``.

    Returns ``None`` when absent or malformed -- trace context is
    best-effort metadata and must never fail a notification.
    """
    raw = message.get("ctx")
    if not isinstance(raw, dict):
        return None
    trace_id, span_id, sent_ns = raw.get("t"), raw.get("s"), raw.get("n")
    if (
        isinstance(trace_id, int)
        and isinstance(span_id, int)
        and isinstance(sent_ns, int)
        and not isinstance(trace_id, bool)
        and not isinstance(span_id, bool)
        and not isinstance(sent_ns, bool)
    ):
        return trace_id, span_id, sent_ns
    return None


def notify(
    table: str, seq_no: int, op: str, ctx: Optional[dict[str, int]] = None
) -> dict[str, Any]:
    message: dict[str, Any] = {
        "type": NOTIFY,
        "table": table,
        "seq_no": seq_no,
        "op": op,
    }
    if ctx is not None:
        message["ctx"] = ctx
    return message


def notify_prefix(table: str) -> bytes:
    """The bytes every untraced NOTIFY on ``table`` starts with:
    ``notify_prefix(table) + str(seq_no).encode() + NOTIFY_TAILS[op]`` is
    ``encode(notify(table, seq_no, op))``, so a sender encodes the table
    name once, not once per frame."""
    return encode({"type": NOTIFY, "table": table})[:-2] + b',"seq_no":'


#: An untraced NOTIFY's bytes after its seq-no, per op.
NOTIFY_TAILS = {
    op: b"," + encode({"op": op})[1:] for op in (OP_INSERT, OP_UPDATE, OP_DELETE)
}


def notify_batch(
    table: str,
    events: list[tuple[str, int]],
    ctx: Optional[dict[str, int]] = None,
) -> dict[str, Any]:
    """One frame for a whole flush: ``events`` is ``[(op, seq_no), ...]``.

    ``lo``/``hi`` carry the covered seq-no range so a receiver can
    advance its cursor and detect gaps without unpacking every event.
    ``ctx`` (while tracing) carries the flush span's context.
    """
    if not events:
        raise ProtocolError("a NOTIFYB frame needs at least one event")
    seqs = [seq_no for _op, seq_no in events]
    message: dict[str, Any] = {
        "type": NOTIFY_BATCH,
        "table": table,
        "lo": min(seqs),
        "hi": max(seqs),
        "events": [[op, seq_no] for op, seq_no in events],
    }
    if ctx is not None:
        message["ctx"] = ctx
    return message


def batch_events(message: dict[str, Any]) -> list[tuple[str, int]]:
    """Decode a NOTIFYB frame back into ``[(op, seq_no), ...]``."""
    raw = message.get("events")
    if not isinstance(raw, list) or not raw:
        raise ProtocolError(f"malformed NOTIFYB events: {message!r}")
    events: list[tuple[str, int]] = []
    for item in raw:
        if (
            not isinstance(item, list)
            or len(item) != 2
            or not isinstance(item[0], str)
            or not isinstance(item[1], int)
        ):
            raise ProtocolError(f"malformed NOTIFYB event: {item!r}")
        events.append((item[0], item[1]))
    return events


def disconnect() -> dict[str, Any]:
    return {"type": DISCONNECT}


def ping(seq: int) -> dict[str, Any]:
    return {"type": PING, "seq": seq}


def pong(seq: int) -> dict[str, Any]:
    return {"type": PONG, "seq": seq}


class MessageStream:
    """Line-framed message I/O over a connected socket."""

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock
        self._buffer = b""

    def send(self, message: dict[str, Any]) -> None:
        self._sock.sendall(encode(message))

    def receive(self, timeout: Optional[float] = None) -> dict[str, Any]:
        """Block until one full message arrives (or raise on EOF/timeout)."""
        self._sock.settimeout(timeout)
        while b"\n" not in self._buffer:
            try:
                chunk = self._sock.recv(4096)
            except socket.timeout:
                raise ProtocolError("timed out waiting for a message") from None
            if not chunk:
                raise ProtocolError("connection closed by peer")
            self._buffer += chunk
            # Bound check *after* appending: a single oversized chunk must
            # not slip past the guard just because the buffer was short
            # before the recv.
            if b"\n" not in self._buffer and len(self._buffer) > MAX_MESSAGE_BYTES:
                raise ProtocolError("peer sent an over-long unterminated line")
        line, self._buffer = self._buffer.split(b"\n", 1)
        if len(line) > MAX_MESSAGE_BYTES:
            raise ProtocolError(f"peer sent an over-long message ({len(line)} bytes)")
        return decode(line)

    def close(self) -> None:
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()


def client_handshake(stream: MessageStream, timeout: float = 5.0) -> None:
    """Client side of steps 5-6: send HELLO, await REPLY."""
    stream.send(hello())
    message = stream.receive(timeout)
    if message.get("type") != REPLY or message.get("magic") != MAGIC:
        raise ProtocolError(f"bad handshake reply: {message!r}")


def server_handshake(stream: MessageStream, timeout: float = 5.0) -> None:
    """Server side of steps 5-6: await HELLO, send REPLY."""
    message = stream.receive(timeout)
    if message.get("type") != HELLO or message.get("magic") != MAGIC:
        raise ProtocolError(f"bad handshake hello: {message!r}")
    stream.send(reply())
