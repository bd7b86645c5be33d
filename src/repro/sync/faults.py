"""Deterministic fault injection for the synchronization transport.

Real deployments of the Section VI-C protocol cross real networks, and
real networks drop, delay, duplicate, truncate and sever connections.
This module makes those failures *reproducible*: a :class:`FaultyTransport`
is a :class:`~repro.sync.protocol.MessageStream` with a socket wrapper
under it that rewrites the outgoing frames according to a
:class:`FaultPlan` -- either at exact message indices (``drop={3}``,
``disconnect_at=7``) or probabilistically from a seeded RNG
(``drop_rate=0.05, seed=42``), so every test and benchmark run sees the
identical failure schedule.  The plan acts on bytes at the socket, so the
handshake's blocking ``sendall`` and the event loop's coalesced
non-blocking ``send`` go through the one interpreter and the server has
no faulted code path of its own.

Injection point: :class:`~repro.sync.server.SyncServer` accepts a
``transport_factory`` callable applied to every callback stream it opens,
so the full register -> NOTIFY -> refresh cycle can run over a faulty
wire without touching any production code path::

    plan = FaultPlan(disconnect_at=5)
    server = SyncServer(db, center, use_sockets=True,
                        transport_factory=lambda s: FaultyTransport(s, plan))

Message indices are 0-based and count *sent* messages on this transport,
including the handshake REPLY -- the first NOTIFY on a fresh callback
connection is index 1.
"""

from __future__ import annotations

import socket
import time
from contextlib import suppress
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from ..faults import FaultSchedule, as_index_set
from .protocol import MessageStream


@dataclass
class FaultPlan:
    """Declarative schedule of transport faults.

    Indexed rules fire at exact 0-based send indices; rate rules fire
    with the given probability per message, drawn from the transport's
    seeded :class:`~repro.faults.FaultSchedule`.  Multiple rules may hit
    the same message; they apply in the order: disconnect, truncate,
    drop, delay, duplicate, hold.
    """

    #: Send indices whose message is silently discarded.
    drop: frozenset = field(default_factory=frozenset)
    #: Send indices whose message is sent twice back-to-back.
    duplicate: frozenset = field(default_factory=frozenset)
    #: index -> seconds: sleep before sending this message.
    delay: dict = field(default_factory=dict)
    #: index -> release_after_index: buffer this message and emit it only
    #: after the later index has been sent (deterministic reordering).
    hold: dict = field(default_factory=dict)
    #: Send half the bytes of this message, then kill the socket.
    truncate_at: Optional[int] = None
    #: Kill the socket instead of sending this message.
    disconnect_at: Optional[int] = None
    #: Probability [0, 1] of dropping any given message.
    drop_rate: float = 0.0
    #: Probability [0, 1] of duplicating any given message.
    duplicate_rate: float = 0.0

    def __post_init__(self) -> None:
        self.drop = as_index_set(self.drop)
        self.duplicate = as_index_set(self.duplicate)


class FaultyTransport(MessageStream):
    """A :class:`MessageStream` whose socket misbehaves on schedule.

    Only the *send* side is perturbed -- the server owns the sending end
    of every callback connection, so this covers lost, duplicated and
    reordered NOTIFYs, dead connections and truncated frames as a client
    sees them.  The stream's socket is wrapped in a :class:`_FaultySocket`,
    which the server's event loop adopts like any socket; receiving and
    closing pass through.

    All randomness and event counting comes from a private
    :class:`~repro.faults.FaultSchedule`; identical (plan, seed) pairs
    yield identical fault schedules.
    """

    def __init__(
        self,
        stream: MessageStream,
        plan: Optional[FaultPlan] = None,
        seed: int = 0,
        clock: Callable[[float], None] = time.sleep,
    ) -> None:
        # A duck-typed socket: what it does not fault passes through.
        super().__init__(_FaultySocket(stream._sock, self))  # type: ignore[arg-type]
        self._buffer = stream._buffer
        self.plan = plan or FaultPlan()
        self._schedule = FaultSchedule(seed)
        self._clock = clock
        self._held: list[tuple[int, bytes]] = []
        # Counters (tests and benchmarks read these).
        self.dropped = 0
        self.duplicated = 0
        self.delayed = 0
        self.reordered = 0
        self.truncated = 0
        self.disconnected = 0

    @property
    def sent(self) -> int:
        """Messages offered to this transport (including perturbed ones)."""
        return self._schedule.count

    # ------------------------------------------------------------------
    def _take_held(self, just_sent: int) -> bytes:
        due = [(i, d) for i, d in self._held if self.plan.hold[i] <= just_sent]
        self._held = [(i, d) for i, d in self._held if self.plan.hold[i] > just_sent]
        self.reordered += len(due)
        return b"".join(data for _index, data in sorted(due))

    def _frame(self, data: bytes) -> tuple[bytes, Optional[int], float]:
        """The one interpreter of the plan: what goes on the wire for the
        next frame, ``data``.

        Returns ``(out, kill, delay)``: the bytes to write, the send
        index to sever the connection at once they are written (or None),
        and the seconds to wait before writing them.
        """
        plan = self.plan
        index = self._schedule.next_index()
        if plan.disconnect_at is not None and index >= plan.disconnect_at:
            self.disconnected += 1
            return b"", index, 0.0
        if plan.truncate_at is not None and index == plan.truncate_at:
            self.truncated += 1
            return data[: max(1, len(data) // 2)], index, 0.0
        if index in plan.drop or self._schedule.chance(plan.drop_rate):
            self.dropped += 1
            return self._take_held(index), None, 0.0
        delay = 0.0
        if index in plan.delay:
            self.delayed += 1
            delay = plan.delay[index]
        if index in plan.hold:
            self._held.append((index, data))
            return b"", None, 0.0
        out = data
        if index in plan.duplicate or self._schedule.chance(plan.duplicate_rate):
            self.duplicated += 1
            out += data
        return out + self._take_held(index), None, delay

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FaultyTransport(sent={self.sent}, dropped={self.dropped}, "
            f"duplicated={self.duplicated}, reordered={self.reordered}, "
            f"disconnected={self.disconnected})"
        )


class _FaultySocket:
    """The socket under a :class:`FaultyTransport`.

    :meth:`send` splits what it is given at the frame newlines and writes
    what the plan makes of each frame.  It answers like a socket: its
    count covers the frames whose planned bytes all reached the real
    socket, and of a frame whose bytes did not, all but the newline -- a
    partial write, whose tail the caller offers again before anything
    else, so each frame is planned once and is still owed until it is on
    the wire.  Planned bytes wait here only while the kernel refuses them
    or, non-blocking, until a delay's deadline :attr:`not_before`; a
    blocking socket sleeps the delay on the transport's clock.  A
    truncation's bytes are written before the socket is shut down; after
    that every send raises.
    """

    def __init__(self, sock: Any, transport: FaultyTransport) -> None:
        self._sock = sock
        self._transport = transport
        #: Planned bytes the real socket has not taken yet.
        self._out = b""
        #: Bytes at the head of the next offer that are already planned.
        self._planned = 0
        #: The head of an unterminated frame (counted as sent).
        self._partial = b""
        #: Send index to sever the connection at once ``_out`` is written.
        self._kill: Optional[int] = None
        #: ``time.monotonic()`` before which ``_out`` is held back, or 0.
        self.not_before = 0.0

    def send(self, data: Any) -> int:
        done = 0
        while True:
            if self._out:
                if self.not_before:
                    if time.monotonic() < self.not_before:
                        break
                    self.not_before = 0.0
                try:
                    sent = self._sock.send(self._out)
                except (BlockingIOError, InterruptedError):
                    break
                self._out = self._out[sent:]
                continue
            done += self._planned
            self._planned = 0
            if self._kill is not None:
                with suppress(OSError):
                    self._sock.shutdown(socket.SHUT_RDWR)
                raise BrokenPipeError(
                    f"fault injection: severed at message {self._kill}"
                )
            end = data.find(b"\n", done)
            if end < 0:
                self._partial += bytes(data[done:])
                return len(data)
            frame, self._partial = self._partial + bytes(data[done : end + 1]), b""
            self._planned = end + 1 - done
            self._out, self._kill, delay = self._transport._frame(frame)
            if not delay:
                continue
            if self._sock.gettimeout() == 0.0:
                self.not_before = time.monotonic() + delay
            else:
                self._transport._clock(delay)
        # The frame not yet all written stays owed: count all of it but its
        # newline, so the caller offers that again first.
        done += self._planned - 1
        self._planned = 1
        if not done:
            raise BlockingIOError("fault injection: frame held back")
        return done

    def sendall(self, data: bytes) -> None:
        while data:
            data = data[self.send(data) :]

    def __getattr__(self, name: str) -> Any:
        return getattr(self._sock, name)
