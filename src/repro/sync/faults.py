"""Deterministic fault injection for the synchronization transport.

Real deployments of the Section VI-C protocol cross real networks, and
real networks drop, delay, duplicate, truncate and sever connections.
This module makes those failures *reproducible*: a :class:`FaultyTransport`
wraps a :class:`~repro.sync.protocol.MessageStream` and perturbs its
message flow according to a :class:`FaultPlan` -- either at exact message
indices (``drop={3}``, ``disconnect_at=7``) or probabilistically from a
seeded RNG (``drop_rate=0.05, seed=42``), so every test and benchmark
run sees the identical failure schedule.

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

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from ..faults import FaultSchedule, as_index_set
from .protocol import MessageStream, encode


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


class FaultyTransport:
    """A :class:`MessageStream` wrapper that misbehaves on schedule.

    Only the *send* side is perturbed -- in the sync stack the server
    owns the sending end of every callback connection, so wrapping its
    streams covers lost/duplicated/reordered NOTIFYs, dead connections
    and truncated frames as seen by a client.  ``receive``/``close``
    delegate unchanged (so handshakes and PONG consumption still work).

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
        self._stream = stream
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
    def _take_held(self, just_sent: int) -> list[bytes]:
        due = [(i, d) for i, d in self._held if self.plan.hold[i] <= just_sent]
        if not due:
            return []
        self._held = [(i, d) for i, d in self._held if self.plan.hold[i] > just_sent]
        released = []
        for _index, data in sorted(due):
            released.append(data)
            self.reordered += 1
        return released

    def send(self, message: dict[str, Any]) -> None:
        """Blocking driver over :meth:`perturb`: sleep the delay, write
        the chunks, and on ``kill`` close the socket and raise."""
        index = self.sent
        chunks, kill, delay = self.perturb(message)
        if delay:
            self._clock(delay)
        for chunk in chunks:
            self._stream._sock.sendall(chunk)
        if kill:
            self._stream.close()
            raise BrokenPipeError(f"fault injection: severed at message {index}")

    def perturb(self, message: dict[str, Any]) -> tuple[list[bytes], bool, float]:
        """Plan the byte-level effect of sending *message*, without I/O.

        Returns ``(chunks, kill, delay)``: the byte chunks to put on the
        wire in order, whether the connection must be severed once they
        are flushed, and a pre-send delay in seconds.  This is the single
        interpreter of a :class:`FaultPlan`: the event loop's per-client
        send queues consume it directly and the blocking :meth:`send`
        (handshake path) drives it, so a given ``(plan, seed)`` pair
        produces the identical fault schedule on either path.
        """
        plan = self.plan
        index = self._schedule.next_index()
        data = encode(message)
        if plan.disconnect_at is not None and index >= plan.disconnect_at:
            self.disconnected += 1
            return [], True, 0.0
        if plan.truncate_at is not None and index == plan.truncate_at:
            self.truncated += 1
            return [data[: max(1, len(data) // 2)]], True, 0.0
        if index in plan.drop or self._schedule.chance(plan.drop_rate):
            self.dropped += 1
            return self._take_held(index), False, 0.0
        delay = 0.0
        if index in plan.delay:
            self.delayed += 1
            delay = plan.delay[index]
        if index in plan.hold:
            self._held.append((index, data))
            return [], False, 0.0
        chunks = [data]
        if index in plan.duplicate or self._schedule.chance(plan.duplicate_rate):
            self.duplicated += 1
            chunks.append(data)
        chunks.extend(self._take_held(index))
        return chunks, False, delay

    # ------------------------------------------------------------------
    def receive(self, timeout: Optional[float] = None) -> dict[str, Any]:
        return self._stream.receive(timeout)

    def close(self) -> None:
        self._stream.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FaultyTransport(sent={self.sent}, dropped={self.dropped}, "
            f"duplicated={self.duplicated}, reordered={self.reordered}, "
            f"disconnected={self.disconnected})"
        )
