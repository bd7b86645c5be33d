"""Declarative update-propagation policies and delta coalescing.

Section V of the paper defines three propagation behaviors for pushing
changes of R_D toward their consumers:

P1 (*immediate*)
    every statement-level change propagates as it happens -- the
    default, and the only behavior the repro had before this module.
P2 (*deferred to completion*)
    changes accumulate and propagate when an activity (or the caller)
    says the unit of work is done -- :class:`Manual`.
P3 (*periodic*)
    changes accumulate and propagate every T milliseconds or every N
    changes, whichever comes first -- :class:`Threshold`.

A policy object is pure decision logic.  The mechanism that applies it
-- which key has which policy, the buffered :class:`DeltaCoalescer` per
key, when a buffer flushes, the timer behind ``max_delay_ms`` -- exists
once, as :class:`PolicyGate`.  Each layer with consumers to feed
(:class:`~repro.sync.notification.NotificationCenter`, keys: table;
:class:`~repro.ivm.registry.ViewRegistry`, keys: ``(view, base table)``;
:class:`~repro.workflow.propagation.PropagationManager`, keys: relation)
constructs one gate over the database lock and supplies only its
``deliver`` callback: what shipping a *net* delta means for its consumers.
The net is taken by :class:`~repro.db.table.DeltaCoalescer`, which the
database's commit routine uses too (a transaction is the same kind of
window), so it lives beside :class:`~repro.db.table.ChangeSet`.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Hashable, Optional

from ..db.table import ChangeSet, DeltaCoalescer
from ..errors import SyncError


class PropagationPolicy:
    """Base class: when should buffered changes flush?

    ``should_flush`` is consulted after every enqueued change;
    ``max_delay_ms`` (when not ``None``) lets a timer flush batches that
    would otherwise sit forever on an idle table.
    """

    kind: str = "abstract"
    max_delay_ms: Optional[float] = None

    def should_flush(self, pending_ops: int, age_ms: float) -> bool:
        raise NotImplementedError

    @property
    def buffers(self) -> bool:
        """True when changes are queued rather than propagated inline."""
        return self.kind != "immediate"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"


@dataclass(frozen=True, repr=False)
class Immediate(PropagationPolicy):
    """P1: propagate every change as it happens (the default)."""

    kind = "immediate"

    def should_flush(self, pending_ops: int, age_ms: float) -> bool:
        return True


@dataclass(frozen=True, repr=False)
class Threshold(PropagationPolicy):
    """P3 (periodic): flush after ``max_changes`` ops or ``max_delay_ms``
    milliseconds, whichever comes first.

    ``max_delay_ms=None`` disables the time bound (pure count batching).
    """

    max_changes: int = 64
    max_delay_ms: Optional[float] = 50.0

    kind = "threshold"

    def __post_init__(self) -> None:
        if self.max_changes < 1:
            raise SyncError(f"max_changes must be >= 1, got {self.max_changes}")
        if self.max_delay_ms is not None and self.max_delay_ms <= 0:
            raise SyncError(f"max_delay_ms must be positive, got {self.max_delay_ms}")

    def should_flush(self, pending_ops: int, age_ms: float) -> bool:
        if pending_ops >= self.max_changes:
            return True
        return self.max_delay_ms is not None and age_ms >= self.max_delay_ms

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Threshold(max_changes={self.max_changes}, "
            f"max_delay_ms={self.max_delay_ms})"
        )


@dataclass(frozen=True, repr=False)
class Manual(PropagationPolicy):
    """P2 (deferred to completion): flush only when the owner says so.

    The workflow engine flushes manual-policy relations whenever an
    activity completes; any caller can flush explicitly at any time.
    """

    kind = "manual"

    def should_flush(self, pending_ops: int, age_ms: float) -> bool:
        return False


#: Shared singletons for the zero-argument policies.
IMMEDIATE = Immediate()
MANUAL = Manual()


class PolicyGate:
    """Section V's propagation mechanism: buffer, coalesce, flush, timer.

    A key with no policy is *immediate*: :meth:`offer` returns ``False``
    and the caller delivers inline.  Under a buffering policy the change
    is folded into the key's :class:`DeltaCoalescer` and ``deliver(key,
    coalescer)`` -- the layer's own: ship this net delta to my consumers,
    return the net operations shipped -- runs when the policy says so
    (count overflow), when the time bound expires (the gate's one timer
    thread), or on an explicit :meth:`flush`.

    Locking: triggers call :meth:`offer` holding ``outer_lock`` (the
    database lock), so every path that takes both uses the order ``outer
    -> gate``.  ``deliver`` runs under the outer lock and outside the
    gate's own, so it may write to the database and re-enter the gate.
    """

    def __init__(
        self, outer_lock: Any, deliver: Callable[[Any, DeltaCoalescer], int]
    ) -> None:
        self._outer = outer_lock
        self._deliver = deliver
        self._lock = threading.Lock()
        # The timer sleeps on this until the earliest pending deadline.
        self._wake = threading.Condition(self._lock)
        # Absent key = immediate.
        self._policies: dict[Hashable, PropagationPolicy] = {}
        # key -> (buffered changes, time.monotonic() of the first one).
        self._pending: dict[Hashable, tuple[DeltaCoalescer, float]] = {}
        self._timer: Optional[threading.Thread] = None
        self._closed = False

    # ------------------------------------------------------------------
    # Trigger half
    def offer(self, key: Hashable, change: ChangeSet) -> bool:
        """Take ``change`` if ``key`` buffers; ``False`` means it does not
        and the caller propagates the change itself, now.

        A buffered change that makes the policy's ``should_flush`` true
        is flushed before returning.
        """
        with self._lock:
            policy = self._policies.get(key)
            if policy is None:
                return False
            now = time.monotonic()
            entry = self._pending.get(key)
            if entry is None:
                entry = self._pending[key] = (DeltaCoalescer(change.table), now)
                if policy.max_delay_ms is not None:
                    self._wake.notify()  # a new deadline for the timer
            coalescer, since = entry
            coalescer.add(change)
            due = policy.should_flush(coalescer.raw_ops, (now - since) * 1000.0)
        if due:
            self.flush(key)
        return True

    # ------------------------------------------------------------------
    # Flush half
    def flush(self, key: Hashable) -> int:
        """Deliver what is buffered under ``key``; returns the net
        operations shipped (0 when nothing was pending).

        Safe from any thread at any time.  An idle key returns without
        touching the outer lock: completion hooks and ``close`` probe
        keys that are almost always empty.
        """
        with self._lock:
            if key not in self._pending:
                return 0
        # Outer lock first: the trigger path arrives holding it.
        with self._outer:
            with self._lock:
                entry = self._pending.pop(key, None)
            if entry is None:
                return 0
            return self._deliver(key, entry[0])

    def flush_all(self) -> int:
        """Flush every key with buffered changes; returns total net ops."""
        with self._lock:
            keys = list(self._pending)
        return sum(self.flush(key) for key in keys)

    # ------------------------------------------------------------------
    # Policies
    def set_policy(self, key: Hashable, policy: PropagationPolicy) -> None:
        """Switch ``key`` to ``policy``.  Whatever is buffered under the
        old policy is flushed first, so a switch never strands changes;
        the first policy with a time bound starts the timer thread.
        """
        # Held across flush *and* switch: no trigger can buffer a change
        # under the old policy in between.
        with self._outer:
            self.flush(key)
            with self._wake:
                if policy.buffers:
                    self._policies[key] = policy
                else:
                    self._policies.pop(key, None)
                timed = policy.max_delay_ms is not None
                if timed and self._timer is None and not self._closed:
                    self._timer = threading.Thread(
                        target=self._run_timer, name="policy-gate-timer", daemon=True
                    )
                    self._timer.start()
                self._wake.notify()

    def policy(self, key: Hashable) -> PropagationPolicy:
        with self._lock:
            return self._policies.get(key, IMMEDIATE)

    def drop(self, key: Hashable) -> None:
        """Forget ``key``: its policy goes, and anything still buffered
        under it is discarded undelivered (its consumer is gone)."""
        with self._lock:
            self._policies.pop(key, None)
            self._pending.pop(key, None)

    # ------------------------------------------------------------------
    # Introspection
    def pending_ops(self, key: Optional[Hashable] = None) -> int:
        """Buffered raw operations under ``key`` (``None``: every key)."""
        with self._lock:
            if key is None:
                return sum(c.raw_ops for c, _since in self._pending.values())
            entry = self._pending.get(key)
            return entry[0].raw_ops if entry is not None else 0

    def due(self) -> list[Any]:
        """Keys whose buffered changes are past their time bound."""
        with self._lock:
            now = time.monotonic()
            return [key for key in self._pending if self._deadline(key) <= now]

    def _deadline(self, key: Hashable) -> float:
        # Caller holds the gate lock; ``key`` is pending.
        policy = self._policies.get(key)
        if policy is None:
            # Buffered while a flush-before-switch was delivering (a
            # consumer wrote back into its own source): due at once.
            return 0.0
        if policy.max_delay_ms is None:
            return math.inf
        return self._pending[key][1] + policy.max_delay_ms / 1000.0

    # ------------------------------------------------------------------
    # Time bound
    def _run_timer(self) -> None:
        while True:
            with self._wake:
                if self._closed:
                    return
                now = time.monotonic()
                deadlines = {key: self._deadline(key) for key in self._pending}
                due = [key for key, at in deadlines.items() if at <= now]
                if not due:
                    # Sleep to the earliest deadline itself (no poll tick);
                    # offer() and set_policy() wake us when it may have moved.
                    earliest = min(deadlines.values(), default=math.inf)
                    self._wake.wait(None if earliest == math.inf else earliest - now)
            for key in due:
                self.flush(key)

    def close(self) -> None:
        """Stop the timer and flush everything.

        Policies stay in force (later changes still buffer and flush on
        count or on demand), but no timer runs or starts after this.
        """
        with self._wake:
            self._closed = True
            timer, self._timer = self._timer, None
            self._wake.notify()
        self.flush_all()
        if timer is not None:
            timer.join(timeout=2.0)
