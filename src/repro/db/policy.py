"""Declarative update-propagation policies and the gate that applies them.

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
once, as :class:`PolicyGate`, and a database owns one: its
:class:`~repro.db.triggers.TriggerManager` keys it by trigger, so a
policy is a property of the edge a consumer subscribed with
(:meth:`~repro.db.database.Database.subscribe`).  The net is taken by
:class:`~repro.db.table.DeltaCoalescer`, which the database's commit
routine uses too (a transaction is the same kind of window), so it lives
beside :class:`~repro.db.table.ChangeSet`.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Hashable, Optional

from ..errors import SyncError
from .table import ChangeSet, DeltaCoalescer


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
    coalescer)`` -- ship this net delta to the key's consumer, return the
    net operations shipped -- runs when the policy says so (count
    overflow), when the time bound expires (the gate's one timer thread,
    alive while some key has a time bound), or on an explicit
    :meth:`flush`.

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
        # Absent key = immediate.  Written only under the outer lock too.
        self._policies: dict[Hashable, PropagationPolicy] = {}
        # key -> (buffered changes, time.monotonic() of the first one).
        self._pending: dict[Hashable, tuple[DeltaCoalescer, float]] = {}
        self._timer: Optional[threading.Thread] = None

    # ------------------------------------------------------------------
    # Trigger half
    def offer(self, key: Hashable, change: ChangeSet) -> bool:
        """Take ``change`` if ``key`` buffers; ``False`` means it does not
        and the caller propagates the change itself, now.

        A buffered change that makes the policy's ``should_flush`` true
        is flushed before returning.
        """
        # The immediate path takes no lock: the caller holds the outer
        # lock, which every writer of the policy table holds as well.
        if key not in self._policies:
            return False
        with self._lock:
            policy = self._policies[key]
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

    # ------------------------------------------------------------------
    # Policies
    def set_policy(self, key: Hashable, policy: PropagationPolicy) -> None:
        """Switch ``key`` to ``policy``.  Whatever is buffered under the
        old policy is flushed first, so a switch never strands changes;
        a policy with a time bound starts the timer thread if none runs.
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
                if policy.max_delay_ms is not None and self._timer is None:
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
        with self._outer, self._lock:
            self._policies.pop(key, None)
            self._pending.pop(key, None)

    def pending_ops(self, key: Hashable) -> int:
        """Buffered raw operations under ``key``."""
        with self._lock:
            entry = self._pending.get(key)
            return entry[0].raw_ops if entry is not None else 0

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
        me = threading.current_thread()
        while True:
            with self._wake:
                if self._timer is not me:
                    return  # reaped
                now = time.monotonic()
                deadlines = {key: self._deadline(key) for key in self._pending}
                due = [key for key, at in deadlines.items() if at <= now]
                if not due:
                    # Sleep to the earliest deadline itself (no poll tick);
                    # offer(), set_policy() and reap() wake us when it may
                    # have moved.
                    earliest = min(deadlines.values(), default=math.inf)
                    self._wake.wait(None if earliest == math.inf else earliest - now)
            for key in due:
                self.flush(key)

    def reap(self) -> None:
        """Stop and join the timer once no key has a time bound left, so
        closing the last timed edge leaves no thread behind."""
        with self._wake:
            timer = self._timer
            if timer is None or any(
                policy.max_delay_ms is not None for policy in self._policies.values()
            ):
                return
            self._timer = None
            self._wake.notify()
        if timer is not threading.current_thread():
            timer.join(timeout=2.0)
