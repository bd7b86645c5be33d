"""Statement-level triggers.

"EdiFlow compiles the UP (update propagation) statements into
statement-level triggers which it installs in the underlying DBMS"
(Section VI-B), and the R_D -> R_M synchronization protocol installs
"CREATE, UPDATE and DELETE triggers monitoring changes to the persistent
table" (Section VI-C).  This module is that trigger facility.

A trigger fires once per *statement*, after the statement completes,
receiving the full :class:`~repro.db.table.ChangeSet`.  Triggers may run
further statements against the database (the database re-enters through
the same public API); recursive firing is permitted but bounded by a
depth limit to catch accidental loops.

A trigger is also the one propagation edge.  A consumer -- the
notification center, a materialized view, the UP handlers of a relation
-- installs a :class:`Subscription`: a named trigger whose function is
the consumer's ``deliver(change)``, and a handle on the Section V policy
the manager's one :class:`~repro.db.policy.PolicyGate` applies to that
edge.  Immediate, the trigger delivers the statement's change inside its
commit; under a buffering policy the gate delivers the net delta later,
as a commit of its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Optional

from ..errors import DatabaseError
from ..obs.runtime import OBS
from .policy import PolicyGate, PropagationPolicy
from .table import ChangeSet, DeltaCoalescer

#: Events a trigger can subscribe to.
EVENTS = ("insert", "update", "delete")

TriggerFn = Callable[[ChangeSet], None]


@dataclass(eq=False)  # hashable by identity: the gate's key
class Trigger:
    """One installed trigger."""

    name: str
    table: str
    events: tuple[str, ...]
    fn: TriggerFn
    enabled: bool = True

    def matches(self, change: ChangeSet) -> bool:
        if not self.enabled or change.table != self.table:
            return False
        ops = change.operations
        return any(event in ops for event in self.events)


class Subscription(Trigger):
    """One consumer's edge out of a table, and the handle on its policy.

    ``fn`` is the consumer's ``deliver(change)``: its only code, called
    with a commit's net delta on the table (immediate, the default) or
    with the net delta the edge buffered (on a flush).  Either way it
    runs under the database lock, inside a commit its own writes join.
    """

    def __init__(
        self, manager: "TriggerManager", name: str, table: str, deliver: TriggerFn
    ) -> None:
        super().__init__(name, table, EVENTS, deliver)
        self._manager = manager
        #: Flushes that delivered something, and the raw operations
        #: coalescing removed before delivery.
        self.flushes = 0
        self.coalesced_ops = 0

    def matches(self, change: ChangeSet) -> bool:
        # Every op is an edge's event: the change's ops need no listing.
        return self.enabled and change.table == self.table

    def set_policy(self, policy: PropagationPolicy) -> None:
        """Switch this edge to ``policy`` (what it buffers is flushed first)."""
        self._manager.gate.set_policy(self, policy)

    def policy(self) -> PropagationPolicy:
        return self._manager.gate.policy(self)

    def pending_ops(self) -> int:
        """Buffered raw operations awaiting a flush."""
        return self._manager.gate.pending_ops(self)

    def flush(self) -> int:
        """Deliver what the edge buffers now; returns the net operations."""
        return self._manager.gate.flush(self)

    def close(self) -> None:
        """Deliver what the edge still buffers and leave the catalog.

        Closing twice, or after DROP TABLE took the trigger, is a no-op.
        """
        manager = self._manager
        with manager.lock:
            self.flush()
            if manager.get(self.name) is self:
                manager.drop(self.name)
        manager.gate.reap()

    def _release(self, coalescer: DeltaCoalescer) -> int:
        """The gate's delivery: database lock held, gate lock not.  The
        buffered net delta reaches ``fn`` as one commit -- the writes it
        makes are logged once, and what it defers is published after."""
        away = coalescer.coalesced_away()
        self.coalesced_ops += away
        if away and OBS.enabled:
            OBS.metrics.counter("db.coalesced_away", table=self.table).inc(away)
        if coalescer.is_empty():
            # The batch annihilated itself (e.g. insert+delete per tid):
            # nothing to deliver, but the savings still count.
            return 0
        net_ops = coalescer.net_ops()
        self.flushes += 1
        tags = {"table": self.table, "trigger": self.name, "ops": net_ops}
        with OBS.span("db.flush", tags):
            self._manager.commit([], partial(self.fn, coalescer.net_changeset()))
        return net_ops


class TriggerManager:
    """Registry and dispatcher for statement-level triggers.

    ``lock`` is the database lock and ``commit`` its commit routine
    (``commit(changes, trigger_phase)``); the gate delivers under the
    one and through the other.
    """

    #: Triggers may cascade (a trigger writes a table that has triggers);
    #: a log's rows (the Notification table's) are an append, not a write.
    #: Anything past this depth is almost certainly an unintended loop.
    MAX_DEPTH = 16

    def __init__(self, lock: Any, commit: Callable[..., None]) -> None:
        self.lock = lock
        self.commit = commit
        self._triggers: dict[str, Trigger] = {}
        self._by_table: dict[str, list[Trigger]] = {}
        self._depth = 0
        #: Tables claimed as logs (see :meth:`claim_log`).
        self._logs: set[str] = set()
        #: Section V's mechanism, once per database, keyed by trigger.
        self.gate = PolicyGate(lock, Subscription._release)

    def create(
        self,
        name: str,
        table: str,
        events: str | tuple[str, ...],
        fn: TriggerFn,
    ) -> Trigger:
        """Install a trigger.  ``events`` is one of/a tuple of
        ``'insert' | 'update' | 'delete'``."""
        if isinstance(events, str):
            events = (events,)
        for event in events:
            if event not in EVENTS:
                raise DatabaseError(f"unknown trigger event {event!r}")
        return self._install(Trigger(name, table, tuple(events), fn))

    def subscribe(self, name: str, table: str, deliver: TriggerFn) -> Subscription:
        """Install ``deliver`` as the consumer of every change of ``table``."""
        subscription = Subscription(self, name, table, deliver)
        self._install(subscription)
        return subscription

    def claim_log(self, table: str) -> None:
        """Refuse every trigger on ``table``, a log: none would fire."""
        if self._by_table.get(table):
            raise DatabaseError(f"table {table!r} has triggers; a log takes none")
        self._logs.add(table)

    def _install(self, trigger: Trigger) -> Trigger:
        if trigger.table in self._logs:
            raise DatabaseError(f"table {trigger.table!r} is a log: no trigger")
        if trigger.name in self._triggers:
            raise DatabaseError(f"trigger {trigger.name!r} already exists")
        self._triggers[trigger.name] = trigger
        self._by_table.setdefault(trigger.table, []).append(trigger)
        return trigger

    def get(self, name: str) -> Optional[Trigger]:
        return self._triggers.get(name)

    def drop(self, name: str) -> None:
        trigger = self._triggers.pop(name, None)
        if trigger is None:
            raise DatabaseError(f"no trigger named {name!r}")
        self._by_table[trigger.table].remove(trigger)
        self.gate.drop(trigger)

    def drop_for_table(self, table: str) -> None:
        """Remove every trigger on ``table`` (used by DROP TABLE)."""
        for trigger in self._by_table.pop(table, []):
            self._triggers.pop(trigger.name, None)
            self.gate.drop(trigger)

    def names(self) -> list[str]:
        return sorted(self._triggers)

    def subscriptions(self, table: Optional[str] = None) -> list[Subscription]:
        """The edges out of ``table`` (``None``: out of every table)."""
        triggers = (
            self._triggers.values() if table is None else self._by_table.get(table, ())
        )
        return [t for t in triggers if isinstance(t, Subscription)]

    def fire(self, change: ChangeSet) -> None:
        """Dispatch a change set to every matching trigger."""
        triggers = self._by_table.get(change.table)
        if not triggers or change.is_empty():
            return
        if OBS.enabled:
            with OBS.tracer.span(
                "db.trigger", tags={"table": change.table, "triggers": len(triggers)}
            ) as span:
                self._fire(change, triggers)
            OBS.metrics.histogram("db.trigger_ms", table=change.table).observe(
                span.duration_ms
            )
            return
        self._fire(change, triggers)

    def _fire(self, change: ChangeSet, triggers: list[Trigger]) -> None:
        if self._depth >= self.MAX_DEPTH:
            raise DatabaseError(
                f"trigger cascade deeper than {self.MAX_DEPTH} on table "
                f"{change.table!r}; aborting to avoid an infinite loop"
            )
        self._depth += 1
        offer = self.gate.offer
        try:
            # Copy: a trigger may install/drop triggers while firing.
            for trigger in list(triggers):
                # A buffering edge's gate takes the change; the rest run now.
                if trigger.matches(change) and not offer(trigger, change):
                    trigger.fn(change)
        finally:
            self._depth -= 1
