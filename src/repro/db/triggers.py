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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..errors import DatabaseError
from ..obs.runtime import OBS
from .table import ChangeSet

#: Events a trigger can subscribe to.
EVENTS = ("insert", "update", "delete")

TriggerFn = Callable[[ChangeSet], None]


@dataclass
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


class TriggerManager:
    """Registry and dispatcher for statement-level triggers."""

    #: Triggers may cascade (a trigger writes a table that has triggers);
    #: the Notification chain of Section VI-C is exactly two levels deep.
    #: Anything past this depth is almost certainly an unintended loop.
    MAX_DEPTH = 16

    def __init__(self) -> None:
        self._triggers: dict[str, Trigger] = {}
        self._by_table: dict[str, list[Trigger]] = {}
        self._depth = 0

    def create(
        self,
        name: str,
        table: str,
        events: str | tuple[str, ...],
        fn: TriggerFn,
    ) -> Trigger:
        """Install a trigger.  ``events`` is one of/a tuple of
        ``'insert' | 'update' | 'delete'``."""
        if name in self._triggers:
            raise DatabaseError(f"trigger {name!r} already exists")
        if isinstance(events, str):
            events = (events,)
        for event in events:
            if event not in EVENTS:
                raise DatabaseError(f"unknown trigger event {event!r}")
        trigger = Trigger(name=name, table=table, events=tuple(events), fn=fn)
        self._triggers[name] = trigger
        self._by_table.setdefault(table, []).append(trigger)
        return trigger

    def drop(self, name: str) -> None:
        trigger = self._triggers.pop(name, None)
        if trigger is None:
            raise DatabaseError(f"no trigger named {name!r}")
        self._by_table[trigger.table].remove(trigger)

    def drop_for_table(self, table: str) -> None:
        """Remove every trigger on ``table`` (used by DROP TABLE)."""
        for trigger in self._by_table.pop(table, []):
            self._triggers.pop(trigger.name, None)

    def enable(self, name: str, enabled: bool = True) -> None:
        try:
            self._triggers[name].enabled = enabled
        except KeyError:
            raise DatabaseError(f"no trigger named {name!r}") from None

    def names(self) -> list[str]:
        return sorted(self._triggers)

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
        try:
            # Copy: a trigger may install/drop triggers while firing.
            for trigger in list(triggers):
                if trigger.matches(change):
                    trigger.fn(change)
        finally:
            self._depth -= 1
