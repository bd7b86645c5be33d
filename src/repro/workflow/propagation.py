"""Update propagation: compiling UP statements into triggers.

"EdiFlow compiles the UP (update propagation) statements into
statement-level triggers which it installs in the underlying DBMS.
The trigger calls EdiFlow routines implementing the desired behavior"
(Section VI-B).  The four scopes of the paper's grammar:

========  =============================================================
``ra``    deliver the delta to *running* instances of the activity via
          the procedure's running handler ``p_h,r``
``ta-rp`` deliver to *terminated* activity instances whose process is
          still running, via the finished handler ``p_h,f``
``ta-tp`` deliver to terminated activity instances of *terminated*
          processes, via ``p_h,f``
``fa-rp`` make the delta visible to *future* instances of the activity
          within processes running now (their snapshot is refreshed)
========  =============================================================

The default, with no UP statement, is option 1 of Section V: new data is
ignored by every instance started before the update.

The trigger of a relation is its subscription
(:meth:`~repro.db.database.Database.subscribe`), and Section V's P1/P2/P3
are that edge's policy: ``propagation.subscriptions[relation]``.  A
manual-policy relation flushes whenever an activity completes (P2,
deferred-to-completion): the engine flushes every UP edge from its
completion hooks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Optional

from ..db.table import ChangeSet
from ..db.triggers import Subscription
from ..errors import PropagationError
from ..ivm.delta import Delta
from .engine import WorkflowEngine
from .model import CallProcedure, ProcessDefinition, UpdatePropagation


@dataclass
class PropagationLog:
    """Record of one handler invocation (benchmarks and tests read this)."""

    relation: str
    activity: str
    scope: str
    process_instance_id: int
    activity_instance_id: int
    delta_size: int


class PropagationManager:
    """Installs UP triggers and routes deltas to handlers."""

    def __init__(self, engine: WorkflowEngine) -> None:
        self.engine = engine
        self.database = engine.database
        #: relation -> list of (definition, UP statement)
        self._routes: dict[str, list[tuple[ProcessDefinition, UpdatePropagation]]] = {}
        #: relation -> its UP trigger, the handle on its policy.
        self.subscriptions: dict[str, Subscription] = {}
        self.log: list[PropagationLog] = []
        engine._propagation = self

    def close(self) -> None:
        """Remove every UP trigger, delivering what its edge still buffers."""
        for relation, edge in list(self.subscriptions.items()):
            edge.close()  # its last delivery still routes through the map
            del self.subscriptions[relation]

    # ------------------------------------------------------------------
    def compile(self, definition: ProcessDefinition) -> None:
        """Install triggers for every UP statement of ``definition``."""
        for up in definition.propagations:
            activity = definition.activity(up.activity)
            if up.scope in ("ra", "ta-rp", "ta-tp") and not isinstance(
                activity, CallProcedure
            ):
                raise PropagationError(
                    f"UP scope {up.scope!r} targets activity {up.activity!r}, "
                    "which is not a procedure call and has no delta handlers"
                )
            self._routes.setdefault(up.relation, []).append((definition, up))
            if up.relation not in self.subscriptions:
                self.subscriptions[up.relation] = self.database.subscribe(
                    up.relation, partial(self._route, up.relation), f"up_{up.relation}"
                )

    # ------------------------------------------------------------------
    def _route(self, relation: str, change: ChangeSet) -> None:
        """Deliver one delta of ``relation`` -- a statement's, or the net
        delta its edge buffered -- to every UP route for it."""
        delta = Delta.from_changeset(change)
        if delta.is_empty():
            return
        # A handler writing the very relation it reacts to must not loop
        # (the trigger depth guard is the hard backstop): the edge is off
        # while its handlers run, so those writes reach neither it nor
        # its buffer.
        edge = self.subscriptions[relation]
        edge.enabled = False
        try:
            for definition, up in self._routes.get(relation, ()):
                self._apply(definition, up, delta)
        finally:
            edge.enabled = True

    def _apply(
        self, definition: ProcessDefinition, up: UpdatePropagation, delta: Delta
    ) -> None:
        if up.scope == "ra":
            self._apply_running(definition, up, delta)
        elif up.scope == "fa-rp":
            self._apply_future(definition, up, delta)
        elif up.scope == "ta-rp":
            self._apply_terminated(definition, up, delta, process_running=True)
        elif up.scope == "ta-tp":
            self._apply_terminated(definition, up, delta, process_running=False)
        else:  # pragma: no cover - scopes validated at construction
            raise PropagationError(f"unknown scope {up.scope!r}")

    def _apply_running(
        self, definition: ProcessDefinition, up: UpdatePropagation, delta: Delta
    ) -> None:
        for live in self.engine.live_instances_of_activity(
            definition.name, up.activity
        ):
            if not live.procedure.has_running_handler():
                raise PropagationError(
                    f"procedure {live.procedure.get_name()!r} has no running "
                    f"delta handler but UP ({up.relation}, {up.activity}, ra) fired"
                )
            outputs = live.procedure.on_delta_running(live.env, delta)
            self._store_outputs(live.activity, live.env, outputs)
            self.log.append(
                PropagationLog(
                    up.relation,
                    up.activity,
                    "ra",
                    live.execution.id,
                    live.instance.id,
                    len(delta),
                )
            )

    def _apply_terminated(
        self,
        definition: ProcessDefinition,
        up: UpdatePropagation,
        delta: Delta,
        process_running: bool,
    ) -> None:
        for finished in self.engine.finished_instances_of_activity(
            definition.name, up.activity, process_running
        ):
            if not finished.procedure.has_finished_handler():
                raise PropagationError(
                    f"procedure {finished.procedure.get_name()!r} has no "
                    f"finished delta handler but UP ({up.relation}, "
                    f"{up.activity}, {up.scope}) fired"
                )
            outputs = finished.procedure.on_delta_finished(finished.env, delta)
            self._store_outputs(finished.activity, finished.env, outputs)
            self.log.append(
                PropagationLog(
                    up.relation,
                    up.activity,
                    up.scope,
                    finished.execution.id,
                    finished.instance.id,
                    len(delta),
                )
            )

    def _apply_future(
        self, definition: ProcessDefinition, up: UpdatePropagation, delta: Delta
    ) -> None:
        """fa-rp: future instances of the activity, in running processes,
        must see the delta -- their snapshot is promoted to activity-start
        (which includes the delta's tuples)."""
        for execution in self.engine.running_instances_of(definition.name):
            execution.fresh_for.add(up.activity)
            self.log.append(
                PropagationLog(
                    up.relation, up.activity, "fa-rp", execution.id, -1, len(delta)
                )
            )

    def _store_outputs(
        self, activity: CallProcedure, env: Any, outputs: Optional[list[list[dict[str, Any]]]]
    ) -> None:
        """Handler outputs are injected back into the activity's output
        tables ("this framework allows one to recuperate the result of a
        handler invocation and inject it further into the process")."""
        if not outputs:
            return
        for table, rows in zip(activity.outputs, outputs):
            if rows:
                env.write_rows(table, rows)
