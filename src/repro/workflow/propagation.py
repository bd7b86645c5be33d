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
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Optional

from ..db.table import ChangeSet
from ..errors import PropagationError
from ..ivm.delta import Delta
from ..sync.batching import DeltaCoalescer, PolicyGate, PropagationPolicy
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
        self._installed: set[str] = set()
        self.log: list[PropagationLog] = []
        self._reentrancy = threading.local()
        # Propagation policies (Section V), keyed by relation.
        # Manual-policy relations flush when an activity completes (P2,
        # deferred-to-completion) -- the engine calls :meth:`flush_all`
        # from its completion hooks.
        self._gate = PolicyGate(self.database.lock, self._deliver_flush)
        self.flushes = 0
        engine._propagation = self

    # ------------------------------------------------------------------
    # Propagation policies: the gate's, keyed by relation.
    def set_policy(self, relation: str, policy: PropagationPolicy) -> None:
        """Configure how changes of ``relation`` reach UP handlers.

        Pending changes flush before the switch so none are stranded.
        """
        self._gate.set_policy(relation, policy)

    def policy(self, relation: str) -> PropagationPolicy:
        return self._gate.policy(relation)

    def pending_ops(self, relation: str) -> int:
        return self._gate.pending_ops(relation)

    def flush(self, relation: str) -> int:
        """Deliver the buffered net delta of ``relation`` to its routes.

        Returns the number of net operations delivered.  Called by the
        engine whenever an activity or execution completes, so handlers
        registered with scope ``ra`` still see the live instances; with
        nothing buffered (the usual case there) the database lock is
        not touched.
        """
        return self._gate.flush(relation)

    def flush_all(self) -> int:
        """Flush every relation with buffered changes; returns net ops."""
        return self._gate.flush_all()

    def close(self) -> None:
        """Flush every relation and stop the gate's timer."""
        self._gate.close()

    def _deliver_flush(self, relation: str, coalescer: DeltaCoalescer) -> int:
        # The gate's delivery: database lock held, gate lock not.
        if coalescer.is_empty():
            return 0
        self.flushes += 1
        self._route(relation, coalescer.net_changeset())
        return coalescer.net_ops()

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
            if up.relation not in self._installed:
                self.database.on(
                    up.relation,
                    ("insert", "update", "delete"),
                    self._make_trigger(up.relation),
                    name=f"up_{up.relation}",
                )
                self._installed.add(up.relation)

    def _make_trigger(self, relation: str):
        def trigger(change: ChangeSet) -> None:
            self.on_change(relation, change)

        return trigger

    # ------------------------------------------------------------------
    def on_change(self, relation: str, change: ChangeSet) -> None:
        """Route one change set to every UP route for ``relation``.

        Under a buffering policy the change is coalesced instead; the
        net delta reaches the handlers on flush (threshold overflow or
        activity completion) as ONE delivery.
        """
        if getattr(self._reentrancy, "active", None) == relation:
            # A handler is writing the very relation it reacts to; do not
            # loop (the TriggerManager depth guard is the hard backstop).
            return
        if not self._gate.offer(relation, change):
            self._route(relation, change)

    def _route(self, relation: str, change: ChangeSet) -> None:
        delta = Delta.from_changeset(change)
        if delta.is_empty():
            return
        self._reentrancy.active = relation
        try:
            for definition, up in self._routes.get(relation, ()):
                self._apply(definition, up, delta)
        finally:
            self._reentrancy.active = None

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
