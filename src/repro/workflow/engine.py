"""The EdiFlow enactment engine.

Walks a :class:`~repro.workflow.model.ProcessDefinition`'s structured
body, records every instance transition in the core tables, evaluates
expressions and queries under the instance's isolation context, invokes
black-box procedures, and keeps the registries the update-propagation
machinery (Section VI-B) needs: which activity instances are *running*
right now, and which have *terminated* but may still receive deltas via
their finished handlers.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence

from ..core import datamodel
from ..db.database import Database
from ..db.expression import col
from ..db.schema import Column, TID
from ..db.types import type_from_name
from ..errors import EnactmentError, SpecificationError, WorkflowError
from ..faults import SimulatedCrash
from ..obs.runtime import OBS
from .expressions import (
    WorkflowExpression,
    evaluate_condition,
)
from .instance import ActivityInstance, ProcessInstance
from .isolation import IsolationContext, IsolationManager
from .model import (
    Activity,
    ActivityNode,
    AndSplitJoin,
    AskUser,
    Assign,
    CallProcedure,
    ConditionalNode,
    OrSplitJoin,
    ProcessDefinition,
    ProcessNode,
    RunQuery,
    SequenceNode,
    UpdateTable,
)
from ..retry import RetryPolicy
from .procedures import ProcessEnv, Procedure, ProcedureRegistry
from .roles import RoleManager

Row = dict[str, Any]

#: Callback answering AskUser activities: (prompt, variable_name) -> value.
Responder = Callable[[str, str], Any]


@dataclass
class LiveActivity:
    """A CallProcedure activity instance currently running (incl. detached)."""

    execution: "Execution"
    activity: CallProcedure
    instance: ActivityInstance
    procedure: Procedure
    env: ProcessEnv


@dataclass
class FinishedActivity:
    """A terminated CallProcedure instance kept for ta-* delta handlers."""

    execution: "Execution"
    activity: CallProcedure
    instance: ActivityInstance
    procedure: Procedure
    env: ProcessEnv


class Execution:
    """One enactment of a process definition."""

    def __init__(
        self,
        engine: "WorkflowEngine",
        definition: ProcessDefinition,
        instance: ProcessInstance,
        user_id: Optional[int],
        responder: Optional[Responder],
    ) -> None:
        self.engine = engine
        self.definition = definition
        self.instance = instance
        self.user_id = user_id
        self.responder = responder
        self.variables: dict[str, Any] = {
            v.name: v.initial for v in definition.variables
        }
        self.constants: dict[str, Any] = {c.name: c.value for c in definition.constants}
        self.start_time: int = 0
        self.temp_tables: list[str] = []
        #: Activities that must take a fresh snapshot because an fa-rp UP
        #: fired while this process was running (Section V, option "fa rp").
        self.fresh_for: set[str] = set()
        self.detached_running: list[LiveActivity] = []
        #: table -> tids written by this execution (always visible to it).
        self.own_tids: dict[str, set[int]] = {}
        #: Resume bookkeeping: activity name -> queue of already-completed
        #: instance ids whose re-execution must be skipped (set by
        #: WorkflowEngine.recover; empty on a fresh enactment).
        self.skip_completed: dict[str, list[int]] = {}

    @property
    def id(self) -> int:
        return self.instance.id

    def context_for(self, activity: Optional[Activity]) -> IsolationContext:
        """Isolation context for an activity instance of this execution."""
        fresh = activity is not None and (
            activity.fresh_snapshot or activity.name in self.fresh_for
        )
        snapshot = self.engine.database.now() if fresh else self.start_time
        return IsolationContext(
            process_instance_id=self.instance.id,
            start_time=self.start_time,
            snapshot_time=snapshot,
            own_tids=self.own_tids,
        )

    def is_running(self) -> bool:
        return self.instance.is_running()


class WorkflowEngine:
    """Deploys process definitions and runs their instances."""

    def __init__(
        self,
        database: Database,
        procedures: Optional[ProcedureRegistry] = None,
    ) -> None:
        self.database = database
        datamodel.install_core_schema(database)
        self.allocator = datamodel.IdAllocator(database)
        self.roles = RoleManager(database, self.allocator)
        self.isolation = IsolationManager(database)
        self.procedures = procedures or ProcedureRegistry()
        self._definitions: dict[str, ProcessDefinition] = {}
        self._process_ids: dict[str, int] = {}
        self._activity_ids: dict[tuple[str, str], int] = {}
        self.executions: dict[int, Execution] = {}
        self.live_activities: dict[int, LiveActivity] = {}
        self.finished_activities: list[FinishedActivity] = []
        self._lock = threading.RLock()
        self._propagation: Any = None  # a PropagationManager sets itself here
        self.record_provenance = True

    def _flush_propagation(self) -> None:
        """Release manual-policy UP deltas (P2, deferred-to-completion).

        Called whenever an activity or execution completes; a no-op when
        no PropagationManager is attached or nothing is buffered.
        """
        propagation = self._propagation
        if propagation is not None:
            for edge in list(propagation.subscriptions.values()):
                edge.flush()

    # ------------------------------------------------------------------
    # Deployment
    def deploy(self, definition: ProcessDefinition) -> None:
        """Register a definition: write Process/Activity rows, create its
        relations, put persistent relations under isolation management,
        and compile its UP statements into triggers."""
        with self._lock:
            if definition.name in self._definitions:
                raise SpecificationError(
                    f"process {definition.name!r} is already deployed"
                )
            for name in definition.procedures:
                if name not in self.procedures:
                    raise SpecificationError(
                        f"process {definition.name!r} requires procedure "
                        f"{name!r}, which is not registered"
                    )
            # Adopt existing Process/Activity rows by name: redeploying
            # after a restart must reattach to the recovered catalog, not
            # violate its unique-name constraints.
            existing = next(
                (
                    row
                    for row in self.database.table(datamodel.T_PROCESS).rows()
                    if row["name"] == definition.name
                ),
                None,
            )
            if existing is not None:
                pid = existing["id"]
            else:
                pid = self.allocator.next_id(datamodel.T_PROCESS)
                self.database.insert(
                    datamodel.T_PROCESS, {"id": pid, "name": definition.name}
                )
            self._process_ids[definition.name] = pid
            known_activities = {
                row["name"]: row["id"]
                for row in self.database.table(datamodel.T_ACTIVITY).rows()
                if row["process_id"] == pid
            }
            for activity in definition.body.activities():
                aid = known_activities.get(activity.name)
                if aid is None:
                    aid = self.allocator.next_id(datamodel.T_ACTIVITY)
                    group_id = (
                        self.roles.ensure_group(activity.group)
                        if activity.group
                        else None
                    )
                    self.database.insert(
                        datamodel.T_ACTIVITY,
                        {
                            "id": aid,
                            "process_id": pid,
                            "name": activity.name,
                            "group_id": group_id,
                        },
                    )
                self._activity_ids[(definition.name, activity.name)] = aid
            for relation in definition.relations:
                if relation.temporary:
                    continue  # created per execution
                if not self.database.has_table(relation.name):
                    if not relation.columns:
                        raise SpecificationError(
                            f"relation {relation.name!r} does not exist and "
                            "its declaration carries no columns"
                        )
                    self.database.create_table(
                        relation.name,
                        [
                            Column(att, type_from_name(ty))
                            for att, ty in relation.columns
                        ],
                        primary_key=relation.primary_key,
                    )
                self.isolation.manage(relation.name)
            self._definitions[definition.name] = definition
            if self._propagation is not None:
                self._propagation.compile(definition)

    def definition(self, name: str) -> ProcessDefinition:
        try:
            return self._definitions[name]
        except KeyError:
            raise WorkflowError(f"no deployed process named {name!r}") from None

    def activity_id(self, process: str, activity: str) -> int:
        return self._activity_ids[(process, activity)]

    # ------------------------------------------------------------------
    # Execution lifecycle
    def start(
        self,
        process_name: str,
        user: Optional[str] = None,
        responder: Optional[Responder] = None,
    ) -> Execution:
        """Create and start a process instance (does not run the body)."""
        with self._lock:
            definition = self.definition(process_name)
            instance_id = self.allocator.next_id(datamodel.T_PROCESS_INSTANCE)
            self.database.insert(
                datamodel.T_PROCESS_INSTANCE,
                {
                    "id": instance_id,
                    "process_id": self._process_ids[process_name],
                    "status": datamodel.NOT_STARTED,
                },
            )
            instance = ProcessInstance(self.database, instance_id)
            user_id = self.roles.ensure_user(user) if user else None
            execution = Execution(self, definition, instance, user_id, responder)
            execution.start_time = instance.start()
            self.isolation.process_started(instance_id, execution.start_time)
            self._create_temp_tables(execution)
            self.executions[instance_id] = execution
            return execution

    def run(
        self,
        process_name: str,
        user: Optional[str] = None,
        responder: Optional[Responder] = None,
        close: bool = True,
    ) -> Execution:
        """Start an instance, execute its body, and (by default) close it.

        With ``close=False`` the process instance is left ``running`` when
        detached activities remain -- the mode interactive visualization
        processes use.
        """
        with OBS.span("workflow.process", {"process": process_name}) as span:
            execution = self.start(process_name, user=user, responder=responder)
            try:
                self.execute_node(execution.definition.body, execution)
            except SimulatedCrash:
                # A "dead" process runs no cleanup: leave the monitor tables
                # exactly as the crash found them so recovery sees the truth.
                raise
            except Exception:
                # Leave a queryable trace, then re-raise.
                self._abort(execution)
                raise
            if close and not execution.detached_running:
                self.close(execution)
            span.set_tag("process_instance_id", execution.id)
        return execution

    def execute_node(self, node: ProcessNode, execution: Execution) -> None:
        """Run one structure node of the process body."""
        if isinstance(node, ActivityNode):
            self.run_activity(node.activity, execution)
        elif isinstance(node, SequenceNode):
            for step in node.steps:
                self.execute_node(step, execution)
        elif isinstance(node, AndSplitJoin):
            self._run_and_split(node, execution)
        elif isinstance(node, OrSplitJoin):
            self._run_or_split(node, execution)
        elif isinstance(node, ConditionalNode):
            env = self._make_env(execution, None, None)
            if evaluate_condition(node.condition, env):
                self.execute_node(node.body, execution)
        else:
            raise EnactmentError(f"unknown process node {node!r}")

    def _run_and_split(self, node: AndSplitJoin, execution: Execution) -> None:
        if not node.parallel or len(node.branches) <= 1:
            for branch in node.branches:
                self.execute_node(branch, execution)
            return
        errors: list[BaseException] = []

        def runner(branch: ProcessNode) -> None:
            try:
                self.execute_node(branch, execution)
            except BaseException as exc:  # noqa: BLE001 - reraised below
                errors.append(exc)

        threads = [
            threading.Thread(target=runner, args=(b,), daemon=True)
            for b in node.branches
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]

    def _run_or_split(self, node: OrSplitJoin, execution: Execution) -> None:
        env = self._make_env(execution, None, None)
        for branch in node.branches:
            if evaluate_condition(branch.condition, env):
                # Triggering one branch invalidates the others (Section V).
                self.execute_node(branch.body, execution)
                return
        # No branch eligible: the OR block contributes nothing.

    def close(self, execution: Execution) -> None:
        """Finish remaining detached activities and complete the process."""
        # P2 (deferred-to-completion): deliver buffered deltas while the
        # detached activities are still live, so their ``ra`` handlers
        # run before completion.
        self._flush_propagation()
        with self._lock:
            for live in list(execution.detached_running):
                self.finish_activity(live.instance.id)
            if execution.instance.is_running():
                execution.instance.complete()
            self.isolation.process_ended(execution.id)
            self._drop_temp_tables(execution)

    def _abort(self, execution: Execution) -> None:
        with self._lock:
            for live in list(execution.detached_running):
                if live.instance.id in self.live_activities:
                    del self.live_activities[live.instance.id]
            execution.detached_running.clear()
            if execution.instance.is_running():
                execution.instance.complete()
            self.isolation.process_ended(execution.id)
            self._drop_temp_tables(execution)

    # ------------------------------------------------------------------
    # Temporary relations (Section IV-B)
    def _create_temp_tables(self, execution: Execution, adopt: bool = False) -> None:
        for relation in execution.definition.relations:
            if not relation.temporary:
                continue
            if self.database.has_table(relation.name):
                if adopt:
                    # Recovery: the table (and its contents) survived the
                    # crash in the durable store; the resumed execution
                    # owns it again.
                    execution.temp_tables.append(relation.name)
                    continue
                raise EnactmentError(
                    f"temporary relation {relation.name!r} already exists -- "
                    "is another instance of this process running?"
                )
            if not relation.columns:
                raise SpecificationError(
                    f"temporary relation {relation.name!r} needs columns"
                )
            self.database.create_table(
                relation.name,
                [Column(att, type_from_name(ty)) for att, ty in relation.columns],
                primary_key=relation.primary_key,
            )
            execution.temp_tables.append(relation.name)

    def _drop_temp_tables(self, execution: Execution) -> None:
        for name in execution.temp_tables:
            self.database.drop_table(name, if_exists=True)
        execution.temp_tables.clear()

    # ------------------------------------------------------------------
    # Activities
    def run_activity(self, activity: Activity, execution: Execution) -> ActivityInstance:
        traced = OBS.enabled
        tags = {
            "process": execution.definition.name,
            "activity": activity.name,
            "type": type(activity).__name__,
            "process_instance_id": execution.id,
        }
        with OBS.span("workflow.activity", tags) as span:
            instance = self._enact(activity, execution)
            # Matches ActivityInstance.id, so span timings can be checked
            # against the monitor's ActivityTrace timeline.
            span.set_tag("activity_instance_id", instance.id)
        if traced:
            OBS.metrics.histogram(
                "workflow.activity_ms", activity=activity.name
            ).observe(span.duration_ms)
        return instance

    def _enact(self, activity: Activity, execution: Execution) -> ActivityInstance:
        """Run ``activity`` to completion (or detachment) and return its
        instance -- the persisted one when a resumed run already did it."""
        if execution.skip_completed:
            # Resuming after a crash: this activity already completed in
            # the pre-crash run; hand back its persisted instance instead
            # of executing it a second time.
            with self._lock:
                queue = execution.skip_completed.get(activity.name)
                if queue:
                    instance_id = queue.pop(0)
                    if not queue:
                        del execution.skip_completed[activity.name]
                    return ActivityInstance(self.database, instance_id)
        instance = self._create_activity_instance(activity, execution)
        instance.start()
        env = self._make_env(execution, activity, instance)
        try:
            if isinstance(activity, Assign):
                self._run_assign(activity, env)
            elif isinstance(activity, UpdateTable):
                env.execute(activity.sql, activity.params)
            elif isinstance(activity, RunQuery):
                self._run_query_activity(activity, env)
            elif isinstance(activity, AskUser):
                self._run_ask_user(activity, execution, env)
            elif isinstance(activity, CallProcedure):
                return self._run_call(activity, execution, instance, env)
            else:
                raise EnactmentError(f"unknown activity type {type(activity).__name__}")
        except SimulatedCrash:
            raise  # a dead process cannot update its own status
        except Exception:
            if instance.status == datamodel.RUNNING:
                instance.complete()
            raise
        instance.complete()
        self._flush_propagation()
        return instance

    def _create_activity_instance(
        self, activity: Activity, execution: Execution
    ) -> ActivityInstance:
        aid = self._activity_ids[(execution.definition.name, activity.name)]
        group_row = self.database.table(datamodel.T_ACTIVITY).by_key(aid)
        group_id = group_row["group_id"] if group_row else None
        if execution.user_id is not None:
            self.roles.check_assignment(execution.user_id, group_id)
        elif group_id is not None:
            raise WorkflowError(
                f"activity {activity.name!r} requires group "
                f"{activity.group!r} but the execution has no user"
            )
        instance_id = self.allocator.next_id(datamodel.T_ACTIVITY_INSTANCE)
        self.database.insert(
            datamodel.T_ACTIVITY_INSTANCE,
            {
                "id": instance_id,
                "activity_id": aid,
                "process_instance_id": execution.id,
                "user_id": execution.user_id,
                "status": datamodel.NOT_STARTED,
            },
        )
        return ActivityInstance(self.database, instance_id)

    def _make_env(
        self,
        execution: Execution,
        activity: Optional[Activity],
        instance: Optional[ActivityInstance],
    ) -> ProcessEnv:
        return ProcessEnv(
            engine=self,
            process_instance_id=execution.id,
            activity_instance_id=instance.id if instance else None,
            isolation=execution.context_for(activity),
            variables=execution.variables,
            constants=execution.constants,
        )

    def _run_assign(self, activity: Assign, env: ProcessEnv) -> None:
        expression = activity.expression
        if isinstance(expression, WorkflowExpression):
            value = expression.evaluate(env)
        else:
            value = expression
        env.assign(activity.variable, value)

    def _run_query_activity(self, activity: RunQuery, env: ProcessEnv) -> None:
        rows = env.query(activity.sql, activity.params)
        if activity.into_variable:
            env.assign(activity.into_variable, rows)
        if activity.into_table:
            env.write_rows(activity.into_table, rows)
        if not activity.into_variable and not activity.into_table:
            raise SpecificationError(
                f"RunQuery {activity.name!r} has no destination "
                "(into_variable or into_table)"
            )

    def _run_ask_user(
        self, activity: AskUser, execution: Execution, env: ProcessEnv
    ) -> None:
        if execution.responder is None:
            raise EnactmentError(
                f"activity {activity.name!r} needs user input but the "
                "execution has no responder"
            )
        value = execution.responder(activity.prompt, activity.variable)
        env.assign(activity.variable, value)

    def _run_call(
        self,
        activity: CallProcedure,
        execution: Execution,
        instance: ActivityInstance,
        env: ProcessEnv,
    ) -> ActivityInstance:
        inputs: list[list[Row]] = []
        for item in activity.inputs:
            if isinstance(item, str):
                inputs.append(env.read_table(item))
            elif isinstance(item, WorkflowExpression):
                inputs.append(item.evaluate(env))
            else:
                raise SpecificationError(
                    f"bad input {item!r} for activity {activity.name!r}"
                )
        procedure = self.procedures.instantiate(activity.procedure)
        procedure.initialize(env)
        live = LiveActivity(execution, activity, instance, procedure, env)
        with self._lock:
            self.live_activities[instance.id] = live
        # Retry-on-failure semantics: the activity's declaration wins,
        # falling back to a policy the procedure class itself carries.
        retry_policy = RetryPolicy.from_options(activity.options.get("retry"))
        if retry_policy is None:
            retry_policy = getattr(procedure, "retry_policy", None)
        try:
            if retry_policy is not None:
                outputs = retry_policy.call(
                    procedure.run, env, inputs, list(activity.read_write)
                )
            else:
                outputs = procedure.run(env, inputs, list(activity.read_write))
        except SimulatedCrash:
            raise  # a dead process cannot update its own status
        except Exception:
            with self._lock:
                self.live_activities.pop(instance.id, None)
            instance.complete()
            raise
        outputs = outputs or []
        if len(outputs) < len(activity.outputs):
            with self._lock:
                self.live_activities.pop(instance.id, None)
            instance.complete()
            raise WorkflowError(
                f"procedure {activity.procedure!r} returned {len(outputs)} "
                f"output table(s); activity {activity.name!r} expects "
                f"{len(activity.outputs)}"
            )
        for table, rows in zip(activity.outputs, outputs):
            env.write_rows(table, rows)
        if activity.detached:
            execution.detached_running.append(live)
            return instance
        # The activity is done: release manual-policy deltas it produced
        # before it leaves the live set (P2, deferred-to-completion).
        self._flush_propagation()
        self._finish_live(live)
        return instance

    def finish_activity(self, activity_instance_id: int) -> None:
        """Complete a detached activity instance."""
        # Flush before completing: manual-policy deltas must reach this
        # instance's ``ra`` handler while it still counts as running.
        self._flush_propagation()
        with self._lock:
            live = self.live_activities.get(activity_instance_id)
            if live is None:
                raise EnactmentError(
                    f"activity instance {activity_instance_id} is not running"
                )
            if live in live.execution.detached_running:
                live.execution.detached_running.remove(live)
            self._finish_live(live)

    def _finish_live(self, live: LiveActivity) -> None:
        with self._lock:
            self.live_activities.pop(live.instance.id, None)
            live.instance.complete()
            self.finished_activities.append(
                FinishedActivity(
                    live.execution, live.activity, live.instance, live.procedure, live.env
                )
            )

    # ------------------------------------------------------------------
    # Data writing (with provenance)
    def write_rows(self, table: str, rows: Sequence[Row], env: ProcessEnv) -> None:
        if not rows:
            return
        clean = [
            {k: v for k, v in row.items() if not k.startswith("__")} for row in rows
        ]
        # The rows and their provenance are one commit (one WAL record):
        # a crash cannot keep rows that recover() could not compensate.
        with self.database.transaction():
            inserted = self.database.insert_many(table, clean)
            self.record_created(table, [row[TID] for row in inserted], env)
        env.isolation.record_own(table, (row[TID] for row in inserted))

    def record_created(
        self, table: str, tids: Sequence[int], env: ProcessEnv
    ) -> None:
        """Durable ``createdBy`` provenance for rows an activity created.

        This is both the compensation undo-log and -- after a crash --
        the source :meth:`recover` rebuilds own-row visibility from, so
        every activity write path (procedure ``write_rows`` *and* raw-SQL
        INSERTs through ``ProcessEnv.execute``) must land here, in the
        same transaction as the rows.
        """
        if not self.record_provenance or not tids:
            return
        if env.activity_instance_id is None:
            return
        self.database.insert_many(
            datamodel.T_PROVENANCE,
            [
                {
                    "entity_table": table,
                    "entity_tid": tid,
                    "activity_instance_id": env.activity_instance_id,
                    "relation": "createdBy",
                }
                for tid in tids
            ],
        )

    # ------------------------------------------------------------------
    # Durability of process state
    def persist_variable(self, process_instance_id: int, name: str, value: Any) -> None:
        """Write-through one variable assignment to the core tables.

        Values are stored as JSON text; a value that JSON cannot express
        is stored as NULL (recovery then falls back to the definition's
        initial value -- better a stale default than silently restoring
        the wrong thing).
        """
        try:
            encoded: Optional[str] = json.dumps(value)
        except (TypeError, ValueError):
            encoded = None
        where = (col("process_instance_id") == process_instance_id) & (
            col("name") == name
        )
        with self.database.lock:
            count = self.database.update(
                datamodel.T_PROCESS_VARIABLE, {"value": encoded}, where
            )
            if count == 0:
                self.database.insert(
                    datamodel.T_PROCESS_VARIABLE,
                    {
                        "process_instance_id": process_instance_id,
                        "name": name,
                        "value": encoded,
                    },
                )

    def _restore_variables(self, execution: Execution) -> None:
        for row in self.database.table(datamodel.T_PROCESS_VARIABLE).rows():
            if row["process_instance_id"] != execution.id:
                continue
            if row["value"] is None:
                continue  # was not JSON-representable; keep the initial
            execution.variables[row["name"]] = json.loads(row["value"])

    # ------------------------------------------------------------------
    # Crash recovery (resumable enactments)
    def recover(
        self,
        responders: Optional[dict[str, Responder]] = None,
        resume: bool = True,
    ) -> list[Execution]:
        """Resume enactments left ``running`` by a crashed engine.

        Call after recovering the database (:func:`repro.db.recover`) and
        redeploying the same definitions.  For every process instance the
        monitor tables show as in flight, this:

        1. rebuilds its :class:`Execution` (start time, persisted
           variables, own-row visibility, adopted temporary tables);
        2. *compensates* activity instances that were mid-run at the
           crash -- rows they created are deleted via their ``createdBy``
           provenance and the half-done instance rows are removed, so the
           re-run starts from a clean slate;
        3. re-walks the process body, skipping activities whose instances
           completed before the crash (their effects are already
           durable), executing the rest, and closing the instance.

        With ``resume=False`` only steps 1-2 run and the executions are
        returned still running (callers drive them manually).  INSERTs --
        both procedure ``write_rows`` and raw SQL through the env -- are
        provenance-tracked, so they are compensated and stay visible to
        the resumed enactment.  Raw-SQL UPDATE/DELETE effects of an
        activity that was mid-run at the crash are *not* undone; such
        statements re-execute on resume and should be idempotent
        (``UPDATE ... SET`` to absolute values).

        Returns the recovered executions.
        """
        with OBS.span("workflow.recover") as span:
            responders = responders or {}
            names_by_pid = {pid: name for name, pid in self._process_ids.items()}
            in_flight = [
                dict(row)
                for row in self.database.table(datamodel.T_PROCESS_INSTANCE).rows()
                if row["status"] == datamodel.RUNNING
                and row["process_id"] in names_by_pid
                and row["id"] not in self.executions
            ]
            recovered: list[Execution] = []
            for row in in_flight:
                process_name = names_by_pid[row["process_id"]]
                definition = self._definitions[process_name]
                instance = ProcessInstance(self.database, row["id"])
                activity_rows = instance.activity_instances()
                user_id = next(
                    (
                        ai["user_id"]
                        for ai in activity_rows
                        if ai["user_id"] is not None
                    ),
                    None,
                )
                execution = Execution(
                    self, definition, instance, user_id, responders.get(process_name)
                )
                execution.start_time = row["start"] or 0
                self._restore_variables(execution)
                self.isolation.process_started(execution.id, execution.start_time)
                self._create_temp_tables(execution, adopt=True)
                self._compensate_crashed(execution, activity_rows)
                self._restore_own_tids(execution)
                execution.skip_completed = self._completed_by_activity(
                    definition, activity_rows
                )
                self.executions[execution.id] = execution
                recovered.append(execution)
            if resume:
                for execution in recovered:
                    try:
                        self.execute_node(execution.definition.body, execution)
                    except Exception:
                        self._abort(execution)
                        raise
                    if not execution.detached_running:
                        self.close(execution)
            span.set_tag("instances", len(recovered))
        return recovered

    def _compensate_crashed(
        self, execution: Execution, activity_rows: list[Row]
    ) -> None:
        """Undo activity instances that were mid-run at the crash.

        Their completed statements are durable, so without compensation a
        re-run would double-apply them.  Provenance tells us exactly which
        rows each crashed instance created; those are deleted, then the
        half-done instance row itself (the re-run gets a fresh one).
        """
        # RUNNING was mid-flight; NOT_STARTED was created but never ran.
        # Both belong to the crashed attempt and must go.
        crashed_ids = {
            ai["id"]
            for ai in activity_rows
            if ai["status"] != datamodel.COMPLETED
        }
        if not crashed_ids:
            return
        provenance = self.database.table(datamodel.T_PROVENANCE)
        by_table: dict[str, list[int]] = {}
        for prov in provenance.rows():
            if prov["activity_instance_id"] in crashed_ids:
                by_table.setdefault(prov["entity_table"], []).append(
                    prov["entity_tid"]
                )
        for table, tids in by_table.items():
            if self.database.has_table(table):
                self.database.delete_by_tids(table, tids)
        for crashed in sorted(crashed_ids):
            self.database.delete(
                datamodel.T_PROVENANCE, col("activity_instance_id") == crashed
            )
            self.database.delete(
                datamodel.T_ACTIVITY_INSTANCE, col("id") == crashed
            )
        activity_rows[:] = [
            ai for ai in activity_rows if ai["id"] not in crashed_ids
        ]

    def _restore_own_tids(self, execution: Execution) -> None:
        """Rebuild the own-writes visibility set from provenance."""
        instance_ids = {
            ai["id"]
            for ai in execution.instance.activity_instances()
        }
        for prov in self.database.table(datamodel.T_PROVENANCE).rows():
            if prov["activity_instance_id"] in instance_ids:
                execution.own_tids.setdefault(prov["entity_table"], set()).add(
                    prov["entity_tid"]
                )

    def _completed_by_activity(
        self, definition: ProcessDefinition, activity_rows: list[Row]
    ) -> dict[str, list[int]]:
        """Completed instance ids per activity name, in execution order."""
        activity_names = {
            aid: name
            for (process, name), aid in self._activity_ids.items()
            if process == definition.name
        }
        skip: dict[str, list[int]] = {}
        for ai in sorted(activity_rows, key=lambda r: r["id"]):
            if ai["status"] != datamodel.COMPLETED:
                continue
            name = activity_names.get(ai["activity_id"])
            if name is not None:
                skip.setdefault(name, []).append(ai["id"])
        return skip

    # ------------------------------------------------------------------
    # Retention
    def prune_finished(self, process_instance_id: Optional[int] = None) -> int:
        """Drop finished-activity records kept for ``ta-*`` delta handlers.

        Records accumulate for as long as the designer may want deltas to
        reach terminated activity instances (``ta-tp`` has no natural end).
        Prune everything, or only one process instance's records, once no
        further propagation to them is wanted.  Returns how many records
        were dropped.  The persisted instance history is untouched.
        """
        with self._lock:
            if process_instance_id is None:
                dropped = len(self.finished_activities)
                self.finished_activities.clear()
                return dropped
            keep = [
                f
                for f in self.finished_activities
                if f.execution.id != process_instance_id
            ]
            dropped = len(self.finished_activities) - len(keep)
            self.finished_activities = keep
            return dropped

    # ------------------------------------------------------------------
    # Introspection used by propagation
    def running_instances_of(self, process_name: str) -> list[Execution]:
        return [
            execution
            for execution in self.executions.values()
            if execution.definition.name == process_name and execution.is_running()
        ]

    def live_instances_of_activity(
        self, process_name: str, activity_name: str
    ) -> list[LiveActivity]:
        with self._lock:
            return [
                live
                for live in self.live_activities.values()
                if live.execution.definition.name == process_name
                and live.activity.name == activity_name
            ]

    def finished_instances_of_activity(
        self, process_name: str, activity_name: str, process_running: bool
    ) -> list[FinishedActivity]:
        with self._lock:
            out = []
            for finished in self.finished_activities:
                if finished.execution.definition.name != process_name:
                    continue
                if finished.activity.name != activity_name:
                    continue
                if finished.execution.is_running() != process_running:
                    continue
                out.append(finished)
            return out
