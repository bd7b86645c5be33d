"""Black-box procedures and the environment they run in.

Procedures are "computation units implemented by some external, black-box
software" (Section V): clustering, layout, statistics.  The engine only
knows their table signature

    p : R_1, ..., R_l, T^w_1, ..., T^w_m  ->  S_1, ..., S_n

and, optionally, their *delta handlers*: ``p_h,r`` invoked while ``p`` is
running and ``p_h,f`` invoked after ``p`` finished (Section V).

The concrete interface mirrors the paper's EdiflowProcess Java interface
(Section VI-D): ``initialize()``, ``run(env)``, ``update(env)`` and
``get_name()`` -- here ``update`` is split into the two handlers, and
``run`` receives the evaluated inputs explicitly.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Any, Callable, Optional, Sequence

from ..db.database import Database
from ..db.schema import TID
from ..errors import ProcedureError, WorkflowError
from ..ivm.delta import Delta
from ..retry import RetryPolicy

if TYPE_CHECKING:  # pragma: no cover
    from .engine import WorkflowEngine
    from .isolation import IsolationContext, IsolationManager

Row = dict[str, Any]
Tables = list[list[Row]]


class ProcessEnv:
    """Everything a procedure may touch while executing.

    An instance is created per activity-instance execution and handed to
    the procedure, exactly like the paper's ``ProcessEnv`` is "passed as a
    parameter to a newly created instance of a procedure" (Section VI-D).
    """

    def __init__(
        self,
        engine: "WorkflowEngine",
        process_instance_id: int,
        activity_instance_id: Optional[int],
        isolation: "IsolationContext",
        variables: dict[str, Any],
        constants: dict[str, Any],
    ) -> None:
        self.engine = engine
        self.database: Database = engine.database
        self.process_instance_id = process_instance_id
        self.activity_instance_id = activity_instance_id
        self.isolation = isolation
        self.variables = variables
        self.constants = constants

    # -- scalar scope -----------------------------------------------------
    def lookup(self, name: str) -> Any:
        """Resolve a variable or constant by name."""
        if name in self.variables:
            return self.variables[name]
        if name in self.constants:
            return self.constants[name]
        raise WorkflowError(f"unknown variable or constant {name!r}")

    def assign(self, name: str, value: Any) -> None:
        if name in self.constants:
            raise WorkflowError(f"cannot assign to constant {name!r}")
        self.variables[name] = value
        # Write-through to the core tables so a crashed enactment resumes
        # with the variable values it had (see WorkflowEngine.recover).
        self.engine.persist_variable(self.process_instance_id, name, value)

    def resolve_params(self, params: Sequence[Any]) -> list[Any]:
        """Replace ``$name`` placeholders in a parameter list."""
        resolved = []
        for param in params:
            if isinstance(param, str) and param.startswith("$"):
                resolved.append(self.lookup(param[1:]))
            else:
                resolved.append(param)
        return resolved

    def resolve_sql(self, sql: str, params: Sequence[Any]) -> tuple[str, list[Any]]:
        """Rewrite ``$name`` references inside SQL text to bound parameters.

        ``SELECT * FROM t WHERE n > $k`` becomes ``... WHERE n > ?`` with
        the variable's value appended after the caller's own parameters.
        Dollar signs inside string literals are left alone.
        """
        resolved_params = self.resolve_params(params)
        if "$" not in sql:
            return sql, resolved_params
        out: list[str] = []
        extra: list[Any] = []
        i = 0
        n = len(sql)
        in_string = False
        while i < n:
            ch = sql[i]
            if ch == "'":
                in_string = not in_string
                out.append(ch)
                i += 1
                continue
            if ch == "$" and not in_string:
                j = i + 1
                while j < n and (sql[j].isalnum() or sql[j] == "_"):
                    j += 1
                name = sql[i + 1 : j]
                if not name:
                    raise WorkflowError(f"dangling '$' in SQL: {sql!r}")
                out.append("?")
                extra.append(self.lookup(name))
                i = j
                continue
            out.append(ch)
            i += 1
        return "".join(out), resolved_params + extra

    # -- data access (isolation-aware) -------------------------------------
    def query(self, sql: str, params: Sequence[Any] = ()) -> list[Row]:
        """Run a SELECT through this instance's isolation context."""
        sql, bound = self.resolve_sql(sql, params)
        return self.engine.isolation.query(sql, bound, self.isolation)

    def read_table(self, table: str) -> list[Row]:
        """All rows of ``table`` visible to this instance."""
        return self.engine.isolation.visible_rows(table, self.isolation)

    def execute(self, sql: str, params: Sequence[Any] = ()) -> Any:
        """Run a mutation statement (INSERT/UPDATE/DELETE/CREATE...).

        DELETE statements are intercepted by the isolation layer and
        turned into deletion-table entries (Section VI-A).  INSERTed rows
        get durable ``createdBy`` provenance in the statement's own
        commit, so they stay visible to this enactment across a crash +
        recover() and are compensated if this activity dies mid-run.
        """
        sql, bound = self.resolve_sql(sql, params)
        with self.database.transaction():
            result = self.engine.isolation.execute(sql, bound, self.isolation)
            change = result.change
            if change is not None and change.inserted:
                self.engine.record_created(
                    change.table, [row[TID] for row in change.inserted], self
                )
        return result

    def write_rows(self, table: str, rows: Sequence[Row]) -> None:
        """Append rows to a (persistent or temporary) relation."""
        self.engine.write_rows(table, rows, self)

    def call_procedure(
        self, name: str, inputs: Tables, read_write: Sequence[str] = ()
    ) -> Tables:
        """Nested procedure invocation (used by ProcCallExpr)."""
        procedure = self.engine.procedures.instantiate(name)
        procedure.initialize(self)
        if procedure.retry_policy is not None:
            return procedure.retry_policy.call(
                procedure.run, self, inputs, list(read_write)
            )
        return procedure.run(self, inputs, list(read_write))


class Procedure:
    """Base class for black-box procedures.

    Subclasses implement :meth:`run`; optionally they override the delta
    handlers.  A procedure that sets ``distributive = True`` declares that
    it distributes over union in all inputs -- "there is no need to
    specify delta handlers for procedures which distribute over the union,
    since the procedure itself can serve as handler" (Section V): the
    default handlers then re-run the procedure on the delta alone.
    """

    #: Procedure name used in process specifications.
    name: str = ""
    #: True if p(R u dR) = p(R) u p(dR); enables automatic delta handling.
    distributive: bool = False
    #: Optional :class:`repro.retry.RetryPolicy` re-running transient
    #: failures of :meth:`run`.  Setting it asserts the procedure is safe
    #: to re-execute (idempotent or side-effect free); a CallProcedure
    #: activity's own ``options["retry"]`` takes precedence.
    retry_policy: Optional["RetryPolicy"] = None

    def initialize(self, env: ProcessEnv) -> None:
        """One-time setup before :meth:`run` (paper: ``initialize()``)."""

    def run(self, env: ProcessEnv, inputs: Tables, read_write: list[str]) -> Tables:
        """Execute; return the output tables (lists of row dicts)."""
        raise NotImplementedError

    def get_name(self) -> str:
        return self.name or type(self).__name__

    # -- delta handlers (Section V) ----------------------------------------
    def has_running_handler(self) -> bool:
        return self.distributive or (
            type(self).on_delta_running is not Procedure.on_delta_running
        )

    def has_finished_handler(self) -> bool:
        return self.distributive or (
            type(self).on_delta_finished is not Procedure.on_delta_finished
        )

    def on_delta_running(self, env: ProcessEnv, delta: Delta) -> Optional[Tables]:
        """``p_h,r``: propagate a delta while the procedure is running."""
        if self.distributive:
            return self._distribute(env, delta)
        return None

    def on_delta_finished(self, env: ProcessEnv, delta: Delta) -> Optional[Tables]:
        """``p_h,f``: propagate a delta after the procedure finished."""
        if self.distributive:
            return self._distribute(env, delta)
        return None

    def _distribute(self, env: ProcessEnv, delta: Delta) -> Tables:
        """Default handler for distributive procedures: run on the delta.

        The convention of the paper applies: "if there are deltas only for
        some of p's inputs, the handler will be invoked providing empty
        relations for the other inputs" -- the engine passes exactly one
        non-empty input (the delta rows), and this base implementation
        runs the procedure over it.
        """
        return self.run(env, [list(delta.inserted)], [])


class FunctionProcedure(Procedure):
    """A *function*: a procedure with no side effects (m = 0, Section V).

    Wraps a plain Python callable ``fn(rows...) -> rows`` or
    ``fn(rows...) -> [rows, ...]``.
    """

    def __init__(self, name: str, fn: Callable[..., Any], distributive: bool = False) -> None:
        self.name = name
        self.fn = fn
        self.distributive = distributive

    def run(self, env: ProcessEnv, inputs: Tables, read_write: list[str]) -> Tables:
        if read_write:
            raise ProcedureError(
                f"function {self.name!r} cannot take read-write tables"
            )
        result = self.fn(*inputs)
        if result is None:
            return []
        if isinstance(result, list) and (not result or isinstance(result[0], dict)):
            return [result]  # single output table (possibly empty)
        return list(result)


class ProcedureRegistry:
    """Name -> procedure factory.  Stands in for the OSGi module platform
    of Section VI-D: "integrating a new processing algorithm into the
    platform requires only implementing one procedure class".
    """

    def __init__(self) -> None:
        self._factories: dict[str, Callable[[], Procedure]] = {}
        self._singletons: dict[str, Procedure] = {}
        self._lock = threading.Lock()

    def register(
        self,
        procedure: Procedure | Callable[[], Procedure],
        name: Optional[str] = None,
        singleton: bool = True,
    ) -> str:
        """Register a procedure instance or factory under ``name``.

        With ``singleton=True`` (default) every instantiation returns the
        same object -- the common case for stateful procedures like layout
        engines whose delta handlers need the state built by ``run``.
        """
        with self._lock:
            if isinstance(procedure, Procedure):
                resolved = name or procedure.get_name()
                if singleton:
                    self._singletons[resolved] = procedure
                    self._factories[resolved] = lambda: procedure
                else:
                    factory = type(procedure)
                    self._factories[resolved] = factory  # type: ignore[assignment]
            else:
                if name is None:
                    raise ProcedureError("factory registration requires a name")
                resolved = name
                if singleton:
                    instance = procedure()
                    self._singletons[resolved] = instance
                    self._factories[resolved] = lambda: instance
                else:
                    self._factories[resolved] = procedure
            return resolved

    def register_function(
        self, name: str, fn: Callable[..., Any], distributive: bool = False
    ) -> str:
        return self.register(FunctionProcedure(name, fn, distributive=distributive))

    def instantiate(self, name: str) -> Procedure:
        with self._lock:
            factory = self._factories.get(name)
        if factory is None:
            raise ProcedureError(f"no procedure registered under {name!r}")
        return factory()

    def names(self) -> list[str]:
        return sorted(self._factories)

    def __contains__(self, name: str) -> bool:
        return name in self._factories
