"""Exception hierarchy shared by every repro subsystem.

All library errors derive from :class:`ReproError` so applications can catch
one base class.  Subsystems raise the most specific subclass available.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class DatabaseError(ReproError):
    """Base class for errors raised by the embedded database engine."""


class SchemaError(DatabaseError):
    """Invalid schema definition or violation of a schema constraint."""


class TypeMismatchError(SchemaError):
    """A value does not conform to the declared column type."""


class ConstraintViolation(DatabaseError):
    """Primary key, unique, or not-null constraint violated."""


class UnknownTableError(DatabaseError):
    """A statement referenced a table that does not exist."""


class UnknownColumnError(DatabaseError):
    """An expression referenced a column not present in scope."""


class SQLSyntaxError(DatabaseError):
    """The SQL text could not be tokenized or parsed."""

    def __init__(self, message: str, position: int | None = None) -> None:
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class TransactionError(DatabaseError):
    """Misuse of the transaction API (e.g. commit without begin)."""


class ViewError(ReproError):
    """Errors in incremental-view definitions or maintenance."""


class LineageError(ReproError):
    """Errors in lineage capture, storage, or provenance queries."""


class WorkflowError(ReproError):
    """Base class for workflow/process-model errors."""


class SpecificationError(WorkflowError):
    """A process specification (XML or programmatic) is invalid."""


class EnactmentError(WorkflowError):
    """A process instance could not be advanced."""


class ProcedureError(WorkflowError):
    """A black-box procedure failed or was misconfigured."""


class PropagationError(WorkflowError):
    """An update-propagation action could not be applied."""


class IsolationError(WorkflowError):
    """Violation of the isolation protocol (e.g. unknown deletion epoch)."""


class RetryError(ReproError):
    """A retry policy was misconfigured (not: the retried call failed)."""


class SyncError(ReproError):
    """Errors in the DBMS <-> client synchronization protocol."""


class ProtocolError(SyncError):
    """A peer sent a message that violates the wire protocol."""


class VisError(ReproError):
    """Errors raised by the visualization toolkit."""


class LayoutError(VisError):
    """A layout algorithm received an invalid graph or parameters."""
