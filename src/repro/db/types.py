"""Column types for the embedded relational engine.

The paper's process model is defined over "a set of atomic data types T"
(Section V).  We provide the small set a visual-analytics workload needs:
integers, floats, text, booleans, and timestamps.  Timestamps are logical
(monotonically increasing integers drawn from the database clock) so that
time-based isolation (Section VI-A) is deterministic and testable.

Each type knows how to validate and coerce Python values.  ``None`` is the
SQL NULL and is accepted by every type; nullability is enforced at the
schema level, not here.
"""

from __future__ import annotations

from typing import Any

from ..errors import TypeMismatchError


class ColumnType:
    """Base class for column types.

    Subclasses define :attr:`name` (the SQL spelling) and implement
    :meth:`coerce`, which either returns a value of the canonical Python
    representation or raises :class:`TypeMismatchError`.
    """

    name: str = "ANY"
    #: Python type whose instances :meth:`coerce` returns unchanged, if any.
    #: A schema's compiled row plan tests ``type(value) is exact`` to skip
    #: the call (``bool`` is not ``int`` under that test, as coerce demands).
    exact: type | None = None

    def coerce(self, value: Any) -> Any:
        """Return ``value`` converted to this type's canonical representation.

        ``None`` always passes through (NULL is typeless).
        """
        return value

    def validate(self, value: Any) -> Any:
        """Coerce ``value``, raising :class:`TypeMismatchError` on failure."""
        if value is None:
            return None
        return self.coerce(value)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__}>"

    def __eq__(self, other: object) -> bool:
        return type(self) is type(other)

    def __hash__(self) -> int:
        return hash(type(self))


class IntegerType(ColumnType):
    """64-bit-style integer column (Python int, unbounded)."""

    name = "INTEGER"
    exact = int

    def coerce(self, value: Any) -> int:
        if isinstance(value, bool):
            # bool is an int subclass but we refuse the silent confusion.
            raise TypeMismatchError(f"expected INTEGER, got boolean {value!r}")
        if isinstance(value, int):
            return value
        if isinstance(value, float) and value.is_integer():
            return int(value)
        if isinstance(value, str):
            try:
                return int(value, 10)
            except ValueError:
                pass
        raise TypeMismatchError(f"expected INTEGER, got {value!r}")


class FloatType(ColumnType):
    """Double-precision float column."""

    name = "FLOAT"
    exact = float

    def coerce(self, value: Any) -> float:
        if isinstance(value, bool):
            raise TypeMismatchError(f"expected FLOAT, got boolean {value!r}")
        if isinstance(value, (int, float)):
            return float(value)
        if isinstance(value, str):
            try:
                return float(value)
            except ValueError:
                pass
        raise TypeMismatchError(f"expected FLOAT, got {value!r}")


class TextType(ColumnType):
    """Unicode string column."""

    name = "TEXT"
    exact = str

    def coerce(self, value: Any) -> str:
        if isinstance(value, str):
            return value
        raise TypeMismatchError(f"expected TEXT, got {value!r}")


class BooleanType(ColumnType):
    """Boolean column.  Accepts 0/1 integers for SQL friendliness."""

    name = "BOOLEAN"
    exact = bool

    def coerce(self, value: Any) -> bool:
        if isinstance(value, bool):
            return value
        if isinstance(value, int) and value in (0, 1):
            return bool(value)
        raise TypeMismatchError(f"expected BOOLEAN, got {value!r}")


class TimestampType(ColumnType):
    """Logical timestamp column.

    Values are non-negative integers drawn from the database's logical
    clock (:meth:`repro.db.database.Database.now`).  Using logical time
    keeps the isolation and notification machinery fully deterministic.
    """

    name = "TIMESTAMP"

    def coerce(self, value: Any) -> int:
        if isinstance(value, bool):
            raise TypeMismatchError(f"expected TIMESTAMP, got boolean {value!r}")
        if isinstance(value, int):
            if value < 0:
                raise TypeMismatchError(f"timestamp must be >= 0, got {value!r}")
            return value
        raise TypeMismatchError(f"expected TIMESTAMP, got {value!r}")


class AnyType(ColumnType):
    """Untyped column; accepts any Python value.

    Used for opaque payloads carried by black-box procedures (Section V):
    the engine never interprets these values, so constraining them would
    only get in the way.
    """

    name = "ANY"


#: Canonical singletons -- schemas compare types by identity of class,
#: so sharing instances keeps things cheap and hashable.
INTEGER = IntegerType()
FLOAT = FloatType()
TEXT = TextType()
BOOLEAN = BooleanType()
TIMESTAMP = TimestampType()
ANY = AnyType()

_BY_NAME = {
    "INTEGER": INTEGER,
    "INT": INTEGER,
    "BIGINT": INTEGER,
    "FLOAT": FLOAT,
    "REAL": FLOAT,
    "DOUBLE": FLOAT,
    "TEXT": TEXT,
    "VARCHAR": TEXT,
    "STRING": TEXT,
    "BOOLEAN": BOOLEAN,
    "BOOL": BOOLEAN,
    "TIMESTAMP": TIMESTAMP,
    "ANY": ANY,
}


def type_from_name(name: str) -> ColumnType:
    """Resolve a SQL type name (case-insensitive) to a :class:`ColumnType`.

    Raises :class:`TypeMismatchError` for unknown names.
    """
    try:
        return _BY_NAME[name.upper()]
    except KeyError:
        raise TypeMismatchError(f"unknown column type {name!r}") from None


def infer_type(value: Any) -> ColumnType:
    """Infer a column type from a sample Python value.

    Used by ad-hoc table creation helpers (e.g. loading rows from an
    application generator without an explicit schema).
    """
    if isinstance(value, bool):
        return BOOLEAN
    if isinstance(value, int):
        return INTEGER
    if isinstance(value, float):
        return FLOAT
    if isinstance(value, str):
        return TEXT
    return ANY
