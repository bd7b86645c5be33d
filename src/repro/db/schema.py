"""Table schemas: columns, keys, and row validation.

A schema is the concrete enactment of one entity of the conceptual data
model (Section IV-B of the paper): "a relation is created for each entity
endowed with a primary key".  Relationships become foreign-key columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Any, Iterable, Mapping, Sequence

from ..errors import ConstraintViolation, SchemaError, TypeMismatchError
from .types import ANY, ColumnType, type_from_name

_NONE = type(None)

#: Hidden names the engine maintains.  ``tid`` is the tuple identifier
#: used by deletion tables (Section VI-A), the one hidden key of a stored
#: row image.  The creation stamp that implements time-based isolation is
#: not in the image: the table keeps it by tid, and ``CREATED_AT`` names
#: it to the planner and the isolation predicates.
TID = "__tid__"
CREATED_AT = "__created__"
HIDDEN_FIELDS = (TID, CREATED_AT)


@dataclass(frozen=True)
class Column:
    """One typed column of a relation."""

    name: str
    type: ColumnType
    nullable: bool = True
    default: Any = None

    def __post_init__(self) -> None:
        if not self.name or not self.name.replace("_", "a").isalnum():
            raise SchemaError(f"invalid column name {self.name!r}")
        if self.name.startswith("__"):
            raise SchemaError(
                f"column name {self.name!r} collides with hidden engine fields"
            )
        if self.default is not None:
            # Validate the default eagerly so bad schemas fail at definition.
            object.__setattr__(self, "default", self.type.validate(self.default))


@dataclass(frozen=True)
class ForeignKey:
    """Declarative foreign key: ``column`` references ``ref_table.ref_column``.

    The engine records foreign keys in the catalog and (optionally) checks
    them on insert; the EdiFlow data model uses them to tie application
    entities to activity instances (``createdBy`` relationships, Fig. 3).
    """

    column: str
    ref_table: str
    ref_column: str


class TableSchema:
    """Schema of a relation: ordered columns plus key constraints."""

    def __init__(
        self,
        name: str,
        columns: Sequence[Column],
        primary_key: str | None = None,
        unique: Iterable[Sequence[str] | str] = (),
        foreign_keys: Iterable[ForeignKey] = (),
    ) -> None:
        if not name or not name.replace("_", "a").isalnum():
            raise SchemaError(f"invalid table name {name!r}")
        if not columns:
            raise SchemaError(f"table {name!r} must have at least one column")
        self.name = name
        self.columns: tuple[Column, ...] = tuple(columns)
        self._by_name: dict[str, Column] = {}
        for col in self.columns:
            if col.name in self._by_name:
                raise SchemaError(f"duplicate column {col.name!r} in {name!r}")
            self._by_name[col.name] = col
        if primary_key is not None and primary_key not in self._by_name:
            raise SchemaError(
                f"primary key {primary_key!r} is not a column of {name!r}"
            )
        self.primary_key = primary_key
        norm_unique: list[tuple[str, ...]] = []
        for spec in unique:
            cols = (spec,) if isinstance(spec, str) else tuple(spec)
            for c in cols:
                if c not in self._by_name:
                    raise SchemaError(f"unique constraint on unknown column {c!r}")
            norm_unique.append(cols)
        self.unique: tuple[tuple[str, ...], ...] = tuple(norm_unique)
        fks = tuple(foreign_keys)
        for fk in fks:
            if fk.column not in self._by_name:
                raise SchemaError(f"foreign key on unknown column {fk.column!r}")
        self.foreign_keys: tuple[ForeignKey, ...] = fks
        # The row plan: what validate_row needs of each column, in column
        # order, compiled once so the per-row loop reads no attributes.
        self._row_plan = tuple(
            (c.name, c.type.exact, c.type.validate, c.nullable, c.default)
            for c in self.columns
        )
        self._accepted_keys = frozenset(self._by_name).union(HIDDEN_FIELDS)
        # The update plan: the same entries by column name, for
        # validate_update (an UPDATE names its columns; defaults play no part).
        self._update_plan = {
            name: (exact, validate, nullable)
            for name, exact, validate, nullable, _default in self._row_plan
        }
        # The statement plan, for validate_rows: (getter, value types
        # stored unchanged) per column that needs a check -- the types are
        # None for ANY NOT NULL, meaning anything but NULL; a nullable ANY
        # column needs no check.  A type with no exact Python type whose
        # coerce still checks (TIMESTAMP's range) makes the schema
        # ineligible: its statements always go row by row.
        self._statement_keys = {tuple(self._by_name)}
        eligible = all(c.type.exact is not None or c.type == ANY for c in self.columns)
        self._statement_plan = (
            tuple(
                (
                    itemgetter(c.name),
                    None
                    if c.type.exact is None
                    else frozenset((c.type.exact, _NONE) if c.nullable else (c.type.exact,)),
                )
                for c in self.columns
                if c.type.exact is not None or not c.nullable
            )
            if eligible
            else None
        )

    # ------------------------------------------------------------------
    @property
    def column_names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.columns)

    def has_column(self, name: str) -> bool:
        return name in self._by_name

    def column(self, name: str) -> Column:
        try:
            return self._by_name[name]
        except KeyError:
            raise SchemaError(
                f"table {self.name!r} has no column {name!r}"
            ) from None

    # ------------------------------------------------------------------
    def validate_row(self, values: Mapping[str, Any]) -> dict[str, Any]:
        """Validate and complete a row for insertion.

        Unknown keys raise; missing columns take their default (or NULL).
        Returns a fresh dict with every schema column present, coerced to
        canonical Python representations.  Runs on the row plan compiled
        in ``__init__``: a value that already has its column's exact
        Python type is stored without a call.
        """
        if not values.keys() <= self._accepted_keys:
            for key in values:
                if key not in self._accepted_keys:
                    raise SchemaError(
                        f"table {self.name!r} has no column {key!r}"
                    )
        row: dict[str, Any] = {}
        get = values.get
        for name, exact, validate, nullable, default in self._row_plan:
            value = get(name, default)
            if type(value) is not exact:
                if value is not None:
                    try:
                        value = validate(value)
                    except TypeMismatchError as exc:
                        raise TypeMismatchError(
                            f"{self.name}.{name}: {exc}"
                        ) from None
                if value is None and not nullable:
                    raise ConstraintViolation(
                        f"{self.name}.{name} is NOT NULL but no value was given"
                    )
            row[name] = value
        return row

    def validate_rows(
        self, rows: Sequence[Mapping[str, Any]]
    ) -> list[dict[str, Any]] | None:
        """The stored rows of an *exact* statement, else None.

        A statement of two or more rows is exact when every row names the
        schema's columns in schema order and every value would pass
        :meth:`validate_row` unchanged (``type(value)`` is its column's
        exact type, or NULL where the column allows it).  Its stored rows
        are then plain copies, checked a column at a time; any other
        statement goes through :meth:`validate_row` row by row, which
        alone coerces, fills defaults and words errors.  Key order is
        part of the check: the WAL logs a commit's rows under the key
        order of its first row.
        """
        plan = self._statement_plan
        if plan is None or len(rows) < 2 or set(map(tuple, rows)) != self._statement_keys:
            return None
        stored = list(map(dict, rows))
        for getter, allowed in plan:
            types = set(map(type, map(getter, stored)))
            if not (_NONE not in types if allowed is None else types <= allowed):
                return None
        return stored

    def validate_update(self, values: Mapping[str, Any]) -> dict[str, Any]:
        """Validate a partial row used by UPDATE: only the given columns.

        Runs on the update plan compiled in ``__init__``, with
        :meth:`validate_row`'s treatment of each value.
        """
        plan = self._update_plan
        out: dict[str, Any] = {}
        for key, value in values.items():
            try:
                exact, validate, nullable = plan[key]
            except KeyError:
                raise SchemaError(
                    f"table {self.name!r} has no column {key!r}"
                ) from None
            if type(value) is not exact:
                if value is not None:
                    try:
                        value = validate(value)
                    except TypeMismatchError as exc:
                        raise TypeMismatchError(
                            f"{self.name}.{key}: {exc}"
                        ) from None
                if value is None and not nullable:
                    raise ConstraintViolation(
                        f"{self.name}.{key} is NOT NULL; cannot set to NULL"
                    )
            out[key] = value
        return out

    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """Serializable description, used by the catalog and persistence."""
        return {
            "name": self.name,
            "columns": [
                {
                    "name": c.name,
                    "type": c.type.name,
                    "nullable": c.nullable,
                    "default": c.default,
                }
                for c in self.columns
            ],
            "primary_key": self.primary_key,
            "unique": [list(u) for u in self.unique],
            "foreign_keys": [
                {"column": fk.column, "ref_table": fk.ref_table, "ref_column": fk.ref_column}
                for fk in self.foreign_keys
            ],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "TableSchema":
        """Inverse of :meth:`to_dict`."""
        columns = [
            Column(
                name=c["name"],
                type=type_from_name(c["type"]),
                nullable=c.get("nullable", True),
                default=c.get("default"),
            )
            for c in data["columns"]
        ]
        fks = [
            ForeignKey(f["column"], f["ref_table"], f["ref_column"])
            for f in data.get("foreign_keys", ())
        ]
        return cls(
            name=data["name"],
            columns=columns,
            primary_key=data.get("primary_key"),
            unique=[tuple(u) for u in data.get("unique", ())],
            foreign_keys=fks,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        cols = ", ".join(f"{c.name} {c.type.name}" for c in self.columns)
        return f"<TableSchema {self.name}({cols})>"
