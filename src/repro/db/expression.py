"""Scalar and boolean expressions evaluated over rows.

These expressions serve three masters:

* the relational algebra (:mod:`repro.db.algebra`) uses them as selection
  predicates and projection items;
* the SQL planner compiles parsed SQL expressions into them;
* the workflow expression language (Section V of the paper) embeds queries
  whose predicates are built from them.

Evaluation follows SQL three-valued-logic in the places that matter:
comparisons against NULL yield NULL (represented as ``None``), and a
selection keeps a row only when its predicate evaluates to ``True``.
"""

from __future__ import annotations

import functools
import operator
from contextvars import ContextVar
from typing import Any, Callable, Iterable, Mapping, Sequence

from ..errors import DatabaseError, UnknownColumnError

Row = Mapping[str, Any]


class Expression:
    """Base class.  Subclasses implement :meth:`eval`."""

    def eval(self, row: Row) -> Any:
        raise NotImplementedError

    def columns(self) -> set[str]:
        """Names of the columns this expression references."""
        return set()

    # Convenience builders so predicates read naturally in Python code:
    #   (col("state") == "CA") & (col("votes") > 100)
    def __eq__(self, other: object) -> "Comparison":  # type: ignore[override]
        return Comparison("=", self, wrap(other))

    def __ne__(self, other: object) -> "Comparison":  # type: ignore[override]
        return Comparison("!=", self, wrap(other))

    def __lt__(self, other: object) -> "Comparison":
        return Comparison("<", self, wrap(other))

    def __le__(self, other: object) -> "Comparison":
        return Comparison("<=", self, wrap(other))

    def __gt__(self, other: object) -> "Comparison":
        return Comparison(">", self, wrap(other))

    def __ge__(self, other: object) -> "Comparison":
        return Comparison(">=", self, wrap(other))

    def __and__(self, other: "Expression") -> "And":
        return And(self, wrap(other))

    def __or__(self, other: "Expression") -> "Or":
        return Or(self, wrap(other))

    def __invert__(self) -> "Not":
        return Not(self)

    def __add__(self, other: object) -> "Arithmetic":
        return Arithmetic("+", self, wrap(other))

    def __sub__(self, other: object) -> "Arithmetic":
        return Arithmetic("-", self, wrap(other))

    def __mul__(self, other: object) -> "Arithmetic":
        return Arithmetic("*", self, wrap(other))

    def __truediv__(self, other: object) -> "Arithmetic":
        return Arithmetic("/", self, wrap(other))

    def __hash__(self) -> int:  # __eq__ is overloaded, keep hashable by id
        return id(self)

    def is_in(self, values: Iterable[Any]) -> "InList":
        return InList(self, list(values))

    def is_null(self) -> "IsNull":
        return IsNull(self, negate=False)

    def is_not_null(self) -> "IsNull":
        return IsNull(self, negate=True)


def wrap(value: object) -> Expression:
    """Lift a plain Python value into a :class:`Literal` (idempotent)."""
    if isinstance(value, Expression):
        return value
    return Literal(value)


class Literal(Expression):
    """A constant value."""

    __slots__ = ("value",)

    def __init__(self, value: Any) -> None:
        self.value = value

    def eval(self, row: Row) -> Any:
        return self.value

    def __repr__(self) -> str:
        return f"Literal({self.value!r})"


#: The parameter values of the execution running on this thread (or
#: task): what every :class:`Param` reads.  Set by :class:`Binding`.
_BINDING: ContextVar[Sequence[Any]] = ContextVar("repro_binding", default=())


class Binding:
    """Context manager binding ``values`` to the ``?`` slots of whatever
    runs inside it; nested bindings restore the outer one on exit.

    One plan serves every execution of its SQL text, so a binding is a
    property of the execution, never written into the plan.
    """

    __slots__ = ("values", "_token")

    def __init__(self, values: Sequence[Any]) -> None:
        self.values = values

    def __enter__(self) -> "Binding":
        self._token = _BINDING.set(self.values)
        return self

    def __exit__(self, *exc: object) -> None:
        _BINDING.reset(self._token)


class Param(Expression):
    """The ``?`` at position ``index`` of a statement: a slot that reads
    the value its execution bound (see :class:`Binding`), so the plan
    holding it is the same for every binding."""

    __slots__ = ("index",)

    def __init__(self, index: int) -> None:
        self.index = index

    def current(self) -> Any:
        """The value bound to this slot right now."""
        values = _BINDING.get()
        try:
            return values[self.index]
        except IndexError:
            raise too_few_params(self.index, len(values)) from None

    def eval(self, row: Row) -> Any:
        return self.current()

    def __repr__(self) -> str:
        return f"${self.index + 1}"


def too_few_params(index: int, supplied: int) -> DatabaseError:
    return DatabaseError(
        f"statement has a '?' at index {index} but only "
        f"{supplied} parameter(s) were supplied"
    )


def slot_value(key: Any) -> Any:
    """An index leaf's key as this execution sees it: the value itself,
    or the value bound to it when it is a :class:`Param`."""
    return key.current() if isinstance(key, Param) else key


def has_param(expr: Expression) -> bool:
    """True when ``expr`` may read a ``?`` slot: a :class:`Lambda` is
    opaque (the planner's LIKE closes over its pattern), so it counts."""
    if isinstance(expr, Param):
        return True
    if isinstance(expr, (Comparison, And, Or, Arithmetic)):
        return has_param(expr.left) or has_param(expr.right)
    if isinstance(expr, (Not, IsNull, Negate, InList, InSet)):
        return has_param(expr.operand)
    if isinstance(expr, FunctionCall):
        return any(has_param(arg) for arg in expr.args)
    return isinstance(expr, Lambda)


class ColumnRef(Expression):
    """Reference to a column by (possibly qualified) name.

    Qualified names (``t.col``) are produced by the SQL planner when two
    tables in scope share a column name; the executor materializes rows
    with both plain and qualified keys where needed.
    """

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def eval(self, row: Row) -> Any:
        try:
            return row[self.name]
        except KeyError:
            # Fall back to the unqualified suffix: rows from a single-table
            # scan carry plain column names.
            if "." in self.name:
                suffix = self.name.split(".", 1)[1]
                if suffix in row:
                    return row[suffix]
            raise UnknownColumnError(
                f"no column {self.name!r} in row with columns {sorted(row)}"
            ) from None

    def columns(self) -> set[str]:
        return {self.name}

    def __repr__(self) -> str:
        return f"col({self.name!r})"


def col(name: str) -> ColumnRef:
    """Shorthand constructor used throughout the library and by users."""
    return ColumnRef(name)


_CMP_OPS: dict[str, Callable[[Any, Any], bool]] = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


class Comparison(Expression):
    """Binary comparison with SQL NULL semantics (NULL op x -> NULL)."""

    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: Expression, right: Expression) -> None:
        if op == "<>":
            op = "!="
        if op not in _CMP_OPS:
            raise ValueError(f"unknown comparison operator {op!r}")
        self.op = op
        self.left = left
        self.right = right

    def eval(self, row: Row) -> bool | None:
        lhs = self.left.eval(row)
        rhs = self.right.eval(row)
        if lhs is None or rhs is None:
            return None
        return _CMP_OPS[self.op](lhs, rhs)

    def columns(self) -> set[str]:
        return self.left.columns() | self.right.columns()

    def __repr__(self) -> str:
        return f"({self.left!r} {self.op} {self.right!r})"


class And(Expression):
    """Three-valued AND."""

    __slots__ = ("left", "right")

    def __init__(self, left: Expression, right: Expression) -> None:
        self.left = left
        self.right = right

    def eval(self, row: Row) -> bool | None:
        lhs = self.left.eval(row)
        if lhs is False:
            return False
        rhs = self.right.eval(row)
        if rhs is False:
            return False
        if lhs is None or rhs is None:
            return None
        return True

    def columns(self) -> set[str]:
        return self.left.columns() | self.right.columns()


class Or(Expression):
    """Three-valued OR."""

    __slots__ = ("left", "right")

    def __init__(self, left: Expression, right: Expression) -> None:
        self.left = left
        self.right = right

    def eval(self, row: Row) -> bool | None:
        lhs = self.left.eval(row)
        if lhs is True:
            return True
        rhs = self.right.eval(row)
        if rhs is True:
            return True
        if lhs is None or rhs is None:
            return None
        return False

    def columns(self) -> set[str]:
        return self.left.columns() | self.right.columns()


class Not(Expression):
    """Three-valued NOT."""

    __slots__ = ("operand",)

    def __init__(self, operand: Expression) -> None:
        self.operand = operand

    def eval(self, row: Row) -> bool | None:
        value = self.operand.eval(row)
        if value is None:
            return None
        return not value

    def columns(self) -> set[str]:
        return self.operand.columns()


class IsNull(Expression):
    """``expr IS [NOT] NULL`` -- always two-valued."""

    __slots__ = ("operand", "negate")

    def __init__(self, operand: Expression, negate: bool = False) -> None:
        self.operand = operand
        self.negate = negate

    def eval(self, row: Row) -> bool:
        result = self.operand.eval(row) is None
        return not result if self.negate else result

    def columns(self) -> set[str]:
        return self.operand.columns()


_ARITH_OPS: dict[str, Callable[[Any, Any], Any]] = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
    "%": operator.mod,
}


class Arithmetic(Expression):
    """Binary arithmetic; NULL-propagating; division by zero yields NULL."""

    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: Expression, right: Expression) -> None:
        if op not in _ARITH_OPS:
            raise ValueError(f"unknown arithmetic operator {op!r}")
        self.op = op
        self.left = left
        self.right = right

    def eval(self, row: Row) -> Any:
        lhs = self.left.eval(row)
        rhs = self.right.eval(row)
        if lhs is None or rhs is None:
            return None
        if self.op in ("/", "%") and rhs == 0:
            return None
        return _ARITH_OPS[self.op](lhs, rhs)

    def columns(self) -> set[str]:
        return self.left.columns() | self.right.columns()


class Negate(Expression):
    """Unary minus."""

    __slots__ = ("operand",)

    def __init__(self, operand: Expression) -> None:
        self.operand = operand

    def eval(self, row: Row) -> Any:
        value = self.operand.eval(row)
        return None if value is None else -value

    def columns(self) -> set[str]:
        return self.operand.columns()


class InList(Expression):
    """``expr IN (v1, v2, ...)`` against a fixed value list."""

    __slots__ = ("operand", "values", "negate", "_set")

    def __init__(self, operand: Expression, values: Sequence[Any], negate: bool = False) -> None:
        self.operand = operand
        self.values = list(values)
        self.negate = negate
        try:
            self._set: set[Any] | None = set(self.values)
        except TypeError:
            self._set = None

    def eval(self, row: Row) -> bool | None:
        value = self.operand.eval(row)
        if value is None:
            return None
        if self._set is not None:
            found = value in self._set
        else:
            found = value in self.values
        return not found if self.negate else found

    def columns(self) -> set[str]:
        return self.operand.columns()


class InSet(Expression):
    """``expr [NOT] IN <materialized set>`` -- the executed form of a
    subquery membership test.

    The planner materializes the subquery result once per statement and
    plugs the resulting set in here.  EdiFlow's isolation rewriting
    (Section VI-A) relies on exactly this shape:
    ``tid NOT IN (SELECT tid FROM R_delta WHERE ...)``.
    """

    __slots__ = ("operand", "values", "negate")

    def __init__(self, operand: Expression, values: set[Any], negate: bool = False) -> None:
        self.operand = operand
        self.values = values
        self.negate = negate

    def eval(self, row: Row) -> bool | None:
        value = self.operand.eval(row)
        if value is None:
            return None
        found = value in self.values
        return not found if self.negate else found

    def columns(self) -> set[str]:
        return self.operand.columns()


_FUNCTIONS: dict[str, Callable[..., Any]] = {
    "ABS": abs,
    "LOWER": lambda s: s.lower(),
    "UPPER": lambda s: s.upper(),
    "LENGTH": len,
    "ROUND": round,
    "COALESCE": lambda *args: next((a for a in args if a is not None), None),
    "MIN2": min,
    "MAX2": max,
}


class FunctionCall(Expression):
    """Scalar function call (ABS, LOWER, UPPER, LENGTH, ROUND, COALESCE...)."""

    __slots__ = ("name", "args")

    def __init__(self, name: str, args: Sequence[Expression]) -> None:
        name = name.upper()
        if name not in _FUNCTIONS:
            raise ValueError(f"unknown scalar function {name!r}")
        self.name = name
        self.args = list(args)

    def eval(self, row: Row) -> Any:
        values = [arg.eval(row) for arg in self.args]
        if self.name != "COALESCE" and any(v is None for v in values):
            return None
        return _FUNCTIONS[self.name](*values)

    def columns(self) -> set[str]:
        out: set[str] = set()
        for arg in self.args:
            out |= arg.columns()
        return out


class Lambda(Expression):
    """Escape hatch: evaluate an arbitrary Python callable over the row.

    Used by black-box procedures that need predicates the SQL subset cannot
    express; mirrors the paper's stance that procedures are opaque to the
    engine.
    """

    __slots__ = ("fn", "_columns")

    def __init__(self, fn: Callable[[Row], Any], columns: Iterable[str] = ()) -> None:
        self.fn = fn
        self._columns = set(columns)

    def eval(self, row: Row) -> Any:
        return self.fn(row)

    def columns(self) -> set[str]:
        return set(self._columns)


def evaluate_predicate(predicate: Expression | None, row: Row) -> bool:
    """Apply SQL selection semantics: keep the row only on ``True``."""
    if predicate is None:
        return True
    return predicate.eval(row) is True


# ----------------------------------------------------------------------
# Row makers: one compiled function per output shape
#
# A row maker builds an output row with one generated dict display, not
# one ``eval`` call or zip step per cell.  As in ``collections.namedtuple``
# and ``dataclasses``, the source is made from the shape alone -- each
# position is a subscript of the row (``k``), a call of a bound ``eval``
# (``e``) or an argument (``a``) -- and every output name, key and
# callable reaches the function as a closure cell of its factory.  No name
# is ever spliced into source text, so a column may be called anything.

_MAKER_CACHE = 256

Items = Sequence[tuple[str, Expression]]


def _per_cell(items: Items, keep: tuple[str, ...], row: Row) -> dict[str, Any]:
    """The reference a row maker equals: one ``eval`` per cell."""
    out = {name: expr.eval(row) for name, expr in items}
    for key in keep:
        out[key] = row[key]
    return out


@functools.lru_cache(maxsize=_MAKER_CACHE)
def _maker_factory(shape: tuple[str, ...]) -> Callable[..., Callable[..., Row]]:
    """Compile the factory of the makers of one shape.

    The factory takes, in order: ``fallback`` when a position subscripts
    the row, then per position its output name and, for ``k``, the key
    or, for ``e``, the callable.  A missing key sends the row to
    ``fallback``.  When the shape calls any ``e``, its subscripts are
    read before the first call, so a row that falls back has called
    nothing yet and each callable still runs once per row.
    """
    params, args, reads, entries = [], [], [], []
    hoist = "e" in shape
    for i, kind in enumerate(shape):
        params.append(f"n{i}")
        if kind == "a":
            args.append(f"a{i}")
            entries.append(f"n{i}: a{i}")
        elif kind == "e":
            params.append(f"e{i}")
            entries.append(f"n{i}: e{i}(row)")
        elif hoist:
            params.append(f"k{i}")
            reads.append(f"v{i} = row[k{i}]")
            entries.append(f"n{i}: v{i}")
        else:
            params.append(f"k{i}")
            entries.append(f"n{i}: row[k{i}]")
    display = "{" + ", ".join(entries) + "}"
    if "k" not in shape:
        body = [f"return {display}"]
    else:
        params.insert(0, "fallback")
        fallback = ["except KeyError:", "  return fallback(row)"]
        if reads:
            body = ["try:", *(f"  {r}" for r in reads), *fallback, f"return {display}"]
        else:
            body = ["try:", f"  return {display}", *fallback]
    source = "\n".join(
        [
            f"def factory({', '.join(params)}):",
            f"  def make({', '.join(args) or 'row'}):",
            *(f"    {line}" for line in body),
            "  return make",
        ]
    )
    namespace: dict[str, Any] = {}
    exec(source, namespace)
    return namespace["factory"]


def row_maker(items: Items, keep: tuple[str, ...] = ()) -> Callable[[Row], Row]:
    """The compiled ``{name: expr.eval(row) ...}`` of a projection.

    A plain :class:`ColumnRef` item is a subscript, any other item a call
    of its bound ``eval``; each key of ``keep`` is copied last, under its
    own name.  A row lacking a subscripted key is built by the per-cell
    reference instead, so it gets that reference's qualified-suffix
    answer or its :class:`~repro.errors.UnknownColumnError`.
    """
    shape, constants = [], []
    for name, expr in items:
        if type(expr) is ColumnRef:
            shape.append("k")
            constants += (name, expr.name)
        else:
            shape.append("e")
            constants += (name, expr.eval)
    for key in keep:
        shape.append("k")
        constants += (key, key)
    if "k" in shape:
        constants.insert(0, functools.partial(_per_cell, tuple(items), keep))
    return _maker_factory(tuple(shape))(*constants)


@functools.lru_cache(maxsize=_MAKER_CACHE)
def values_maker(names: tuple[str, ...]) -> Callable[..., Row]:
    """The compiled ``dict(zip(names, values))``: ``make(v0, v1, ...)``."""
    return _maker_factory(("a",) * len(names))(*names)
