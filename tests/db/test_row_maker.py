"""A compiled row maker equals the per-cell evaluation it replaces.

``Project`` builds each output row with one generated function per output
shape (:func:`repro.db.expression.row_maker`) and ``batch_rows`` with one
per column-name tuple (:func:`repro.db.expression.values_maker`).  The
reference each is checked against is the code they replaced:
``{name: expr.eval(row) for name, expr in items}`` (plus the lineage key)
and ``dict(zip(names, values))``.  Equal means the same rows with the same
key order, or the same exception type and text, and the same calls of
every ``Lambda`` item in the same order.
"""

from __future__ import annotations

import keyword

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.db.algebra import LIN, Plan, Project
from repro.db.expression import ColumnRef, Lambda, Literal, col
from repro.db.vector import Batch, batch_rows
from repro.errors import UnknownColumnError

# Keys a row may hold: plain, qualified, and ones no code generator could
# splice into source text unharmed.
ROW_KEYS = ["a", "b", "t.a", "'", '"', "\\", "\n", "é", "列", "class", "}); import os; ({'"]
# What a ColumnRef may name: every row key, qualified refs whose suffix a
# row may hold, and names no row holds.
REF_NAMES = [*ROW_KEYS, "t.b", "u.a", "t.'", "t.\n", "zz", "t.zz"]
OUTPUT_NAMES = st.one_of(
    st.sampled_from(
        ["a", "b", "'", '"', "\\", "\\n", "\n", "'''", "é", "名", "", " ",
         "}); import os; ({'", LIN, *keyword.kwlist[:8]]
    ),
    st.text(max_size=4),
)  # fmt: skip
VALUES = st.one_of(st.none(), st.integers(-5, 5))


class Given(Plan):
    """A leaf yielding the rows it was given, as they are."""

    def __init__(self, rows):
        self._rows = rows

    def rows(self, source, lineage=False):
        return iter(self._rows)


class Calls:
    """``Lambda`` items that log every call: (item number, row number)."""

    def __init__(self):
        self.log = []

    def item(self, number, kind):
        def fn(row):
            self.log.append((number, row["#"]))
            if kind == "read":
                return row["a"]  # a KeyError raised inside a call
            if kind == "fail" and row.get("b") == 0:
                raise ValueError("b is zero")
            return number

        return Lambda(fn)


@st.composite
def shapes(draw):
    """Projection items (Lambdas as placeholders) and input rows."""
    n_items = draw(st.integers(1, 6))
    items = []
    for number in range(n_items):
        name = draw(OUTPUT_NAMES)
        kind = draw(st.sampled_from(["ref", "ref", "ref", "literal", "arith", "lambda"]))
        if kind == "ref":
            items.append((name, ColumnRef(draw(st.sampled_from(REF_NAMES)))))
        elif kind == "literal":
            items.append((name, Literal(draw(VALUES))))
        elif kind == "arith":
            items.append((name, col(draw(st.sampled_from(REF_NAMES))) + 1))
        else:
            items.append((name, ("lambda", draw(st.sampled_from(["pure", "read", "fail"])))))
    rows = draw(
        st.lists(
            st.dictionaries(st.sampled_from(ROW_KEYS), st.integers(-5, 5), max_size=6),
            max_size=5,
        )
    )
    return items, rows


def _bind(items, calls):
    return [
        (name, calls.item(number, expr[1]) if isinstance(expr, tuple) else expr)
        for number, (name, expr) in enumerate(items)
    ]


def _reference(items, rows, lineage):
    """The parent's ``Project.rows``: one ``eval`` per cell."""
    for row in rows:
        out = {name: expr.eval(row) for name, expr in items}
        if lineage:
            out[LIN] = row[LIN]
        yield out


def _outcome(run):
    """Rows with their key order, or the exception's type and text."""
    try:
        return [list(row.items()) for row in run()]
    except Exception as exc:  # noqa: BLE001 -- the oracle compares errors
        return (type(exc), str(exc))


def _both(items, rows, lineage):
    numbered = [{**row, "#": number} for number, row in enumerate(rows)]
    ref_calls, made_calls = Calls(), Calls()
    ref_items, made_items = _bind(items, ref_calls), _bind(items, made_calls)
    expected = _outcome(lambda: _reference(ref_items, numbered, lineage))
    plan = Project(Given(numbered), made_items)
    got = _outcome(lambda: plan.rows(None, lineage))
    return expected, got, ref_calls.log, made_calls.log


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(shapes())
@example(([("x", ColumnRef("t.a"))], [{"a": 1}, {"t.a": 2}]))  # suffix fallback
@example(([("x", ColumnRef("zz"))], [{"a": 1}]))  # missing column
@example(([("x", ColumnRef("a")), ("x", ColumnRef("b"))], [{"a": 1, "b": 2}]))
def test_maker_equals_per_cell_eval(shape):
    items, rows = shape
    expected, got, ref_log, made_log = _both(items, rows, lineage=False)
    assert got == expected
    assert made_log == ref_log


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(shapes(), st.lists(st.booleans(), max_size=5))
def test_lineage_maker_equals_per_cell_eval(shape, carries):
    items, rows = shape
    # Most rows carry a lineage; one without shows the same KeyError.
    rows = [
        {**row, LIN: (("t", number),)} if carries[number:number + 1] != [False] else row
        for number, row in enumerate(rows)
    ]
    expected, got, ref_log, made_log = _both(items, rows, lineage=True)
    assert got == expected
    assert made_log == ref_log


def test_lambda_runs_once_per_row_on_the_fallback_too():
    calls = Calls()
    items = [("f", calls.item(0, "pure")), ("k", ColumnRef("t.a")), ("m", ColumnRef("zz"))]
    rows = [{"#": 0, "t.a": 1, "zz": 2}, {"#": 1, "a": 3, "zz": 4}]
    out = list(Project(Given(rows), items).rows(None))
    assert out == [{"f": 0, "k": 1, "m": 2}, {"f": 0, "k": 3, "m": 4}]
    assert calls.log == [(0, 0), (0, 1)]  # row 1 took the suffix fallback


def test_missing_column_raises_the_per_cell_error():
    items = [("k", ColumnRef("a")), ("m", ColumnRef("t.zz"))]
    rows = [{"a": 1, "t.zz": 2}, {"a": 1, "b": 2}]
    expected = _outcome(lambda: _reference(items, rows, False))
    got = _outcome(lambda: Project(Given(rows), items).rows(None))
    assert got == expected
    assert expected == (UnknownColumnError, "no column 't.zz' in row with columns ['a', 'b']")


# ----------------------------------------------------------------------
# batch_rows
def _zip_reference(batch):
    """The parent's ``batch_rows``."""
    names = list(batch.columns)
    if not names:
        return [{} for _ in range(batch.n)]
    cols = [batch.columns[name] for name in names]
    return [dict(zip(names, values)) for values in zip(*cols)]


@st.composite
def batches(draw):
    n = draw(st.integers(0, 6))
    name = st.one_of(st.sampled_from(ROW_KEYS), st.text(max_size=3))
    names = draw(st.lists(name, max_size=5, unique=True))
    columns = {c: draw(st.lists(VALUES, min_size=n, max_size=n)) for c in names}
    return Batch(columns, n)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(batches())
@example(Batch({}, 0))
@example(Batch({}, 3))
@example(Batch({"a": []}, 0))
def test_batch_rows_equals_dict_zip(batch):
    got = batch_rows(batch)
    assert [list(row.items()) for row in got] == [
        list(row.items()) for row in _zip_reference(batch)
    ]
    # Every row is its own dict.
    assert len({id(row) for row in got}) == len(got)
