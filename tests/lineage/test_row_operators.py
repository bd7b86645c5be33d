"""Lineage as a mode of the row operators (``Plan.rows(source, True)``).

Hand-written expected lineage for the operator shapes SQL cannot reach on
small tables, capture through a nested ``Vectorized`` node (the compound
SELECT regression), observer purity, and the structural tripwires that
keep capture from growing back into a second interpreter.
"""

import ast
from pathlib import Path

import pytest

from repro.db import Column, Database, algebra, vector
from repro.db.algebra import (
    LIN,
    AggSpec,
    Aggregate,
    HashJoin,
    IndexNestedLoopJoin,
    Limit,
    MapRows,
    Plan,
    Product,
    Project,
    RowSource,
    Scan,
    Select,
    instrument_plan,
)
from repro.db.expression import Lambda, col
from repro.db.types import INTEGER
from repro.lineage.capture import capture_plan

from tests.db.engines import forced_engine

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


@pytest.fixture
def db():
    """``t``: (k, v) = (0, 10) (1, 11) (2, 12) at tids 1-3; ``o``: (k, w) =
    (1, 100) (1, 101) (5, 105) at tids 1-3, hash-indexed on ``k``."""
    database = Database()
    database.create_table("t", [Column("k", INTEGER), Column("v", INTEGER)])
    database.create_table("o", [Column("k", INTEGER), Column("w", INTEGER)])
    database.insert_many("t", [{"k": i, "v": 10 + i} for i in range(3)])
    database.insert_many("o", [{"k": k, "w": 100 + k + i} for i, k in enumerate((1, 1, 5))])
    database.table("o").create_index("o_k", ["k"])
    return database


def lineage_of(plan, source):
    rows, lins = capture_plan(plan, source)
    assert rows == plan.to_list(source)
    return lins


# ----------------------------------------------------------------------
# Operators, by hand
def test_product_concatenates_both_sides(db):
    plan = Product(Scan("t"), Select(Scan("o"), col("k") == 1))
    assert lineage_of(plan, db) == [
        (("o", j), ("t", i)) for i in (1, 2, 3) for j in (1, 2)
    ]


def index_join(how):
    return IndexNestedLoopJoin(
        Scan("t", alias="t"), "o", "t.k", "o.k", "k", right_alias="o", how=how
    )


def test_index_join_appends_the_probed_tuple(db):
    assert lineage_of(index_join("inner"), db) == [
        (("o", 1), ("t", 2)),
        (("o", 2), ("t", 2)),
    ]


def test_left_index_join_keeps_left_lineage_when_unmatched(db):
    rows, lins = capture_plan(index_join("left"), db)
    assert lins == [(("t", 1),), (("o", 1), ("t", 2)), (("o", 2), ("t", 2)), (("t", 3),)]
    assert [row["o.w"] for row in rows] == [None, 101, 102, None]


class _NoIndexTable:
    """A table that can scan and nothing else (as isolation snapshots)."""

    def __init__(self, table):
        self.schema = table.schema
        self.rows = table.rows


class _NoIndexSource:
    def __init__(self, database):
        self._database = database

    def table(self, name):
        return _NoIndexTable(self._database.table(name))


@pytest.mark.parametrize("how", ["inner", "left"])
def test_index_join_degraded_to_hash_join_has_the_same_lineage(db, how):
    plan = index_join(how)
    assert lineage_of(plan, _NoIndexSource(db)) == lineage_of(plan, db)


def test_map_rows_copies_lineage_across(db):
    plan = MapRows(Scan("t"), lambda row: {"double": 2 * row["v"]})
    rows, lins = capture_plan(plan, db)
    assert rows == [{"double": 20}, {"double": 22}, {"double": 24}]
    assert lins == [(("t", 1),), (("t", 2),), (("t", 3),)]


def test_row_source_rows_have_no_lineage(db):
    delta = [{"k": 1, "v": 7}, {"k": 9, "v": 8}]
    assert lineage_of(RowSource(delta), db) == [(), ()]
    joined = HashJoin(RowSource(delta), Scan("o"), "k", "k")
    assert lineage_of(joined, db) == [(("o", 1),), (("o", 2),)]
    assert delta == [{"k": 1, "v": 7}, {"k": 9, "v": 8}]


def test_left_join_against_an_empty_derived_right_side(db):
    nothing = Project(Select(Scan("o"), col("w") < 0), [("k", col("k")), ("w", col("w"))])
    rows, lins = capture_plan(HashJoin(Scan("t"), nothing, "k", "k", how="left"), db)
    assert lins == [(("t", 1),), (("t", 2),), (("t", 3),)]
    assert [row["w"] for row in rows] == [None, None, None]


def test_limit_offset_past_the_end(db):
    assert capture_plan(Limit(Scan("t"), 5, offset=7), db) == ([], [])
    assert lineage_of(Limit(Scan("t"), 5, offset=2), db) == [(("t", 3),)]


def test_global_aggregate_over_empty_input(db):
    plan = Aggregate(Select(Scan("t"), col("k") > 99), [], [AggSpec("COUNT", None, "n")])
    assert capture_plan(plan, db) == ([{"n": 0}], [()])


def test_instrumented_plans_capture_and_count(db):
    plan = Project(HashJoin(Scan("t"), Scan("o"), "k", "k"), [("w", col("w"))])
    instrumented, counters = instrument_plan(plan)
    assert capture_plan(instrumented, db) == capture_plan(plan, db)
    assert counters[id(plan)] == 2 and counters[id(plan.child.left)] == 3


# ----------------------------------------------------------------------
# Through a nested Vectorized node: the planner offers the right branch
# of a compound SELECT to the batch engine on its own.
@pytest.fixture
def compound_db():
    database = Database()
    database.create_table("t", [Column("k", INTEGER)])
    database.create_table("o", [Column("k", INTEGER)])
    database.insert_many("t", [{"k": k} for k in (1, 2, 3)])
    database.insert_many("o", [{"k": k} for k in (3, 4, 5)])
    return database


def test_explain_lineage_of_union_all_has_an_edge_per_row(compound_db):
    edges = compound_db.query("EXPLAIN LINEAGE SELECT k FROM t UNION ALL SELECT k FROM o")
    assert [(e["out_row"], e["src_table"], e["src_tid"]) for e in edges] == [
        (0, "t", 1), (1, "t", 2), (2, "t", 3), (3, "o", 1), (4, "o", 2), (5, "o", 3),
    ]


@pytest.mark.parametrize(
    "op, expected",
    [
        ("UNION ALL", [("t", 1), ("t", 2), ("t", 3), ("o", 1), ("o", 2), ("o", 3)]),
        ("UNION", [("t", 1), ("t", 2), ("t", 3), ("o", 2), ("o", 3)]),
        ("EXCEPT", [("t", 1), ("t", 2)]),
    ],
)
def test_query_lineage_of_compounds_on_the_batch_engine(compound_db, op, expected):
    db = compound_db
    mgr = db.enable_lineage(sample=1)
    sql = f"SELECT k FROM t {op} SELECT k FROM o"
    with forced_engine("vector"):
        assert "Vectorized" in db.explain(sql)  # the right branch, nested
        rows, lins = db.query_lineage(sql)
    assert lins == [(pair,) for pair in expected]
    for row, ((table, tid),) in zip(rows, lins):
        assert db.table(table).get(tid)["k"] == row["k"]
    stored = mgr.store.edges_for(mgr.store.latest_query_id())
    assert [(e["out_row"], e["src_table"], e["src_tid"]) for e in stored] == [
        (i, table, tid) for i, (table, tid) in enumerate(expected)
    ]


@pytest.mark.parametrize("engine", ["row", "vector"])
def test_manager_and_explain_lineage_agree(compound_db, engine):
    db = compound_db
    db.enable_lineage(store=False)
    for op in ("UNION", "UNION ALL", "EXCEPT"):
        sql = f"SELECT k FROM t {op} SELECT k FROM o"
        with forced_engine(engine):
            _, lins = db.query_lineage(sql)
            edges = db.query(f"EXPLAIN LINEAGE {sql}")
        assert [(e["out_row"], (e["src_table"], e["src_tid"])) for e in edges] == [
            (i, pair) for i, lin in enumerate(lins) for pair in lin
        ]


# ----------------------------------------------------------------------
# Observer purity
def test_captured_rows_carry_no_carrier_key(db):
    mgr = db.enable_lineage(sample=1)
    sql = "SELECT t.k, o.w FROM t LEFT JOIN o ON t.k = o.k"
    plain = db.plan(sql).to_list(db)
    sampled = mgr.maybe_capture(sql, db.plan(sql))
    explicit, _ = db.query_lineage(sql)
    direct, _ = capture_plan(db.plan(sql), db)
    assert sampled == explicit == direct == plain
    assert not any(key.startswith("__") for row in sampled for key in row)
    bare, _ = capture_plan(Scan("t"), db)  # a leaf for a root: copies
    assert bare == Scan("t").to_list(db) and not any(LIN in row for row in bare)


def test_opaque_callables_see_the_rows_they_see_without_capture(db):
    """The carrier is a hidden key like ``__tid__``, and all a ``MapRows``
    function or a ``Lambda`` predicate sees of a capture is that one key."""
    seen = []

    def keep(row):
        seen.append(("predicate", dict(row)))
        return row["k"] != 1

    def mapped(row):
        seen.append(("fn", dict(row)))
        return {"v": row["v"]}

    plan = MapRows(Select(Scan("t"), Lambda(keep)), mapped)
    plain_rows = plan.to_list(db)
    plain_seen, seen[:] = list(seen), []
    captured_rows, lins = capture_plan(plan, db)
    assert captured_rows == plain_rows and lins == [(("t", 1),), (("t", 3),)]
    assert [who for who, _ in seen] == [who for who, _ in plain_seen]
    for (_, with_capture), (_, without) in zip(seen, plain_seen):
        assert with_capture.pop(LIN) == (("t", with_capture["__tid__"]),)
        assert with_capture == without


def test_capture_never_writes_into_a_stored_row(db):
    table = db.table("t")
    before = {tid: (table.get(tid), dict(table.get(tid))) for tid in table.tids()}
    for plan in (Scan("t"), Select(Scan("t"), col("k") >= 0), index_join("left")):
        capture_plan(plan, db)
    db.query("EXPLAIN LINEAGE SELECT * FROM t UNION SELECT * FROM t")
    for tid, (row, content) in before.items():
        assert table.get(tid) is row
        assert row == content and LIN not in row
    assert Scan("t").to_list(db)[0] is before[1][0]  # uncopied with capture off


# ----------------------------------------------------------------------
# Structural tripwires
def _trees(*parts):
    root = SRC.joinpath(*parts)
    paths = sorted(root.rglob("*.py")) if root.is_dir() else [root]
    return [(path, ast.parse(path.read_text())) for path in paths]


def _imports(tree):
    """``(module, name)`` for every ``from module import name``."""
    return [
        ("." * node.level + (node.module or ""), alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]


def _is_operator(name):
    for module in (algebra, vector):
        obj = getattr(module, name, None)
        if isinstance(obj, type) and issubclass(obj, Plan) and obj is not Plan:
            return True
    return False


def test_lineage_package_cannot_dispatch_on_operators():
    """No operator class and no private name is imported under
    ``repro/lineage``, so nothing there can ``isinstance`` its way back
    into a second interpreter.  (``isinstance`` itself stays legal:
    ``brushing.py`` tests a group key for being a tuple.)"""
    for path, tree in _trees("lineage"):
        for module, name in _imports(tree):
            assert not name.startswith("_") or name == "__future__", (path, name)
            assert not _is_operator(name), (path, name)
        if path.name in ("capture.py", "manager.py", "store.py"):
            calls = [
                node
                for node in ast.walk(tree)
                if isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance"
            ]
            assert not calls, path


def test_engines_import_nothing_from_lineage():
    for path, tree in _trees("db", "algebra.py") + _trees("db", "vector.py"):
        assert not [m for m, _ in _imports(tree) if "lineage" in m], path
        assert not [
            alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.Import)
            for alias in node.names
            if "lineage" in alias.name
        ], path


def test_row_capture_is_gone():
    for path, _ in _trees():
        assert "row_capture" not in path.read_text(), path


def test_every_rows_override_takes_the_mode():
    overrides = 0
    for path, tree in _trees("db"):
        for cls in [n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)]:
            for fn in cls.body:
                if not (isinstance(fn, ast.FunctionDef) and fn.name == "rows"):
                    continue
                args = [a.arg for a in fn.args.args]
                if args[:2] != ["self", "source"]:
                    continue  # Table.rows() and friends: not a Plan
                overrides += 1
                assert args == ["self", "source", "lineage"], (path, cls.name)
    assert overrides >= 17
