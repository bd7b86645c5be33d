"""One statement path through ``Database``.

Every statement is prepared (SQL text -> statement cache -> AST, a SELECT
-> plan cache -> plan) and then run under a span that is real while
tracing is on and the shared no-op otherwise.  Three things pin that:

* a twin-database oracle -- the same generated script with observability
  off on one database and on on the other must leave equal results, equal
  tables (hidden fields included), equal trigger ``ChangeSet`` streams,
  equal lineage-sampling counters and equal ``cache_info()``;
* structural tripwires over the source, so a second copy of the path
  cannot come back unnoticed;
* the ``plan()`` / ``explain()`` regressions: both go through the caches
  and plan under the database lock.
"""

import ast
import pathlib
import re
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
import repro.obs as obs
from repro.db import Column, Database, col
from repro.db import database as database_module
from repro.db.algebra import format_plan
from repro.db.schema import TID
from repro.db.types import INTEGER
from repro.db.vector import running_plan
from repro.errors import ReproError

SRC = pathlib.Path(repro.__file__).parent


# ----------------------------------------------------------------------
# Traced == untraced twin oracle
small = st.integers(0, 6)

sql_ops = st.one_of(
    st.just(("sql", "SELECT * FROM t WHERE k = 3", ())),
    st.just(("sql", "SELECT k, v FROM t WHERE v > 1 ORDER BY k, v", ())),
    st.just(("sql", "SELECT k, COUNT(*) AS n, SUM(v) AS s FROM t GROUP BY k", ())),
    st.tuples(st.just("sql"), st.just("SELECT * FROM t WHERE k = ?"), st.tuples(small)),
    st.tuples(
        st.just("sql"),
        st.just("SELECT * FROM t WHERE k IN (SELECT k FROM o WHERE w > ?)"),
        st.tuples(small),
    ),
    st.tuples(
        st.just("sql"),
        st.just("INSERT INTO t (k, v) VALUES (?, ?)"),
        st.tuples(small, small),
    ),
    st.tuples(
        st.just("sql"),
        st.just("INSERT INTO o (k, w) SELECT k, v FROM t WHERE v > ?"),
        st.tuples(small),
    ),
    st.tuples(
        st.just("sql"),
        st.just("UPDATE t SET v = v + 1 WHERE k = ?"),
        st.tuples(small),
    ),
    st.tuples(st.just("sql"), st.just("DELETE FROM t WHERE k = ?"), st.tuples(small)),
    st.just(("sql", "EXPLAIN ANALYZE SELECT k, v FROM t WHERE v > 0", ())),
    st.just(("sql", "EXPLAIN SELECT * FROM t WHERE k = 3", ())),
)

api_ops = st.one_of(
    st.tuples(st.just("insert"), small, small),
    st.tuples(st.just("insert_many"), st.lists(st.tuples(small, small), max_size=4)),
    st.tuples(st.just("update"), small, small),
    st.tuples(st.just("update_by_tid"), small, small),
    st.tuples(st.just("delete"), small),
    st.tuples(st.just("delete_by_tids"), st.lists(small, max_size=3)),
)

plain_ops = st.one_of(sql_ops, api_ops)
script = st.lists(
    st.one_of(
        plain_ops,
        st.tuples(st.just("txn"), st.lists(plain_ops, max_size=4), st.booleans()),
    ),
    max_size=14,
)


class _Abort(Exception):
    """Raised inside a transaction block to roll it back."""


def nth_tid(db, n):
    """A tid the script can name without knowing the table's history."""
    tids = db.table("t").tids()
    return tids[n % len(tids)] if tids else 999


def apply(db, op):
    kind = op[0]
    if kind == "sql":
        result = db.execute(op[1], op[2])
        return result.rows, result.rowcount
    if kind == "insert":
        return db.insert("t", {"k": op[1], "v": op[2]})
    if kind == "insert_many":
        return db.insert_many("t", [{"k": k, "v": v} for k, v in op[1]])
    if kind == "update":
        return db.update("t", {"v": op[2]}, col("k") == op[1])
    if kind == "update_by_tid":
        return db.update_by_tid("t", nth_tid(db, op[1]), {"v": op[2]})
    if kind == "delete":
        return db.delete("t", col("k") == op[1])
    if kind == "delete_by_tids":
        return db.delete_by_tids("t", [nth_tid(db, n) for n in op[1]] + [12345])
    assert kind == "txn"
    outcomes = []
    try:
        with db.transaction():
            outcomes = [outcome(db, inner) for inner in op[1]]
            if op[2]:
                raise _Abort
    except _Abort:
        outcomes.append("rolled back")
    return outcomes


def outcome(db, op):
    """What one operation returned, or the error it raised."""
    try:
        return repr(apply(db, op))
    except ReproError as exc:
        return f"{type(exc).__name__}: {exc}"


def run_script(ops, traced):
    """Everything observable about running ``ops`` on a fresh database."""
    obs.disable()
    obs.reset()
    db = Database("twin")
    db.create_table("t", [Column("k", INTEGER), Column("v", INTEGER)])
    db.create_table("o", [Column("k", INTEGER), Column("w", INTEGER)])
    db.table("t").create_index("ix_t_k", ("k",))
    lineage = db.enable_lineage(sample=3, store=False)
    changes = []
    for table in ("t", "o"):
        db.on(
            table,
            ("insert", "update", "delete"),
            lambda c: changes.append((c.table, c.inserted, c.updated, c.deleted)),
        )
    if traced:
        obs.enable()
    try:
        outcomes = [outcome(db, op) for op in ops]
        spans = len(obs.tracer())
    finally:
        obs.disable()
        obs.reset()
    return {
        "outcomes": outcomes,
        "tables": {
            name: [dict(row) for row in db.table(name).rows()] for name in ("t", "o")
        },
        "changes": repr(changes),
        "clock": db.now(),
        "lineage": lineage.counters(),
        "caches": db.cache_info(),
    }, spans


@given(script)
@settings(max_examples=150, deadline=None)
def test_traced_and_untraced_statements_are_one_path(ops):
    plain, plain_spans = run_script(ops, traced=False)
    traced, _ = run_script(ops, traced=True)
    assert traced == plain
    assert plain_spans == 0


def test_twin_oracle_sees_a_representative_script():
    """The generated scripts reach every statement kind: spot-check one
    that uses them all, so a vacuous strategy cannot hide."""
    ops = [
        ("insert_many", [(1, 1), (2, 2), (3, 3)]),
        ("sql", "INSERT INTO t (k, v) VALUES (?, ?)", (3, 5)),
        ("sql", "INSERT INTO o (k, w) SELECT k, v FROM t WHERE v > ?", (1,)),
        ("sql", "SELECT * FROM t WHERE k IN (SELECT k FROM o WHERE w > ?)", (2,)),
        ("txn", [("sql", "UPDATE t SET v = v + 1 WHERE k = ?", (3,))], True),
        ("txn", [("update_by_tid", 0, 9), ("delete", 2)], False),
        ("sql", "EXPLAIN ANALYZE SELECT k, v FROM t WHERE v > 0", ()),
        ("delete_by_tids", [0]),
    ]
    plain, _ = run_script(ops, traced=False)
    traced, spans = run_script(ops, traced=True)
    assert traced == plain
    assert spans >= len(ops)
    assert [row["v"] for row in plain["tables"]["t"]] == [3, 5]
    assert plain["outcomes"][4].endswith("'rolled back']")
    assert TID in plain["tables"]["t"][0]


# ----------------------------------------------------------------------
# Structural tripwires
def _calls(tree, name):
    return [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == name
    ]


def test_database_plans_and_parses_in_one_place():
    source = (SRC / "db" / "database.py").read_text()
    tree = ast.parse(source)
    assert len(_calls(tree, "plan_select")) == 1
    assert len(_calls(tree, "parse")) == 1
    functions = [
        node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
    ]
    assert "_execute_traced" not in functions
    enabled_reads = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and node.attr == "enabled"
        and isinstance(node.value, ast.Name)
        and node.value.id == "OBS"
    ]
    assert len(enabled_reads) <= 3


def test_no_untraced_twin_anywhere():
    """An instrumented entry point is one body under a span that is a
    no-op while tracing is off -- never a traced wrapper around ``_x_impl``."""
    for path in sorted(SRC.rglob("*.py")):
        twins = [
            node.name
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.FunctionDef) and node.name.endswith("_impl")
        ]
        assert not twins, (path, twins)


_LOOPS = (
    ast.For, ast.AsyncFor, ast.While,
    ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp,
)  # fmt: skip


def _looped_calls(tree, names):
    """Line numbers of ``x.<name>(...)`` calls lexically inside a loop."""
    hits = []

    def visit(node, looped):
        if (
            looped
            and isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in names
        ):
            hits.append(node.lineno)
        looped = looped or isinstance(node, _LOOPS)
        for child in ast.iter_child_nodes(node):
            visit(child, looped)

    visit(tree, False)
    return hits


def test_no_update_statement_loop_in_src():
    """UPDATE is set-at-a-time: k rows are one ``update_by_tids`` / one
    ``Table.update_many``, never a loop of one-row statements."""
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text())
        assert not _looped_calls(tree, {"update_by_tid", "update_row"}), path
    # ... and ``update_row`` is the one-row case of ``update_many`` only.
    callers = [
        path.relative_to(SRC).as_posix()
        for path in sorted(SRC.rglob("*.py"))
        if ".update_row(" in path.read_text()
    ]
    assert callers == ["db/table.py"]
    assert _looped_calls(ast.parse("for t in ts:\n    db.update_by_tid(t, {})"), {"update_by_tid"})


def test_isolation_never_parses():
    tree = ast.parse((SRC / "workflow" / "isolation.py").read_text())
    assert not _calls(tree, "parse")
    assert not _calls(tree, "plan_select")


def test_no_engine_switch_left_in_src():
    pattern = re.compile(r"set_engine|engine_mode|vector_min_rows|verify=")
    hits = [
        f"{path.relative_to(SRC)}:{number}"
        for path in SRC.rglob("*.py")
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if pattern.search(line)
    ]
    assert not hits


# ----------------------------------------------------------------------
# plan() / explain() take the shared prepare step
@pytest.fixture
def db():
    database = Database()
    database.create_table("t", [Column("k", INTEGER), Column("v", INTEGER)])
    database.create_table("o", [Column("k", INTEGER), Column("w", INTEGER)])
    database.insert_many("t", [{"k": i % 5, "v": i} for i in range(50)])
    database.insert_many("o", [{"k": i, "w": i} for i in range(5)])
    return database


def test_explain_twice_is_one_miss_and_one_hit(db):
    sql = "SELECT k, SUM(v) AS s FROM t GROUP BY k"
    before = db.cache_info()
    first = db.explain(sql)
    second = db.explain(sql)
    after = db.cache_info()
    assert first == second
    for cache in ("statements", "plans"):
        assert after[cache]["misses"] - before[cache]["misses"] == 1
        assert after[cache]["hits"] - before[cache]["hits"] == 1


def test_explain_sql_explain_and_execute_agree_on_the_plan(db):
    sql = "SELECT k, SUM(v) AS s FROM t GROUP BY k"
    db.execute(sql)
    cached = db.plan(sql)
    assert db.plan(sql) is cached  # what execute() runs, not a re-plan
    text = db.explain(sql)
    assert text == format_plan(running_plan(cached, db))
    assert text.splitlines() == [r["plan"] for r in db.query(f"EXPLAIN {sql}")]


def test_plan_and_explain_plan_under_the_lock(db, monkeypatch):
    """``IN (SELECT ...)`` is materialised by reading tables at plan
    time: that must happen with the database lock held."""
    held = []
    real = database_module.plan_select

    def probing_plan_select(*args, **kwargs):
        def try_lock():
            got = db.lock.acquire(blocking=False)
            held.append(not got)
            if got:
                db.lock.release()

        thread = threading.Thread(target=try_lock)
        thread.start()
        thread.join(5)
        assert not thread.is_alive()
        return real(*args, **kwargs)

    monkeypatch.setattr(database_module, "plan_select", probing_plan_select)
    sql = "SELECT * FROM t WHERE k IN (SELECT k FROM o WHERE w > ?)"
    db.plan(sql, (1,))
    db.explain(sql, (2,))
    db.explain(sql, (3,), analyze=True)
    db.query(sql, (4,))
    assert held == [True, True, True, True]


def test_plan_rejects_non_select(db):
    with pytest.raises(ReproError):
        db.plan("DELETE FROM t")


def test_update_failing_part_way_is_still_undone_by_rollback():
    """An UPDATE whose second row violates a constraint changes no row
    (the statement is validated before anything is written), and the
    enclosing transaction still undoes the statement that succeeded
    before it."""
    db = Database()
    db.create_table(
        "u",
        [Column("id", INTEGER, nullable=False), Column("x", INTEGER)],
        primary_key="id",
        unique=["x"],
    )
    db.insert_many("u", [{"id": i, "x": i} for i in (1, 2, 3)])
    fired = []
    db.on("u", "update", fired.append)
    with pytest.raises(_Abort):
        with db.transaction():
            db.update("u", {"x": 7}, col("id") == 3)
            with pytest.raises(ReproError):
                db.update("u", {"x": 50}, col("id") >= 1)  # row 2 collides
            assert [r["x"] for r in db.table("u").rows()] == [1, 2, 7]
            raise _Abort
    assert [r["x"] for r in db.table("u").rows()] == [1, 2, 3]
    assert fired == []
