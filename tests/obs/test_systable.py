"""One contract, eight tables.

Every ``sys_*`` relation is a :class:`repro.obs.systable.SysTable`
written by one of three stores.  The contract -- bounded, numbered on,
guarded, statement-level -- is checked here once, against each table
*through its real store*: a harness per store says what "one generation"
is (a collection, a slow-log entry, a recorded query), the tests never
look inside.  A small generated model then drives ``SysTable`` alone,
and grep/``ast`` tripwires keep every mechanism in its one place.
"""

import ast
import re
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.telemetry import TelemetryDashboard
from repro.db import Column, Database, Table, load_snapshot, save_snapshot
from repro.db.types import INTEGER
from repro.lineage.store import SYS_LINEAGE_EDGES, SYS_LINEAGE_QUERIES, LineageStore
from repro.obs.propagation import propagation_report
from repro.obs.runtime import ObsRuntime
from repro.obs.slowlog import SYS_SLOWLOG, SlowLog
from repro.obs.store import (
    SYS_METRICS,
    SYS_PROFILES,
    SYS_SPAN_EVENTS,
    SYS_SPANS,
    SYS_STACKS,
    SYSTEM_TABLES,
    TelemetrySink,
)
from repro.obs.systable import SysTable, is_system_table

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

#: Every store is opened with this bound, so one expectation fits all.
KEEP = 3


# ---------------------------------------------------------------------------
# One harness per store: open / generation / idle / close


class StubProfiler:
    """``drain()`` / ``totals()`` are all the sink asks of a profiler."""

    def __init__(self):
        self.pending = []

    def sample(self):
        self.pending = [
            {"thread": "main", "span_name": "work", "stack": stack, "samples": 1, "self_ms": 1.0}
            for stack in ("a;b", "a;c")
        ]  # fmt: skip

    def drain(self):
        drained, self.pending = self.pending, []
        return drained

    def totals(self):
        return []


class SinkHarness:
    """The sink's five tables; a generation is one ``collect()``."""

    gen = "snap"

    def __init__(self):
        self.runtime = ObsRuntime()
        self.runtime.profiler = StubProfiler()
        self.open(None)

    def open(self, database):
        self.sink = TelemetrySink(self.runtime, database, span_retention=KEEP)
        self.database = self.sink.database
        # Only changed series are stored, so an idle collection is idle.
        self.sink.metric_keyframe_every = 10**9
        for table in self.sink.tables.values():
            table.keep = KEEP

    def generation(self):
        for _ in range(2):
            with self.runtime.tracer.span("work", tags={"table": "nodes"}) as span:
                span.add_event("tick")
        self.runtime.metrics.counter("db.writes", table="nodes").inc()
        self.runtime.profiler.sample()
        self.sink.collect()

    def idle(self):
        assert not any(self.sink.collect().values())

    def close(self):
        self.sink.close()


class SlowLogHarness:
    """``sys_slowlog``; a generation is one over-budget statement."""

    gen = "id"

    def __init__(self):
        self.runtime = ObsRuntime()
        self.statements = 0
        self.open(None)

    def open(self, database):
        self.database = database if database is not None else Database("slow")
        self.log = SlowLog(
            self.database,
            budget_ms=1.0,
            capacity=KEEP,
            max_per_statement=10**6,
            runtime=self.runtime,
        )

    def generation(self):
        self.statements += 1
        span = SimpleNamespace(duration_ms=5.0, span_id=self.statements, tags={})
        assert self.log.maybe_record_query(f"SELECT {self.statements}", span)

    def close(self):
        self.log.close()


class LineageHarness:
    """Both lineage tables; a generation is one recorded query."""

    gen = "query_id"

    def __init__(self):
        self.open(None)

    def open(self, database):
        self.database = database if database is not None else Database("lineage")
        self.store = LineageStore(self.database, retention=KEEP)

    def generation(self):
        assert self.store.record("q", "row", [(("t", 1), ("t", 2)), (("t", 3),)], ["t"])

    def idle(self):
        """A query without edges: a generation ``sys_lineage_edges`` sits out."""
        assert self.store.record("q", "row", [()], ["t"])

    def close(self):
        pass


HARNESSES = {
    **dict.fromkeys(SYSTEM_TABLES, SinkHarness),
    SYS_SLOWLOG: SlowLogHarness,
    SYS_LINEAGE_QUERIES: LineageHarness,
    SYS_LINEAGE_EDGES: LineageHarness,
}
ALL_TABLES = sorted(HARNESSES)
#: Tables a generation can pass without writing to.
IDLE_TABLES = [*SYSTEM_TABLES, SYS_LINEAGE_EDGES]
#: child -> (parent, the column that names the parent row).
CHILDREN = {
    SYS_SPAN_EVENTS: (SYS_SPANS, "span_id"),
    SYS_STACKS: (SYS_PROFILES, "snap"),
    SYS_LINEAGE_EDGES: (SYS_LINEAGE_QUERIES, "query_id"),
}


def test_the_contract_covers_exactly_the_eight_tables():
    assert len(ALL_TABLES) == 8
    assert all(is_system_table(name) for name in ALL_TABLES)


@pytest.fixture
def harness(request):
    made = HARNESSES[request.param]()
    yield made
    made.close()


def per_table(tables):
    """Parametrise over ``tables``: ``table`` names one, ``harness`` is its store."""

    def decorate(test):
        return pytest.mark.parametrize(
            "table, harness", [(t, t) for t in tables], indirect=["harness"], ids=tables
        )(test)

    return decorate


def generations(database, table, gen):
    """generation -> rows stored under it (NULL generations left out)."""
    return Counter(
        row[gen] for row in database.table(table).rows() if row[gen] is not None
    )


def newest(last):
    """The generations ``1..last`` that the bound lets survive."""
    return set(range(max(1, last - KEEP + 1), last + 1))


# ---------------------------------------------------------------------------
# Bounded


@per_table(ALL_TABLES)
def test_exactly_the_newest_generations_remain(table, harness):
    for _ in range(KEEP + 4):
        harness.generation()
    kept = generations(harness.database, table, harness.gen)
    assert set(kept) == newest(KEEP + 4)
    assert len(set(kept.values())) == 1, "every generation stored the same rows"


@per_table(sorted(CHILDREN))
def test_child_rows_age_with_their_parents(table, harness):
    parent, key = CHILDREN[table]
    for _ in range(KEEP + 4):
        harness.generation()
        children = {row[key] for row in harness.database.table(table).rows()}
        parents = {row[key] for row in harness.database.table(parent).rows()}
        assert children and children <= parents


@per_table(IDLE_TABLES)
def test_an_idle_generation_still_ages_the_table(table, harness):
    for _ in range(KEEP):
        harness.generation()
    for idled in range(1, KEEP + 1):
        harness.idle()
        kept = generations(harness.database, table, harness.gen)
        assert set(kept) == set(range(idled + 1, KEEP + 1))
    assert not kept


# ---------------------------------------------------------------------------
# Numbered on


def index_shapes(table):
    """What a table is indexed on: hash column sets, sorted columns."""
    columns = [c.name for c in table.schema.columns]
    return (
        {index.columns for index in table.hash_indexes()},
        {c for c in columns if table.find_sorted_index(c) is not None},
    )


@pytest.mark.parametrize("copy", [False, True], ids=["same-database", "snapshot"])
@per_table(ALL_TABLES)
def test_a_reopened_store_numbers_on(table, harness, copy, tmp_path):
    for _ in range(KEEP + 1):
        harness.generation()
    harness.close()
    database, shapes = harness.database, index_shapes(harness.database.table(table))
    if copy:
        save_snapshot(database, tmp_path / "copy.snap")
        database = load_snapshot(tmp_path / "copy.snap")
        assert index_shapes(database.table(table)) == (set(), set())
    harness.open(database)
    assert index_shapes(database.table(table)) == shapes
    for _ in range(2):
        harness.generation()
    kept = generations(database, table, harness.gen)
    assert set(kept) == newest(KEEP + 3), "numbered on, and still bounded"
    assert len(set(kept.values())) == 1, "a generation issued twice holds double"


# ---------------------------------------------------------------------------
# Guarded


def traced(runtime, name, table):
    with runtime.tracer.span(name, tags={"table": table}):
        pass


@pytest.mark.parametrize("table", ALL_TABLES)
class TestGuarded:
    def test_sink_persists_no_span_or_series_of_it(self, table):
        runtime = ObsRuntime()
        sink = TelemetrySink(runtime)
        try:
            traced(runtime, "db.write", table)
            traced(runtime, "db.write", "nodes")
            runtime.metrics.counter("db.writes", table=table).inc()
            runtime.metrics.counter("db.writes", table="nodes").inc()
            stats = sink.collect()
            assert (stats["spans"], stats["metrics"], stats["dropped"]) == (1, 1, 1)
            stored = sink.database.query(f"SELECT tags FROM {SYS_SPANS}")
            stored += sink.database.query(f"SELECT labels AS tags FROM {SYS_METRICS}")
            assert [table in row["tags"] for row in stored] == [False, False]
        finally:
            sink.close()

    def test_slow_log_records_no_span_of_it(self, table):
        runtime = ObsRuntime()
        log = SlowLog(Database("slow"), budget_ms=1e-9, runtime=runtime)
        try:
            traced(runtime, "sync.notify", table)
            traced(runtime, "sync.flush", "nodes")
            assert [entry["name"] for entry in log.entries()] == ["sync.flush"]
        finally:
            log.close()

    def test_lineage_captures_and_records_no_plan_over_it(self, table):
        harness = HARNESSES[table]()
        try:
            db = harness.database
            store = LineageStore(db)
            assert store.record("q", "row", [((table, 1),)], ["t", table]) is None
            assert store.guard_skipped == 1
            manager = db.enable_lineage(sample=1, store=store)
            db.query(f"SELECT * FROM {table}")
            assert manager.captures == 0 and manager.sampled_out == 1
            assert store.counters()["queries_stored"] == 0
        finally:
            harness.close()

    def test_propagation_report_never_picks_its_trace(self, table):
        runtime = ObsRuntime()
        traced(runtime, "db.write", "nodes")
        traced(runtime, "db.write", table)  # newer: would win on recency
        assert propagation_report(runtime.tracer).table == "nodes"
        runtime.tracer.reset()
        traced(runtime, "db.write", table)
        with pytest.raises(LookupError):
            propagation_report(runtime.tracer)


def test_only_names_of_system_tables_pass_the_guard():
    assert is_system_table("sys_anything_new")
    for other in ("nodes", "Notification", "my_sys_table", "", None, 7, ("sys_spans",)):
        assert not is_system_table(other)
    with pytest.raises(ValueError):
        SysTable(Database(), "spans", [Column("g", INTEGER)], "g", 1)


# ---------------------------------------------------------------------------
# Statement-level


@per_table(ALL_TABLES)
def test_one_generation_is_one_insert_and_at_most_one_delete(table, harness):
    for _ in range(KEEP):
        harness.generation()
    statements = Counter()

    def count(changes):
        for change in changes:
            if change.table == table:
                statements.update(change.operations)

    harness.database.add_commit_hook(count)
    harness.generation()  # the table is full: this one also ages it
    assert statements == {"insert": 1, "delete": 1}
    if table in IDLE_TABLES:
        statements.clear()
        harness.idle()
        assert statements == {"delete": 1}


def test_why_finds_its_span_through_the_index(monkeypatch):
    harness = SinkHarness()
    dashboard = TelemetryDashboard(harness.sink)
    try:
        harness.generation()
        span_id = next(harness.database.table(SYS_SPANS).rows())["span_id"]
        with monkeypatch.context() as patched:
            patched.setattr(Table, "rows", None)  # a scan would raise
            patched.setattr(Table, "scan", None)
            assert dashboard.why(span_id)["span_id"] == span_id
            assert dashboard.why(span_id + 10**6) is None
    finally:
        dashboard.close()
        harness.close()


# ---------------------------------------------------------------------------
# The model: a table is the last ``keep`` generations of what was written


@settings(max_examples=150, deadline=None)
@given(
    keep=st.integers(1, 4),
    steps=st.lists(st.sampled_from(["write", "idle", "reopen"]), max_size=30),
)
def test_model_table_is_the_last_generations_written(keep, steps):
    database = Database("model")
    columns = [Column("gen", INTEGER), Column("write", INTEGER, nullable=False)]

    def reopen():
        return SysTable(database, "sys_model", columns, "gen", keep)

    table = reopen()
    generation = table.newest()  # the sink's way: read once, then count
    database.insert("sys_model", {"gen": None, "write": -1})  # exempt for good
    alive = []
    for write, step in enumerate(steps):
        if step == "reopen":
            table = reopen()
            generation = table.newest()
            continue
        generation += 1
        rows = [{"gen": generation, "write": write}] * 2 if step == "write" else []
        aged = table.write(rows, newest=generation)
        survivors = [row for row in alive + rows if row["gen"] > generation - keep]
        assert aged == len(alive) + len(rows) - len(survivors)
        alive = survivors
        stored = [
            {"gen": row["gen"], "write": row["write"]}
            for row in database.table("sys_model").rows()
        ]
        assert stored == [{"gen": None, "write": -1}] + alive
        by_generation = {}
        for row in alive:
            assert by_generation.setdefault(row["gen"], row["write"]) == row["write"]


# ---------------------------------------------------------------------------
# Tripwires: every mechanism in its one place

STORES = ("obs/store.py", "obs/slowlog.py", "lineage/store.py")


def grep(pattern, *relative):
    """``path:line`` of every match under ``src/repro`` (or in ``relative``)."""
    paths = [SRC / r for r in relative] or sorted(SRC.rglob("*.py"))
    return [
        f"{path.relative_to(SRC).as_posix()}:{number}"
        for path in paths
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if re.search(pattern, line)
    ]


def uses(relative, name):
    """How often ``relative`` reads the name ``name`` (imports aside)."""
    tree = ast.parse((SRC / relative).read_text())
    return sum(isinstance(n, ast.Name) and n.id == name for n in ast.walk(tree))


def test_one_predicate_decides_what_a_system_table_is():
    root = SRC.parents[1]
    for tree in ("src", "benchmarks", "examples"):
        for path in (root / tree).rglob("*.py"):
            assert "GUARDED_" + "TABLES" not in path.read_text(), path
    prefix_checks = grep(r"startswith\(\s*[\"']sys_")
    assert [hit.split(":")[0] for hit in prefix_checks] == ["obs/systable.py"]
    sites = {
        "obs/store.py": 2,  # drained spans, metric series
        "obs/slowlog.py": 1,
        "obs/propagation.py": 1,
        "lineage/store.py": 1,
        "lineage/manager.py": 1,
    }
    assert {path: uses(path, "is_system_table") for path in sites} == sites


def test_system_tables_are_created_and_aged_in_one_place():
    for path in sorted(SRC.rglob("*.py")):
        if path == SRC / "obs" / "systable.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.Call) and node.args):
                continue
            called = getattr(node.func, "attr", getattr(node.func, "id", None))
            first = node.args[0]  # a literal, or a SYS_* constant's name
            target = getattr(first, "id", getattr(first, "value", None))
            if called in ("create_table", "create_index") and isinstance(target, str):
                assert not target.lower().startswith(("sys_", "ix_sys_")), path
    writers = (*STORES, "lineage/manager.py")
    assert not grep(r"create_table\(|create_index\(|_install_schema", *writers)
    # Retention is SysTable.write's DELETE; the stores' one other delete
    # is the workflow-timeline upsert, by span id.
    deletes = grep(r"\.delete\(|\.delete_by_tids\(", *writers)
    assert [hit.split(":")[0] for hit in deletes] == ["obs/store.py"]
    assert len(grep(r"\.delete\(", "obs/systable.py")) == 1


def test_no_generation_counter_lives_in_a_store():
    assert not grep(
        r"itertools|_next_query_id|_span_watermarks|_recorded\b|self\._ids\b|self\._stored = 0",
        *STORES,
    )
    # Each store reads its numbering from the table.
    for store in STORES:
        assert grep(r"\.newest\(\)", store), store
    (snap,) = grep(r"self\._snap = ", "obs/store.py")
    assert snap in grep(r"newest\(\)", "obs/store.py")


def test_no_untraced_fork_is_left():
    assert not grep(r"if not OBS\.enabled")
