"""Isolation: snapshots, deletion tables, query rewriting, GC (Section VI-A)."""

import json

import pytest

from repro.core import datamodel
from repro.db import TID, col
from repro.errors import IsolationError
from repro.workflow import (
    ProcessDefinition,
    RelationDecl,
    RunQuery,
    UpdateTable,
    seq,
)
from repro.workflow.isolation import IsolationContext


@pytest.fixture
def items(db):
    db.execute("CREATE TABLE items (id INTEGER PRIMARY KEY, v INTEGER)")
    db.execute("INSERT INTO items (id, v) VALUES (1, 1), (2, 2), (3, 3)")
    return db


def deploy_reader(engine, name="reader"):
    definition = ProcessDefinition(
        name,
        seq(RunQuery("read", "SELECT * FROM items ORDER BY id", into_variable="rows")),
        relations=[RelationDecl("items")],
    )
    engine.deploy(definition)
    return definition


class TestTimeBasedIsolation:
    def test_snapshot_excludes_later_external_inserts(self, items, engine):
        deploy_reader(engine)
        execution = engine.start("reader")
        # External insert lands after the process started.
        items.execute("INSERT INTO items (id, v) VALUES (4, 4)")
        engine.execute_node(execution.definition.body, execution)
        engine.close(execution)
        assert [r["id"] for r in execution.variables["rows"]] == [1, 2, 3]

    def test_own_writes_visible(self, items, engine):
        definition = ProcessDefinition(
            "writer",
            seq(
                UpdateTable("add", "INSERT INTO items (id, v) VALUES (10, 10)"),
                RunQuery("read", "SELECT * FROM items ORDER BY id", into_variable="rows"),
            ),
            relations=[RelationDecl("items")],
        )
        engine.deploy(definition)
        execution = engine.run("writer")
        assert [r["id"] for r in execution.variables["rows"]] == [1, 2, 3, 10]

    def test_fresh_snapshot_activity_sees_new_data(self, items, engine):
        definition = ProcessDefinition(
            "fresh",
            seq(
                RunQuery("stale", "SELECT COUNT(*) AS n FROM items", into_variable="before"),
                RunQuery(
                    "fresh_read",
                    "SELECT COUNT(*) AS n FROM items",
                    into_variable="after",
                    fresh_snapshot=True,
                ),
            ),
            relations=[RelationDecl("items")],
        )
        engine.deploy(definition)
        execution = engine.start("fresh")
        items.execute("INSERT INTO items (id, v) VALUES (4, 4)")
        engine.execute_node(execution.definition.body, execution)
        engine.close(execution)
        assert execution.variables["before"][0]["n"] == 3
        assert execution.variables["after"][0]["n"] == 4

    def test_later_process_sees_everything(self, items, engine):
        deploy_reader(engine)
        first = engine.run("reader")
        items.execute("INSERT INTO items (id, v) VALUES (4, 4)")
        second = engine.run("reader")
        assert len(first.variables["rows"]) == 3
        assert len(second.variables["rows"]) == 4


class TestDeletionTables:
    def test_logical_delete_hides_from_deleter_only(self, items, engine):
        engine.isolation.manage("items")
        ctx_deleter = IsolationContext(100, engine.database.now(), None)
        ctx_other = IsolationContext(200, engine.database.now(), None)
        engine.isolation.process_started(100, ctx_deleter.start_time)
        engine.isolation.process_started(200, ctx_other.start_time)
        count = engine.isolation.logical_delete("items", col("id") == 2, ctx_deleter)
        assert count == 1
        # Physical row still present.
        assert len(items.query("SELECT * FROM items")) == 3
        # Deleter no longer sees it; the concurrent process still does.
        assert [r["id"] for r in engine.isolation.visible_rows("items", ctx_deleter)] == [1, 3]
        assert [r["id"] for r in engine.isolation.visible_rows("items", ctx_other)] == [1, 2, 3]

    def test_deletion_table_row_shape(self, items, engine):
        engine.isolation.manage("items")
        ctx = IsolationContext(100, engine.database.now(), None)
        engine.isolation.process_started(100, ctx.start_time)
        engine.isolation.logical_delete("items", col("id") == 1, ctx)
        deletion = items.query(f"SELECT * FROM {datamodel.deletion_table_name('items')}")
        assert deletion[0]["pid"] == 100
        assert deletion[0]["process_end"] is None
        assert deletion[0]["t_del"] > 0

    def test_process_started_after_deleter_end_does_not_see_deleted(self, items, engine):
        definition = ProcessDefinition(
            "deleter",
            seq(UpdateTable("del", "DELETE FROM items WHERE id = 2")),
            relations=[RelationDecl("items")],
        )
        engine.deploy(definition)
        deploy_reader(engine)
        # Reader A starts before the deleter finishes -> still sees id 2.
        reader_a = engine.start("reader")
        engine.run("deleter")
        engine.execute_node(reader_a.definition.body, reader_a)
        engine.close(reader_a)
        assert [r["id"] for r in reader_a.variables["rows"]] == [1, 2, 3]
        # Reader B starts after the deleter ended -> does not see id 2.
        reader_b = engine.run("reader")
        assert [r["id"] for r in reader_b.variables["rows"]] == [1, 3]

    def test_double_delete_is_idempotent(self, items, engine):
        engine.isolation.manage("items")
        ctx = IsolationContext(100, engine.database.now(), None)
        engine.isolation.process_started(100, ctx.start_time)
        assert engine.isolation.logical_delete("items", col("id") == 2, ctx) == 1
        assert engine.isolation.logical_delete("items", col("id") == 2, ctx) == 0

    def test_unmanaged_table_rejected(self, items, engine):
        ctx = IsolationContext(1, 0, None)
        with pytest.raises(IsolationError):
            engine.isolation.logical_delete("items", None, ctx)


class TestQueryRewriting:
    def test_rewrite_for_deleting_process(self, items, engine):
        engine.isolation.manage("items")
        ctx = IsolationContext(42, engine.database.now(), None)
        engine.isolation.process_started(42, ctx.start_time)
        engine.isolation.logical_delete("items", col("id") == 1, ctx)
        sql = engine.isolation.rewrite_select_star("items", ctx)
        assert "pid = 42" in sql
        assert "NOT IN" in sql

    def test_rewrite_for_later_process(self, items, engine):
        engine.isolation.manage("items")
        ctx = IsolationContext(43, engine.database.now(), None)
        sql = engine.isolation.rewrite_select_star("items", ctx)
        assert f"process_end < {ctx.start_time}" in sql

    def test_rewritten_sql_is_executable(self, items, engine):
        engine.isolation.manage("items")
        ctx = IsolationContext(42, engine.database.now(), None)
        engine.isolation.process_started(42, ctx.start_time)
        engine.isolation.logical_delete("items", col("id") == 1, ctx)
        sql = engine.isolation.rewrite_select_star("items", ctx)
        rows = items.query(sql)
        assert sorted(r["id"] for r in rows) == [2, 3]


class TestGarbageCollection:
    def test_physical_delete_after_all_witnesses_gone(self, items, engine):
        definition = ProcessDefinition(
            "deleter",
            seq(UpdateTable("del", "DELETE FROM items WHERE id = 2")),
            relations=[RelationDecl("items")],
        )
        engine.deploy(definition)
        deploy_reader(engine)
        witness = engine.start("reader")  # started before deleter ends
        engine.run("deleter")
        # Witness still running: the tuple must not be physically removed.
        assert len(items.table("items")) == 3
        engine.execute_node(witness.definition.body, witness)
        engine.close(witness)
        # Last witness finished: now it may be collected.
        engine.isolation.collect_garbage("items")
        assert len(items.table("items")) == 2
        deletion_table = datamodel.deletion_table_name("items")
        assert len(items.table(deletion_table)) == 0

    def test_gc_noop_for_pending_deletes(self, items, engine):
        engine.isolation.manage("items")
        ctx = IsolationContext(100, engine.database.now(), None)
        engine.isolation.process_started(100, ctx.start_time)
        engine.isolation.logical_delete("items", col("id") == 2, ctx)
        # Deleting process still running: nothing collectible.
        assert engine.isolation.collect_garbage("items") == 0
        assert len(items.table("items")) == 3

    def test_gc_on_unmanaged_table(self, items, engine):
        assert engine.isolation.collect_garbage("items") == 0


class TestProcessBasedIsolation:
    def test_own_rows_via_provenance(self, items, engine):
        items.execute("CREATE TABLE results (v INTEGER)")
        definition = ProcessDefinition(
            "producer",
            seq(RunQuery("make", "SELECT v FROM items WHERE id = 1", into_table="results")),
            relations=[RelationDecl("items"), RelationDecl("results")],
        )
        engine.deploy(definition)
        first = engine.run("producer")
        second = engine.run("producer")
        all_rows = items.query("SELECT * FROM results")
        assert len(all_rows) == 2
        own_first = engine.isolation.own_rows("results", first.id)
        own_second = engine.isolation.own_rows("results", second.id)
        assert len(own_first) == 1
        assert len(own_second) == 1
        assert own_first[0][TID] != own_second[0][TID]


class TestIsolatedStatementsTakeTheStatementPath:
    """What an activity runs (Section VI-A) is SQL like any other: it
    goes through the database's statement cache and its telemetry."""

    @pytest.fixture
    def ctx(self, items, engine):
        engine.isolation.manage("items")
        ctx = IsolationContext(100, engine.database.now(), None, own_tids={})
        engine.isolation.process_started(100, ctx.start_time)
        return ctx

    def test_repeated_statements_hit_the_statement_cache(self, items, engine, ctx):
        select = "SELECT * FROM items WHERE v > ?"
        insert = "INSERT INTO items (id, v) VALUES (?, ?)"
        engine.isolation.query(select, [0], ctx)
        engine.isolation.execute(insert, [10, 10], ctx)
        before = items.cache_info()["statements"]
        assert len(engine.isolation.query(select, [1], ctx)) == 3
        engine.isolation.execute(insert, [11, 11], ctx)
        after = items.cache_info()["statements"]
        assert after["misses"] == before["misses"]
        assert after["hits"] > before["hits"]
        # A snapshot's plan is per context: it never enters the plan cache.
        assert select not in items._plan_cache

    def test_insert_and_select_each_open_one_execute_span(
        self, items, engine, ctx, traced
    ):
        engine.isolation.execute("INSERT INTO items (id, v) VALUES (10, 10)", [], ctx)
        rows = engine.isolation.query("SELECT * FROM items ORDER BY id", [], ctx)
        assert [r["id"] for r in rows] == [1, 2, 3, 10]  # own write visible
        spans = traced.tracer().spans_named("db.execute")
        assert [s.tags["kind"] for s in spans] == ["insert", "select"]
        assert spans[0].tags["rows"] == 1
        assert spans[1].tags["rows"] == 4
        assert spans[1].tags["access"] == "scan"
        counters = traced.metrics().snapshot()["counters"]
        assert counters["db.statements{kind=insert}"] == 1
        assert counters["db.statements{kind=select}"] == 1

    def test_over_budget_isolated_statements_reach_the_slow_log(
        self, items, engine, ctx, traced
    ):
        log = items.enable_slowlog(budget_ms=0.0001)
        try:
            engine.isolation.execute(
                "INSERT INTO items (id, v) VALUES (10, 10)", [], ctx
            )
            engine.isolation.execute("DELETE FROM items WHERE id = 1", [], ctx)
            engine.isolation.query("SELECT * FROM items ORDER BY id", [], ctx)
            entries = {e["name"]: e for e in log.entries() if e["kind"] == "query"}
        finally:
            items.disable_slowlog()
        assert "INSERT INTO items (id, v) VALUES (10, 10)" in entries
        select = entries["SELECT * FROM items ORDER BY id"]
        # Operator rows come from re-running the plan against the same
        # snapshot: the logically deleted row 1 is not counted.
        operators = json.loads(select["operators"])
        assert operators[0][1] == 3
        assert any(label == "Scan items" and n == 3 for label, n in operators)

    def test_an_isolated_insert_leaves_the_trigger_catalog_alone(
        self, items, engine, ctx
    ):
        """Own-row visibility reads the statement's change set off its
        ``Result``: no trigger is installed, not even for the statement."""
        during = []
        items.on("items", "insert", lambda change: during.append(items.trigger_names()))
        before = items.trigger_names()
        result = engine.isolation.execute(
            "INSERT INTO items (id, v) VALUES (10, 10), (11, 11)", [], ctx
        )
        assert during == [before] and items.trigger_names() == before
        assert [row["id"] for row in result.change.inserted] == [10, 11]
        assert ctx.own_tids["items"] == {row[TID] for row in result.change.inserted}
