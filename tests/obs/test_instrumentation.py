"""Layer instrumentation: the spans and metrics each subsystem emits."""

import pytest

import repro.obs as obs
from repro.db import Column, Database
from repro.db.types import INTEGER, TEXT
from repro.ivm.registry import ViewRegistry
from repro.ivm.view import SelectProjectView
from repro.vis.display import Display
from repro.vis.attributes import VisualItem
from repro.vis.layout.force import FruchtermanReingold
from repro.vis.layout.graph import Graph
from repro.vis.layout.linlog import LinLogLayout


@pytest.fixture
def emp_db():
    db = Database("obs-test")
    db.create_table(
        "emp",
        [Column("id", INTEGER, nullable=False), Column("name", TEXT)],
        primary_key="id",
    )
    db.insert_many("emp", [{"id": i, "name": f"e{i}"} for i in range(50)])
    return db


class TestDisabledByDefault:
    def test_no_spans_recorded_while_disabled(self, emp_db):
        assert not obs.enabled()
        emp_db.execute("SELECT * FROM emp WHERE id = 7")
        emp_db.insert("emp", {"id": 1000, "name": "x"})
        assert len(obs.tracer()) == 0

    def test_runtime_switchable(self, emp_db):
        obs.enable()
        emp_db.execute("SELECT * FROM emp WHERE id = 7")
        traced = len(obs.tracer())
        assert traced > 0
        obs.disable()
        emp_db.execute("SELECT * FROM emp WHERE id = 8")
        assert len(obs.tracer()) == traced  # nothing new


class TestDatabaseSpans:
    def test_execute_span_tags_routed_access(self, emp_db, enabled_obs):
        emp_db.execute("SELECT * FROM emp WHERE id = 7")
        (span,) = obs.tracer().spans_named("db.execute")
        assert span.tags["kind"] == "select"
        assert span.tags["access"] == "routed"  # primary-key probe
        assert span.tags["rows"] == 1

    def test_execute_span_tags_scan_access(self, emp_db, enabled_obs):
        emp_db.execute("SELECT * FROM emp WHERE name = 'e7'")
        (span,) = obs.tracer().spans_named("db.execute")
        assert span.tags["access"] == "scan"  # name is unindexed

    def test_statement_counters_and_latency(self, emp_db, enabled_obs):
        emp_db.execute("SELECT * FROM emp WHERE id = 7")
        emp_db.execute("SELECT * FROM emp WHERE id = 7")
        snap = obs.metrics().snapshot()
        assert snap["counters"]["db.statements{kind=select}"] == 2
        assert snap["histograms"]["db.execute_ms{kind=select}"]["count"] == 2

    def test_cache_counters_fold_in(self, emp_db, enabled_obs):
        emp_db.install_metrics()
        emp_db.execute("SELECT * FROM emp WHERE id = 11")
        emp_db.execute("SELECT * FROM emp WHERE id = 11")
        snap = obs.metrics().snapshot()
        for cache in ("statements", "plans"):
            assert snap["gauges"][f"db.cache.{cache}.misses{{db=obs-test}}"] == 1
            assert snap["gauges"][f"db.cache.{cache}.hits{{db=obs-test}}"] == 1
        # The caches count themselves; no statement pays for a second,
        # per-call copy of the same numbers.
        assert not [
            name
            for name in snap["counters"]
            if name.startswith(("db.statement_cache", "db.plan_cache"))
        ]

    def test_write_spans_for_each_operation(self, emp_db, enabled_obs):
        emp_db.insert("emp", {"id": 1000, "name": "new"})
        emp_db.execute("UPDATE emp SET name = 'renamed' WHERE id = 1000")
        emp_db.execute("DELETE FROM emp WHERE id = 1000")
        writes = obs.tracer().spans_named("db.write")
        ops = sorted(s.tags["op"] for s in writes)
        assert ops == ["delete", "insert", "update"]
        assert all(s.tags["table"] == "emp" for s in writes)
        counters = obs.metrics().snapshot()["counters"]
        assert counters["db.writes{op=insert,table=emp}"] == 1
        assert counters["db.writes{op=update,table=emp}"] == 1
        assert counters["db.writes{op=delete,table=emp}"] == 1

    def test_install_metrics_exports_cache_gauges(self, emp_db, enabled_obs):
        emp_db.install_metrics()
        emp_db.execute("SELECT * FROM emp WHERE id = 3")
        emp_db.execute("SELECT * FROM emp WHERE id = 3")
        gauges = obs.metrics().snapshot()["gauges"]
        info = emp_db.cache_info()
        assert gauges["db.cache.statements.hits{db=obs-test}"] == (
            info["statements"]["hits"]
        )
        assert gauges["db.cache.plans.size{db=obs-test}"] == info["plans"]["size"]


class TestTriggerSpans:
    def test_trigger_span_nests_under_write(self, emp_db, enabled_obs):
        fired = []
        emp_db.on("emp", ("insert",), lambda change: fired.append(change))
        emp_db.insert("emp", {"id": 2000, "name": "t"})
        assert fired
        (write,) = [
            s for s in obs.tracer().spans_named("db.write") if s.parent_id is None
        ]
        (trigger,) = obs.tracer().spans_named("db.trigger")
        assert trigger.parent_id == write.span_id
        assert trigger.tags["table"] == "emp"
        histograms = obs.metrics().snapshot()["histograms"]
        assert histograms["db.trigger_ms{table=emp}"]["count"] == 1

    def test_no_trigger_span_without_triggers(self, emp_db, enabled_obs):
        emp_db.insert("emp", {"id": 2001, "name": "quiet"})
        assert obs.tracer().spans_named("db.trigger") == []


class TestIvmSpans:
    def test_delta_apply_span_and_histograms(self, emp_db, enabled_obs):
        registry = ViewRegistry(emp_db)
        registry.register(SelectProjectView("all_emp", "emp"))
        emp_db.insert_many("emp", [{"id": 3000 + i, "name": "v"} for i in range(4)])
        (span,) = obs.tracer().spans_named("ivm.delta_apply")
        assert span.tags["view"] == "all_emp"
        assert span.tags["rows"] == 4
        histograms = obs.metrics().snapshot()["histograms"]
        assert histograms["ivm.delta_rows{view=all_emp}"]["sum"] == 4
        assert histograms["ivm.maintenance_ms{view=all_emp}"]["count"] == 1


class TestVisSpans:
    def test_linlog_layout_span(self, enabled_obs):
        graph = Graph()
        for i in range(6):
            graph.add_node(i)
        for i in range(5):
            graph.add_edge(i, i + 1)
        result = LinLogLayout(graph).run(max_iterations=10)
        (span,) = obs.tracer().spans_named("vis.layout")
        assert span.tags["algo"] == "linlog"
        assert span.tags["nodes"] == 6
        assert span.tags["iterations"] == result.iterations
        histograms = obs.metrics().snapshot()["histograms"]
        assert histograms["vis.layout_ms{algo=linlog}"]["count"] == 1

    def test_fr_layout_span(self, enabled_obs):
        graph = Graph()
        for i in range(4):
            graph.add_node(i)
        FruchtermanReingold(graph).run(max_iterations=5)
        (span,) = obs.tracer().spans_named("vis.layout")
        assert span.tags["algo"] == "fr"

    def test_display_apply_span(self, enabled_obs):
        display = Display("main")
        display.apply_rows(
            [
                VisualItem(obj_id=i, x=float(i), y=0.0).to_row(1)
                for i in range(3)
            ]
        )
        (span,) = obs.tracer().spans_named("vis.display.apply")
        assert span.tags == {"display": "main", "rows": 3}
        histograms = obs.metrics().snapshot()["histograms"]
        assert histograms["vis.display_apply_ms{display=main}"]["count"] == 1


class TestWorkflowSpans:
    def test_activity_spans_with_instance_ids(self, enabled_obs):
        from repro.workflow import ProcessDefinition, UpdateTable, seq
        from repro.workflow.engine import WorkflowEngine

        db = Database("wf-obs")
        db.execute("CREATE TABLE t (v INTEGER)")
        engine = WorkflowEngine(db)
        engine.deploy(
            ProcessDefinition(
                "p",
                seq(
                    UpdateTable("w1", "INSERT INTO t (v) VALUES (1)"),
                    UpdateTable("w2", "INSERT INTO t (v) VALUES (2)"),
                ),
            )
        )
        execution = engine.run("p")
        (process_span,) = obs.tracer().spans_named("workflow.process")
        assert process_span.tags["process_instance_id"] == execution.id
        activity_spans = obs.tracer().spans_named("workflow.activity")
        assert [s.tags["activity"] for s in activity_spans] == ["w1", "w2"]
        assert all(s.parent_id == process_span.span_id for s in activity_spans)
        assert all(s.tags["type"] == "UpdateTable" for s in activity_spans)
        histograms = obs.metrics().snapshot()["histograms"]
        assert histograms["workflow.activity_ms{activity=w1}"]["count"] == 1
