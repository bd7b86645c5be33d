"""The EdiFlow facade: wiring, XML deployment, snapshots."""


from repro import EdiFlow
from repro.workflow import Procedure


class Doubler(Procedure):
    name = "doubler"

    def run(self, env, inputs, read_write):
        return [[{"v": r["v"] * 2} for r in inputs[0]]]


PROCESS_XML = """
<process name="double">
  <relation name="src">
    <column name="v" type="INTEGER"/>
  </relation>
  <function name="doubler"/>
  <body>
    <sequence>
      <activity name="c" type="callFunction" procedure="doubler">
        <input table="src"/>
        <output table="dst"/>
      </activity>
    </sequence>
  </body>
</process>
"""


class TestFacade:
    def test_sql_passthrough(self):
        platform = EdiFlow()
        platform.execute("CREATE TABLE t (a INTEGER)")
        platform.execute("INSERT INTO t (a) VALUES (1), (2)")
        assert platform.query("SELECT COUNT(*) AS n FROM t")[0]["n"] == 2

    def test_deploy_and_run_xml_process(self):
        platform = EdiFlow()
        platform.execute("CREATE TABLE dst (v INTEGER)")
        platform.procedures.register(Doubler())
        definition = platform.deploy_xml(PROCESS_XML)
        assert definition.name == "double"
        platform.execute("INSERT INTO src (v) VALUES (1), (2), (3)")
        platform.run("double")
        values = sorted(r["v"] for r in platform.query("SELECT * FROM dst"))
        assert values == [2, 4, 6]

    def test_deploy_xml_file(self, tmp_path):
        path = tmp_path / "proc.xml"
        path.write_text(PROCESS_XML)
        platform = EdiFlow()
        platform.execute("CREATE TABLE dst (v INTEGER)")
        platform.procedures.register(Doubler())
        definition = platform.deploy_xml_file(path)
        assert definition.name == "double"

    def test_views_wiring(self):
        from repro.vis import VisualItem

        platform = EdiFlow()
        vis = platform.views.visualizations.create_visualization("v")
        comp = platform.views.visualizations.create_component(vis, "scatter")
        platform.views.publish(comp, [VisualItem(obj_id=1, x=0.0, y=0.0)])
        view = platform.views.add_view("laptop", comp)
        assert len(view.display) == 1
        platform.shutdown()

    def test_materialized_views_wiring(self):
        from repro.db import AggSpec, col
        from repro.ivm import AggregateView

        platform = EdiFlow()
        platform.execute("CREATE TABLE votes (state TEXT, n INTEGER)")
        view = platform.materialized.register(
            AggregateView(
                "agg", "votes", ["state"], [AggSpec("SUM", col("n"), "total")]
            )
        )
        platform.execute("INSERT INTO votes (state, n) VALUES ('CA', 5)")
        assert view.group("CA")["total"] == 5

    def test_save_and_load(self, tmp_path):
        platform = EdiFlow(name="snap")
        platform.execute("CREATE TABLE t (a INTEGER)")
        platform.execute("INSERT INTO t (a) VALUES (7)")
        path = tmp_path / "state.jsonl"
        rows = platform.save(path)
        assert rows > 0  # includes core tables content
        restored = EdiFlow.load(path)
        assert restored.query("SELECT a FROM t") == [{"a": 7}]

    def test_run_with_kwargs(self):
        from repro.workflow import AskUser, ProcessDefinition, Variable, seq

        platform = EdiFlow()
        definition = ProcessDefinition(
            "ask",
            seq(AskUser("q", "name?", "name")),
            variables=[Variable("name")],
        )
        platform.deploy(definition)
        execution = platform.run("ask", responder=lambda p, v: "zoe")
        assert execution.variables["name"] == "zoe"

    def test_process_history_survives_snapshot(self, tmp_path):
        from repro.core import datamodel
        from repro.workflow import ProcessDefinition, UpdateTable, seq

        platform = EdiFlow()
        platform.execute("CREATE TABLE t (a INTEGER)")
        definition = ProcessDefinition("p", seq(UpdateTable("u", "DELETE FROM t")))
        platform.deploy(definition)
        platform.run("p")
        path = tmp_path / "state.jsonl"
        platform.save(path)
        restored = EdiFlow.load(path)
        instances = restored.query(
            f"SELECT status FROM {datamodel.T_PROCESS_INSTANCE}"
        )
        assert instances[0]["status"] == "completed"


    def test_redeploy_on_a_loaded_platform_indexes_the_deletion_table(self, tmp_path):
        """``hidden_tids`` probes both indexes with no scan to fall back on."""
        from repro.core import datamodel

        platform = EdiFlow()
        platform.execute("CREATE TABLE dst (v INTEGER)")
        platform.procedures.register(Doubler())
        platform.deploy_xml(PROCESS_XML)
        path = tmp_path / "state.jsonl"
        platform.save(path)
        restored = EdiFlow.load(path)
        restored.procedures.register(Doubler())
        restored.deploy_xml(PROCESS_XML)
        deletion = restored.database.table(datamodel.deletion_table_name("src"))
        assert deletion.find_hash_index("pid") is not None
        assert deletion.find_sorted_index("process_end") is not None
        restored.execute("INSERT INTO src (v) VALUES (4)")
        restored.run("double")
        assert restored.query("SELECT v FROM dst") == [{"v": 8}]


class TestPropagationFacade:
    """``set_propagation_policy`` / ``flush_propagation`` / ``shutdown``:
    a table's policy is the policy of every edge out of it (Section V)."""

    @staticmethod
    def platform_with_view():
        """``t`` feeds a mirror, two views and an UP handler; ``other``
        feeds a mirror and a view of its own."""
        from repro.ivm import SelectProjectView
        from repro.workflow import (
            CallProcedure,
            ProcessDefinition,
            RelationDecl,
            UpdatePropagation,
            seq,
        )

        platform = EdiFlow()
        platform.execute("CREATE TABLE t (a INTEGER)")
        platform.execute("CREATE TABLE other (a INTEGER)")
        platform.center.watch("t")
        platform.center.watch("other")
        view = platform.materialized.register(SelectProjectView("all", "t"))
        platform.materialized.register(SelectProjectView("evens", "t"))
        platform.materialized.register(SelectProjectView("others", "other"))
        platform.procedures.register(Doubler())
        platform.deploy(
            ProcessDefinition(
                "on_t",
                seq(CallProcedure("c", "doubler", inputs=["t"], outputs=[])),
                relations=[RelationDecl("t")],
                procedures=["doubler"],
                propagations=[UpdatePropagation("t", "c", "fa-rp")],
            )
        )
        return platform, view

    @staticmethod
    def edges(platform):
        """Every edge, by frontend: mirror, views, UP handlers."""
        return {
            "notify": platform.center.subscriptions,
            "views": platform.materialized.subscriptions,
            "up": platform.propagation.subscriptions,
        }

    def test_set_policy_reaches_notifications_and_up_handlers(self):
        """... and every view over the table: one meaning, all its edges,
        nothing on another table."""
        from repro.sync import IMMEDIATE, MANUAL

        platform, _view = self.platform_with_view()
        edges = self.edges(platform)
        platform.set_propagation_policy("t", MANUAL)
        on_t = [
            edges["notify"]["t"],
            *edges["views"]["all"],
            *edges["views"]["evens"],
            edges["up"]["t"],
        ]
        assert sorted(edge.name for edge in on_t) == sorted(
            edge.name for edge in platform.database.subscriptions("t")
        )
        assert all(edge.policy() is MANUAL for edge in on_t)
        on_other = [edges["notify"]["other"], *edges["views"]["others"]]
        assert all(edge.policy() is IMMEDIATE for edge in on_other)
        platform.shutdown()

    def test_flush_one_table_reaches_the_views_over_it(self):
        from repro.sync import MANUAL

        platform, view = self.platform_with_view()
        platform.set_propagation_policy("t", MANUAL)
        platform.set_propagation_policy("other", MANUAL)
        platform.execute("INSERT INTO t (a) VALUES (1)")
        platform.execute("INSERT INTO other (a) VALUES (2)")
        on_t = platform.database.subscriptions("t")
        assert [edge.pending_ops() for edge in on_t] == [1] * 4
        assert len(view) == 0
        # One net op per edge out of t: mirror, two views, UP handlers.
        assert platform.flush_propagation("t") == 4
        assert [edge.pending_ops() for edge in on_t] == [0] * 4
        assert view.rows() == [{"a": 1}]
        assert len(platform.center.changes_since("t", 0)[1]) == 1
        # ... and exactly those: other's edges still hold their change.
        on_other = platform.database.subscriptions("other")
        assert [edge.pending_ops() for edge in on_other] == [1, 1]
        platform.shutdown()

    def test_flush_everything(self):
        from repro.sync import MANUAL

        platform, view = self.platform_with_view()
        for table in ("t", "other"):
            platform.set_propagation_policy(table, MANUAL)
        platform.execute("INSERT INTO t (a) VALUES (1)")
        platform.execute("INSERT INTO other (a) VALUES (2)")
        assert platform.flush_propagation() == 6  # four edges on t, two on other
        edges = platform.database.subscriptions()
        assert all(edge.pending_ops() == 0 for edge in edges)
        assert len(view) == 1
        platform.shutdown()

    def test_shutdown_leaves_no_gate_timer_running(self):
        import threading

        from repro.sync import Threshold

        def gate_timers():
            return {
                t for t in threading.enumerate() if t.name == "policy-gate-timer"
            }

        before = gate_timers()
        platform, view = self.platform_with_view()
        timed = Threshold(max_changes=100, max_delay_ms=60_000.0)
        platform.set_propagation_policy("t", timed)
        # One timer for the database, however many edges are timed.
        assert len(gate_timers() - before) == 1
        platform.execute("INSERT INTO t (a) VALUES (1)")
        platform.shutdown()
        assert gate_timers() - before == set()
        assert len(view) == 1  # shutdown flushed what was still buffered
        assert platform.database.subscriptions() == []

    def test_telemetry_policy_stays_on_the_sinks_edges(self):
        """Policies are per edge, not per table: the sink's timerless
        Threshold is on its center's ``sys_*`` edges only, and dashboard
        views over the same tables of the same database stay immediate."""
        from repro.apps.telemetry import TelemetryDashboard
        from repro.obs import ObsRuntime
        from repro.obs.store import (
            DEFAULT_POLICY,
            SYS_PROFILES,
            SYS_SPANS,
            TelemetrySink,
        )
        from repro.sync import IMMEDIATE

        sink = TelemetrySink(ObsRuntime())
        dashboard = TelemetryDashboard(sink)
        try:
            for table in (SYS_SPANS, SYS_PROFILES):
                edges = sink.database.subscriptions(table)
                mine = sink.center.subscriptions[table]
                assert mine in edges and mine.policy() is DEFAULT_POLICY
                views = [edge for edge in edges if edge is not mine]
                assert views, f"no dashboard view over {table}"
                assert all(edge.policy() is IMMEDIATE for edge in views)
        finally:
            dashboard.close()
            sink.close()
