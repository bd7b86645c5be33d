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
    """``set_propagation_policy`` / ``flush_propagation`` / ``shutdown``
    over the three propagation gates (Section V)."""

    @staticmethod
    def platform_with_view():
        from repro.ivm import SelectProjectView

        platform = EdiFlow()
        platform.execute("CREATE TABLE t (a INTEGER)")
        platform.execute("CREATE TABLE other (a INTEGER)")
        platform.center.watch("t")
        view = platform.materialized.register(SelectProjectView("all", "t"))
        return platform, view

    def test_set_policy_reaches_notifications_and_up_handlers(self):
        from repro.sync import IMMEDIATE, MANUAL

        platform, _view = self.platform_with_view()
        platform.set_propagation_policy("t", MANUAL)
        assert platform.center.policy("t") is MANUAL
        assert platform.propagation.policy("t") is MANUAL
        # Views opt in per view, not per table.
        assert platform.materialized.policy("all") is IMMEDIATE
        platform.shutdown()

    def test_flush_one_table_reaches_the_views_over_it(self):
        from repro.sync import MANUAL

        platform, view = self.platform_with_view()
        platform.set_propagation_policy("t", MANUAL)
        platform.materialized.set_policy("all", MANUAL)
        platform.execute("INSERT INTO t (a) VALUES (1)")
        assert platform.flush_propagation("other") == 0
        assert len(view) == 0 and platform.materialized.pending_ops("all") == 1
        # One net op on the notification plane, one on the view's.
        assert platform.flush_propagation("t") == 2
        assert platform.materialized.pending_ops("all") == 0
        assert view.rows() == [{"a": 1}]
        assert len(platform.center.changes_since("t", 0)[1]) == 1
        platform.shutdown()

    def test_flush_everything(self):
        from repro.sync import MANUAL

        platform, view = self.platform_with_view()
        platform.center.watch("other")
        for table in ("t", "other"):
            platform.set_propagation_policy(table, MANUAL)
        platform.materialized.set_policy("all", MANUAL)
        platform.execute("INSERT INTO t (a) VALUES (1)")
        platform.execute("INSERT INTO other (a) VALUES (2)")
        assert platform.flush_propagation() == 3  # t, other, the view
        assert platform.center.pending_ops() == 0
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
        platform.materialized.set_policy("all", timed)
        # One timer per gate: notifications, UP handlers, views.
        assert len(gate_timers() - before) == 3
        platform.execute("INSERT INTO t (a) VALUES (1)")
        platform.shutdown()
        assert gate_timers() - before == set()
        assert len(view) == 1  # shutdown flushed what was still buffered
