"""Update propagation: the four UP scopes (Section V / VI-B)."""

import pytest

from repro.errors import PropagationError
from repro.workflow import (
    CallProcedure,
    ProcessDefinition,
    Procedure,
    RelationDecl,
    RunQuery,
    UpdatePropagation,
    UpdateTable,
    seq,
)


class Recorder(Procedure):
    """Counts handler invocations and remembers deltas."""

    def __init__(self, name="recorder", distributive=False):
        self.name = name
        self.distributive = distributive
        self.runs = 0
        self.running_deltas = []
        self.finished_deltas = []

    def run(self, env, inputs, read_write):
        self.runs += 1
        return []

    def on_delta_running(self, env, delta):
        self.running_deltas.append(delta)
        return None

    def on_delta_finished(self, env, delta):
        self.finished_deltas.append(delta)
        return None


@pytest.fixture
def source(db):
    db.execute("CREATE TABLE src (id INTEGER PRIMARY KEY, v INTEGER)")
    return db


def deploy(engine, recorder, scopes, detached=False):
    engine.procedures.register(recorder)
    definition = ProcessDefinition(
        "p",
        seq(
            CallProcedure(
                "work", recorder.name, inputs=["src"], detached=detached
            )
        ),
        relations=[RelationDecl("src")],
        procedures=[recorder.name],
        propagations=[UpdatePropagation("src", "work", s) for s in scopes],
    )
    engine.deploy(definition)
    return definition


class TestDefaultIgnore:
    def test_no_up_no_handler_calls(self, source, engine, propagation):
        recorder = Recorder()
        engine.procedures.register(recorder)
        definition = ProcessDefinition(
            "p",
            seq(CallProcedure("work", "recorder", inputs=["src"])),
            relations=[RelationDecl("src")],
            procedures=["recorder"],
        )
        engine.deploy(definition)
        engine.run("p")
        source.execute("INSERT INTO src (id, v) VALUES (1, 1)")
        assert recorder.running_deltas == []
        assert recorder.finished_deltas == []


class TestRunningScope:
    def test_ra_delivers_to_running_detached_instance(self, source, engine, propagation):
        recorder = Recorder()
        deploy(engine, recorder, ["ra"], detached=True)
        execution = engine.run("p")
        source.execute("INSERT INTO src (id, v) VALUES (1, 1)")
        assert len(recorder.running_deltas) == 1
        assert recorder.running_deltas[0].inserted[0]["id"] == 1
        engine.close(execution)
        # After completion 'ra' no longer fires.
        source.execute("INSERT INTO src (id, v) VALUES (2, 2)")
        assert len(recorder.running_deltas) == 1

    def test_ra_sees_updates_and_deletes(self, source, engine, propagation):
        source.execute("INSERT INTO src (id, v) VALUES (1, 1)")
        recorder = Recorder()
        deploy(engine, recorder, ["ra"], detached=True)
        execution = engine.run("p")
        source.execute("UPDATE src SET v = 9 WHERE id = 1")
        source.execute("DELETE FROM src WHERE id = 1")
        assert len(recorder.running_deltas) == 2
        update_delta = recorder.running_deltas[0]
        assert update_delta.inserted[0]["v"] == 9
        assert update_delta.deleted[0]["v"] == 1
        engine.close(execution)

    def test_ra_requires_running_handler(self, source, engine, propagation):
        class NoHandlers(Procedure):
            name = "nohandlers"

            def run(self, env, inputs, read_write):
                return []

        engine.procedures.register(NoHandlers())
        definition = ProcessDefinition(
            "p",
            seq(CallProcedure("work", "nohandlers", inputs=["src"], detached=True)),
            relations=[RelationDecl("src")],
            procedures=["nohandlers"],
            propagations=[UpdatePropagation("src", "work", "ra")],
        )
        engine.deploy(definition)
        execution = engine.run("p")
        with pytest.raises(PropagationError, match="no running delta handler"):
            source.execute("INSERT INTO src (id, v) VALUES (1, 1)")
        engine.close(execution)


class TestTerminatedScopes:
    def test_ta_rp_fires_while_process_running(self, source, engine, propagation):
        recorder = Recorder()
        deploy(engine, recorder, ["ta-rp"])
        execution = engine.run("p", close=False)
        assert execution.instance.is_running()
        source.execute("INSERT INTO src (id, v) VALUES (1, 1)")
        assert len(recorder.finished_deltas) == 1
        engine.close(execution)
        source.execute("INSERT INTO src (id, v) VALUES (2, 2)")
        assert len(recorder.finished_deltas) == 1  # process ended: ta-rp stops

    def test_ta_tp_fires_after_process_ended(self, source, engine, propagation):
        recorder = Recorder()
        deploy(engine, recorder, ["ta-tp"])
        execution = engine.run("p", close=False)
        source.execute("INSERT INTO src (id, v) VALUES (1, 1)")
        assert recorder.finished_deltas == []  # process still running
        engine.close(execution)
        source.execute("INSERT INTO src (id, v) VALUES (2, 2)")
        assert len(recorder.finished_deltas) == 1

    def test_combined_scopes_cover_both_phases(self, source, engine, propagation):
        recorder = Recorder()
        deploy(engine, recorder, ["ta-rp", "ta-tp"])
        execution = engine.run("p", close=False)
        source.execute("INSERT INTO src (id, v) VALUES (1, 1)")
        engine.close(execution)
        source.execute("INSERT INTO src (id, v) VALUES (2, 2)")
        assert len(recorder.finished_deltas) == 2


class TestFutureScope:
    def test_fa_rp_promotes_future_activity_to_fresh_snapshot(
        self, source, engine, propagation
    ):
        source.execute("INSERT INTO src (id, v) VALUES (1, 1)")
        definition = ProcessDefinition(
            "p",
            seq(
                # A user-interaction stand-in: a query the engine runs first.
                RunQuery("first", "SELECT COUNT(*) AS n FROM src", into_variable="n1"),
                RunQuery("second", "SELECT COUNT(*) AS n FROM src", into_variable="n2"),
            ),
            relations=[RelationDecl("src")],
            propagations=[UpdatePropagation("src", "second", "fa-rp")],
        )
        engine.deploy(definition)
        execution = engine.start("p")
        # Delta arrives while the process is running, before 'second' starts.
        source.execute("INSERT INTO src (id, v) VALUES (2, 2)")
        engine.execute_node(execution.definition.body, execution)
        engine.close(execution)
        assert execution.variables["n1"][0]["n"] == 1  # process-start snapshot
        assert execution.variables["n2"][0]["n"] == 2  # promoted to fresh

    def test_fa_rp_does_not_affect_other_processes(self, source, engine, propagation):
        definition = ProcessDefinition(
            "p",
            seq(RunQuery("read", "SELECT COUNT(*) AS n FROM src", into_variable="n")),
            relations=[RelationDecl("src")],
            propagations=[UpdatePropagation("src", "read", "fa-rp")],
        )
        engine.deploy(definition)
        source.execute("INSERT INTO src (id, v) VALUES (1, 1)")
        execution = engine.run("p")
        assert execution.variables["n"][0]["n"] == 1


class TestDistributiveProcedures:
    def test_distributive_auto_handler_runs_on_delta(self, source, engine, propagation):
        class Distributive(Procedure):
            name = "dist"
            distributive = True

            def __init__(self):
                self.batches = []

            def run(self, env, inputs, read_write):
                self.batches.append(list(inputs[0]))
                return []

        proc = Distributive()
        engine.procedures.register(proc)
        definition = ProcessDefinition(
            "p",
            seq(CallProcedure("work", "dist", inputs=["src"], detached=True)),
            relations=[RelationDecl("src")],
            procedures=["dist"],
            propagations=[UpdatePropagation("src", "work", "ra")],
        )
        engine.deploy(definition)
        execution = engine.run("p")
        source.execute("INSERT INTO src (id, v) VALUES (1, 1), (2, 2)")
        # First batch: the initial (empty) run; second: the delta alone.
        assert len(proc.batches) == 2
        assert [r["id"] for r in proc.batches[1]] == [1, 2]
        engine.close(execution)


class TestHandlerOutputInjection:
    def test_handler_outputs_written_to_activity_outputs(self, source, engine, propagation):
        source.execute("CREATE TABLE sink (id INTEGER, v INTEGER)")

        class Producer(Procedure):
            name = "producer"

            def run(self, env, inputs, read_write):
                return [[]]

            def on_delta_running(self, env, delta):
                return [[{"id": r["id"], "v": r["v"] * 10} for r in delta.inserted]]

        engine.procedures.register(Producer())
        definition = ProcessDefinition(
            "p",
            seq(
                CallProcedure(
                    "work", "producer", inputs=["src"], outputs=["sink"], detached=True
                )
            ),
            relations=[RelationDecl("src")],
            procedures=["producer"],
            propagations=[UpdatePropagation("src", "work", "ra")],
        )
        engine.deploy(definition)
        execution = engine.run("p")
        source.execute("INSERT INTO src (id, v) VALUES (1, 7)")
        rows = source.query("SELECT * FROM sink")
        assert rows == [{"id": 1, "v": 70}]
        engine.close(execution)

    def test_propagation_log_records_invocations(self, source, engine, propagation):
        recorder = Recorder()
        deploy(engine, recorder, ["ra"], detached=True)
        execution = engine.run("p")
        source.execute("INSERT INTO src (id, v) VALUES (1, 1), (2, 2)")
        assert len(propagation.log) == 1
        entry = propagation.log[0]
        assert entry.scope == "ra"
        assert entry.delta_size == 2
        assert entry.relation == "src"
        engine.close(execution)


class TestRetention:
    def test_prune_finished_stops_ta_propagation(self, source, engine, propagation):
        recorder = Recorder()
        deploy(engine, recorder, ["ta-tp"])
        execution = engine.run("p", close=False)
        engine.close(execution)
        source.execute("INSERT INTO src (id, v) VALUES (1, 1)")
        assert len(recorder.finished_deltas) == 1
        dropped = engine.prune_finished()
        assert dropped == 1
        source.execute("INSERT INTO src (id, v) VALUES (2, 2)")
        assert len(recorder.finished_deltas) == 1  # no longer delivered

    def test_prune_single_process(self, source, engine, propagation):
        recorder = Recorder()
        deploy(engine, recorder, ["ta-tp"])
        first = engine.run("p", close=False)
        engine.close(first)
        second = engine.run("p", close=False)
        engine.close(second)
        assert engine.prune_finished(first.id) == 1
        source.execute("INSERT INTO src (id, v) VALUES (1, 1)")
        # Only the surviving record receives the delta.
        assert len(recorder.finished_deltas) == 1

    def test_prune_empty_is_zero(self, source, engine, propagation):
        assert engine.prune_finished() == 0


class TestCompileErrors:
    def test_ra_on_non_procedure_activity_rejected(self, source, engine, propagation):
        definition = ProcessDefinition(
            "p",
            seq(UpdateTable("upd", "DELETE FROM src")),
            relations=[RelationDecl("src")],
            propagations=[UpdatePropagation("src", "upd", "ra")],
        )
        with pytest.raises(PropagationError, match="delta handlers"):
            engine.deploy(definition)


class TestPropagationPolicies:
    """P2/P3 policies on UP routes (Section V)."""

    def test_manual_policy_defers_to_activity_completion(
        self, source, engine, propagation
    ):
        from repro.sync import MANUAL

        recorder = Recorder()
        deploy(engine, recorder, ["ra"], detached=True)
        edge = propagation.subscriptions["src"]
        edge.set_policy(MANUAL)
        execution = engine.run("p")
        for i in range(5):
            source.execute(f"INSERT INTO src (id, v) VALUES ({i + 1}, {i})")
        # Nothing delivered while the unit of work is open.
        assert recorder.running_deltas == []
        assert edge.pending_ops() == 5
        # Completion flushes: the still-live 'ra' instance gets ONE net
        # delta covering the whole batch.
        engine.close(execution)
        assert len(recorder.running_deltas) == 1
        assert len(recorder.running_deltas[0].inserted) == 5

    def test_threshold_policy_flushes_on_count(self, source, engine, propagation):
        from repro.sync import Threshold

        recorder = Recorder()
        deploy(engine, recorder, ["ra"], detached=True)
        propagation.subscriptions["src"].set_policy(
            Threshold(max_changes=3, max_delay_ms=None)
        )
        execution = engine.run("p")
        source.execute("INSERT INTO src (id, v) VALUES (1, 1)")
        source.execute("INSERT INTO src (id, v) VALUES (2, 2)")
        assert recorder.running_deltas == []
        source.execute("INSERT INTO src (id, v) VALUES (3, 3)")
        assert len(recorder.running_deltas) == 1
        assert len(recorder.running_deltas[0].inserted) == 3
        engine.close(execution)

    def test_coalescing_delivers_net_delta(self, source, engine, propagation):
        from repro.sync import MANUAL

        recorder = Recorder()
        deploy(engine, recorder, ["ra"], detached=True)
        edge = propagation.subscriptions["src"]
        edge.set_policy(MANUAL)
        execution = engine.run("p")
        source.execute("INSERT INTO src (id, v) VALUES (1, 1)")
        source.execute("UPDATE src SET v = 9 WHERE id = 1")
        source.execute("INSERT INTO src (id, v) VALUES (2, 2)")
        source.execute("DELETE FROM src WHERE id = 2")
        flushed = edge.flush()
        # insert+update -> one insert carrying the final image;
        # insert+delete -> annihilated.
        assert flushed == 1
        (delta,) = recorder.running_deltas
        assert len(delta.inserted) == 1
        assert delta.inserted[0]["v"] == 9
        engine.close(execution)

