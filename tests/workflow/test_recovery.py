"""Resumable enactments: crash mid-process, recover, same final state."""

import pytest

from repro.core import datamodel
from repro.db import FSYNC_NEVER, Database, open_durable, recover as recover_db
from repro.faults import CrashInjector, CrashPlan, SimulatedCrash
from repro.workflow import (
    AskUser,
    Assign,
    CallProcedure,
    ProcessDefinition,
    Procedure,
    RunQuery,
    UpdateTable,
    Variable,
    seq,
)
from repro.workflow.engine import WorkflowEngine


class CrashyWriter(Procedure):
    """Writes rows, then optionally "dies" mid-run.

    ``armed`` is class-level so a rebuilt engine (simulating a fresh
    process) shares the disarm flag; ``runs`` counts invocations.
    """

    name = "crashy"
    armed = False
    runs = 0

    def run(self, env, inputs, read_write):
        type(self).runs += 1
        env.write_rows("out", [{"v": 101}, {"v": 102}])  # durable before crash
        if type(self).armed:
            raise SimulatedCrash("procedure.mid", 0)
        return [[{"v": 201}]]


def build_engine(db):
    engine = WorkflowEngine(db)
    engine.procedures.register(CrashyWriter(), singleton=False)
    definition = ProcessDefinition(
        "p",
        seq(
            Assign("set_k", "k", 7),
            UpdateTable("seed", "INSERT INTO src (v) VALUES (1), (2), (3)"),
            CallProcedure("crunch", "crashy", inputs=["src"], outputs=["out"]),
            RunQuery("count", "SELECT COUNT(*) AS c FROM out", into_variable="c"),
        ),
        variables=[Variable("k", initial=0), Variable("c", initial=None)],
    )
    engine.deploy(definition)
    return engine


def make_app_tables(db):
    db.execute("CREATE TABLE src (v INTEGER)")
    db.execute("CREATE TABLE out (v INTEGER)")


@pytest.fixture(autouse=True)
def reset_crashy():
    CrashyWriter.armed = False
    CrashyWriter.runs = 0
    yield
    CrashyWriter.armed = False


def out_values(db):
    return sorted(r["v"] for r in db.query("SELECT v FROM out"))


def app_state(db):
    """Both tables an enactment of ``p`` writes: ``src`` (raw SQL) and
    ``out`` (procedure outputs)."""
    return sorted(r["v"] for r in db.query("SELECT v FROM src")), out_values(db)


def oracle_run(state=out_values):
    """The uninterrupted run's final output table (or ``state``)."""
    db = Database()
    make_app_tables(db)
    engine = build_engine(db)
    engine.run("p")
    return state(db)


class TestEngineRecovery:
    """Crash and resume on the SAME database object (workflow layer only)."""

    def crash_mid_procedure(self, db):
        engine = build_engine(db)
        CrashyWriter.armed = True
        with pytest.raises(SimulatedCrash):
            engine.run("p")
        CrashyWriter.armed = False
        return engine

    def test_crash_leaves_instance_running(self, db):
        make_app_tables(db)
        self.crash_mid_procedure(db)
        rows = db.query(f"SELECT status FROM {datamodel.T_PROCESS_INSTANCE}")
        assert rows[0]["status"] == datamodel.RUNNING

    def test_recover_completes_with_oracle_state(self, db):
        make_app_tables(db)
        self.crash_mid_procedure(db)
        engine2 = build_engine(db)  # fresh engine = restarted process
        recovered = engine2.recover()
        assert len(recovered) == 1
        execution = recovered[0]
        assert execution.instance.is_completed()
        # Compensation removed the crashed attempt's partial writes, so
        # the resumed run's output equals the uninterrupted oracle's.
        assert out_values(db) == oracle_run()

    def test_completed_activities_are_not_rerun(self, db):
        make_app_tables(db)
        self.crash_mid_procedure(db)
        engine2 = build_engine(db)
        engine2.recover()
        # src was seeded once pre-crash; the completed UpdateTable
        # activity is skipped on resume, not re-executed.
        assert len(db.query("SELECT v FROM src")) == 3
        # The procedure re-ran exactly once after the crash.
        assert CrashyWriter.runs == 2

    def test_variables_restored(self, db):
        make_app_tables(db)
        self.crash_mid_procedure(db)
        engine2 = build_engine(db)
        execution = engine2.recover()[0]
        assert execution.variables["k"] == 7  # assigned before the crash
        assert execution.variables["c"] == [{"c": 3}]  # assigned after resume

    def test_crashed_activity_instance_is_compensated_away(self, db):
        make_app_tables(db)
        self.crash_mid_procedure(db)
        engine2 = build_engine(db)
        engine2.recover()
        statuses = [
            r["status"]
            for r in db.query(f"SELECT status FROM {datamodel.T_ACTIVITY_INSTANCE}")
        ]
        assert statuses == [datamodel.COMPLETED] * 4

    def test_recover_without_resume_leaves_instances_running(self, db):
        make_app_tables(db)
        self.crash_mid_procedure(db)
        engine2 = build_engine(db)
        recovered = engine2.recover(resume=False)
        assert recovered[0].instance.is_running()
        # Compensation already happened: the partial rows are gone.
        assert out_values(db) == []

    def test_recover_is_idempotent(self, db):
        make_app_tables(db)
        self.crash_mid_procedure(db)
        engine2 = build_engine(db)
        engine2.recover()
        assert engine2.recover() == []  # nothing left in flight

    def test_recover_with_nothing_running_is_noop(self, db):
        make_app_tables(db)
        engine = build_engine(db)
        engine.run("p")
        assert engine.recover() == []

    def test_resumed_procedure_sees_raw_sql_seeds(self, db):
        """Rows a completed ``UpdateTable`` INSERTed stay visible to the
        enactment after recovery: raw-SQL inserts write durable
        ``createdBy`` provenance, which ``recover()`` rebuilds own-row
        visibility from (in-memory own_tids die with the process)."""

        class SumProc(Procedure):
            name = "summer"
            armed = True

            def run(self, env, inputs, read_write):
                if SumProc.armed:
                    raise SimulatedCrash("procedure.mid", 0)
                return [[{"v": sum(r["v"] for r in inputs[0])}]]

        def build(database):
            eng = WorkflowEngine(database)
            eng.procedures.register(SumProc(), singleton=False)
            eng.deploy(
                ProcessDefinition(
                    "sums",
                    seq(
                        UpdateTable(
                            "seed", "INSERT INTO src (v) VALUES (1), (2), (3)"
                        ),
                        CallProcedure(
                            "crunch", "summer", inputs=["src"], outputs=["out"]
                        ),
                    ),
                )
            )
            return eng

        make_app_tables(db)
        with pytest.raises(SimulatedCrash):
            build(db).run("sums")
        SumProc.armed = False
        recovered = build(db).recover()  # fresh engine = restarted process
        assert recovered[0].instance.is_completed()
        # The seeds were created after the process snapshot, so only the
        # provenance-backed own-row set makes them visible on resume.
        assert out_values(db) == [6]

    def test_ask_user_resumes_through_responder(self, db):
        db.execute("CREATE TABLE log (v TEXT)")
        engine = WorkflowEngine(db)

        class AskCrash(Procedure):
            name = "askcrash"
            armed = True

            def run(self, env, inputs, read_write):
                if AskCrash.armed:
                    raise SimulatedCrash("procedure.mid", 0)
                return []

        def build(database):
            eng = WorkflowEngine(database)
            eng.procedures.register(AskCrash(), singleton=False)
            definition = ProcessDefinition(
                "q",
                seq(
                    AskUser("ask", "who is it?", "who"),
                    CallProcedure("boom", "askcrash", inputs=[], outputs=[]),
                    UpdateTable("log_it", "INSERT INTO log (v) VALUES ($who)"),
                ),
                variables=[Variable("who", initial=None)],
            )
            eng.deploy(definition)
            return eng

        engine = build(db)
        with pytest.raises(SimulatedCrash):
            engine.run("q", responder=lambda prompt, var: "alice")
        AskCrash.armed = False
        engine2 = build(db)
        answered = []
        execution = engine2.recover(
            responders={"q": lambda prompt, var: answered.append(var) or "bob"}
        )[0]
        assert execution.instance.is_completed()
        # The pre-crash answer survived in the variable table: the AskUser
        # activity completed before the crash and is NOT re-asked.
        assert answered == []
        assert db.query("SELECT v FROM log")[0]["v"] == "alice"


class TestDurableRecovery:
    """Full stack: durable database + engine recovery across a "restart"."""

    def test_crash_recover_resume_equals_oracle(self, tmp_path):
        directory = tmp_path / "data"
        db, manager = open_durable(directory)
        make_app_tables(db)
        engine = build_engine(db)
        CrashyWriter.armed = True
        with pytest.raises(SimulatedCrash):
            engine.run("p")
        del db, manager, engine  # the process dies: nothing closes cleanly

        CrashyWriter.armed = False
        db2 = recover_db(directory)
        engine2 = build_engine(db2)  # deploy adopts the recovered catalog
        execution = engine2.recover()[0]
        assert execution.instance.is_completed()
        assert out_values(db2) == oracle_run()

    def test_crash_at_every_wal_append_of_a_run_resumes_to_the_oracle(
        self, tmp_path
    ):
        """Kill the enactment at each WAL append it makes, recover, resume:
        the tables end as the uninterrupted run's.  An activity's rows and
        their ``createdBy`` provenance are one commit, so no boundary
        keeps rows that ``recover()`` cannot compensate (the re-run would
        duplicate them)."""

        def open_app(directory, crash):
            db, manager = open_durable(directory, fsync=FSYNC_NEVER, crash=crash)
            make_app_tables(db)
            return manager, build_engine(db)

        counting = CrashInjector()
        manager, engine = open_app(tmp_path / "count", counting)
        setup = counting.counts["wal.append"]
        engine.run("p")
        appends = counting.counts["wal.append"] - setup
        manager.close()
        assert appends > 10
        expected = oracle_run(app_state)
        for at in range(setup, setup + appends):
            directory = tmp_path / f"crash-{at}"
            injector = CrashInjector(CrashPlan("wal.append", at=at))
            _manager, engine = open_app(directory, injector)
            with pytest.raises(SimulatedCrash):
                engine.run("p")
            db2 = recover_db(directory)
            engine2 = build_engine(db2)
            if not engine2.recover():
                engine2.run("p")  # died before the instance was durable
            assert app_state(db2) == expected, f"crash at wal.append #{at}"

    def test_redeploy_adopts_existing_catalog_rows(self, tmp_path):
        directory = tmp_path / "data"
        db, manager = open_durable(directory)
        make_app_tables(db)
        build_engine(db)
        manager.close()
        db2 = recover_db(directory)
        build_engine(db2)  # must not violate the unique name constraint
        processes = db2.query(f"SELECT name FROM {datamodel.T_PROCESS}")
        assert [r["name"] for r in processes] == ["p"]
        activities = db2.query(f"SELECT name FROM {datamodel.T_ACTIVITY}")
        assert len(activities) == 4
