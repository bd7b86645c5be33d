"""Ablation A4: update-propagation policy costs.

Design choice under test: the UP scopes of Section V let a designer pick
*where* deltas go.  Each scope has a different cost profile:

* ``ra``   -- handler runs immediately per statement (freshest, priciest);
* ``ta-rp``-- finished-handler runs per statement while the process lives;
* ``fa-rp``-- near-free bookkeeping now, cost deferred to the next
              activity start (fresh snapshot);
* no UP    -- ignore (the default; zero cost).

We stream insert statements at a running process under each policy and
report per-statement cost.
"""

import pytest

from benchmarks.support import SeriesTable, Timer
from repro.db import Column, Database
from repro.db.types import INTEGER
from repro.workflow import (
    CallProcedure,
    ProcessDefinition,
    Procedure,
    PropagationManager,
    RelationDecl,
    UpdatePropagation,
    WorkflowEngine,
    seq,
)

STATEMENTS = 100
ROWS_PER_STATEMENT = 25


class CountingProcedure(Procedure):
    """Handlers with a small, realistic cost (touch every delta row)."""

    def __init__(self, name):
        self.name = name
        self.handled_rows = 0

    def run(self, env, inputs, read_write):
        return []

    def on_delta_running(self, env, delta):
        self.handled_rows += sum(1 for _ in delta.inserted)
        return None

    def on_delta_finished(self, env, delta):
        self.handled_rows += sum(1 for _ in delta.inserted)
        return None


def build(scope):
    """Deploy one process with the given UP scope (or none)."""
    db = Database()
    db.create_table("src", [Column("id", INTEGER), Column("v", INTEGER)])
    engine = WorkflowEngine(db)
    PropagationManager(engine)  # attaches itself to the engine
    proc = CountingProcedure(f"proc_{scope or 'none'}")
    engine.procedures.register(proc)
    propagations = []
    if scope is not None:
        propagations = [UpdatePropagation("src", "work", scope)]
    definition = ProcessDefinition(
        "p",
        seq(CallProcedure("work", proc.name, inputs=["src"], detached=True)),
        relations=[RelationDecl("src")],
        procedures=[proc.name],
        propagations=propagations,
    )
    engine.deploy(definition)
    execution = engine.run("p")
    return db, engine, execution, proc


def stream(db, n_statements, start_id=0):
    next_id = start_id
    for _ in range(n_statements):
        db.insert_many(
            "src",
            [{"id": next_id + i, "v": i} for i in range(ROWS_PER_STATEMENT)],
        )
        next_id += ROWS_PER_STATEMENT
    return next_id


POLICIES = (None, "fa-rp", "ta-rp", "ra")


@pytest.fixture(scope="module")
def propagation_table(emit, emit_json):
    # Warm-up run to take import/alloc cold costs off the first policy.
    warm_db, warm_engine, warm_exec, _warm = build("ra")
    stream(warm_db, 10)
    warm_engine.close(warm_exec)

    table = SeriesTable("policy_idx", ["per_stmt_us", "handled_rows"])
    names = []
    for index, scope in enumerate(POLICIES):
        db, engine, execution, proc = build(scope)
        # ta-rp needs the activity finished: finish it for that policy.
        if scope == "ta-rp":
            engine.finish_activity(execution.detached_running[0].instance.id)
        with Timer() as timer:
            stream(db, STATEMENTS)
        engine.close(execution)
        names.append(scope or "none")
        table.add(
            index,
            {
                "per_stmt_us": timer.ms / STATEMENTS * 1000.0,
                "handled_rows": float(proc.handled_rows),
            },
        )
    emit(
        "\n== Ablation A4: per-statement cost under each UP policy ==\n"
        f"policies by index: {dict(enumerate(names))}"
    )
    emit(table.format(unit="us per statement / rows"))
    emit_json("ablation_propagation", table, unit="us per statement / rows")
    return table, names


def test_a4_default_ignore_is_cheapest(propagation_table, benchmark):
    table, names = propagation_table
    db, engine, execution, _proc = build(None)
    state = {"next": 0}

    def kernel():
        state["next"] = stream(db, 5, state["next"])

    benchmark(kernel)
    engine.close(execution)
    costs = dict(zip(names, table.series("per_stmt_us")))
    assert costs["none"] <= costs["ra"]
    assert costs["none"] <= costs["ta-rp"]


def test_a4_ra_and_tarp_handle_every_row(propagation_table, benchmark):
    table, names = propagation_table
    benchmark(lambda: None)
    handled = dict(zip(names, table.series("handled_rows")))
    expected = STATEMENTS * ROWS_PER_STATEMENT
    assert handled["ra"] == expected
    assert handled["ta-rp"] == expected
    assert handled["none"] == 0
    assert handled["fa-rp"] == 0  # cost deferred, not incurred per row


def test_a4_farp_bookkeeping_is_near_free(propagation_table, benchmark):
    table, names = propagation_table
    db, engine, execution, _proc = build("fa-rp")
    state = {"next": 0}

    def kernel():
        state["next"] = stream(db, 5, state["next"])

    benchmark(kernel)
    engine.close(execution)
    costs = dict(zip(names, table.series("per_stmt_us")))
    # fa-rp only flags the execution: within noise of the no-UP baseline.
    assert costs["fa-rp"] < max(costs["ra"], costs["ta-rp"]) * 2
