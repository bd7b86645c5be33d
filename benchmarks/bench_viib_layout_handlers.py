"""Section VII-B: layout procedure delta handlers.

The paper's claims:

* the initial LinLog computation "can take several minutes to converge",
  but streaming positions "every second or at every iteration... allows
  the system to appear reactive";
* the incremental handler places new nodes near laid-out neighbors and
  "terminates much faster since most of the nodes will only move
  slightly... remarkably stable and fast".

We measure initial vs incremental convergence (iterations and time) on
the co-publication network and assert the speedup.
"""

import pytest

from repro.apps import copub
from benchmarks.support import SeriesTable, Timer, speedup
from repro.vis import LinLogLayout


def make_graph(n_authors=800, n_pubs=650, seed=21):
    generator = copub.CopublicationGenerator(
        n_authors=n_authors, n_teams=40, seed=seed
    )
    publications = generator.take(n_pubs)
    return generator, copub.build_graph(publications)


@pytest.fixture(scope="module")
def handler_results(emit, emit_json):
    generator, graph = make_graph()
    layout = LinLogLayout(graph, seed=3)
    with Timer() as t_initial:
        initial = layout.run(max_iterations=600)
    # Deltas: three rounds of new publications.
    rounds = []
    for round_no in range(3):
        fresh = generator.take(8)
        before = set(graph.nodes())
        copub.build_graph(fresh, graph=graph)
        added = [n for n in graph.nodes() if n not in before]
        with Timer() as t_incr:
            incremental = layout.update(added_nodes=added, max_iterations=600)
        rounds.append((len(added), incremental, t_incr.ms))
    table = SeriesTable("round", ["added_nodes", "iterations", "time_ms"])
    table.add(0, {"added_nodes": len(graph), "iterations": initial.iterations,
                  "time_ms": t_initial.ms})
    for i, (added, result, ms) in enumerate(rounds, start=1):
        table.add(i, {"added_nodes": added, "iterations": result.iterations,
                      "time_ms": ms})
    emit("\n== Section VII-B: initial layout (round 0) vs incremental delta handler ==")
    emit(table.format())
    emit_json("viib_layout_handlers", table)
    return initial, t_initial.ms, rounds


def test_viib_incremental_converges_much_faster(handler_results, benchmark, emit):
    initial, initial_ms, rounds = handler_results
    mean_incr_iters = sum(r.iterations for _a, r, _ms in rounds) / len(rounds)
    factor = initial.iterations / max(mean_incr_iters, 1)
    emit(f"iteration speedup (initial/incremental): {factor:.1f}x")
    assert factor > 3.0, "incremental relayout should converge much faster"
    mean_incr_ms = sum(ms for _a, _r, ms in rounds) / len(rounds)
    assert speedup(initial_ms, mean_incr_ms) > 2.0

    # Headline kernel for pytest-benchmark: one incremental update.
    generator, graph = make_graph(n_authors=300, n_pubs=250, seed=5)
    layout = LinLogLayout(graph, seed=5)
    layout.run(max_iterations=300)

    def incremental_update():
        fresh = generator.take(4)
        before = set(graph.nodes())
        copub.build_graph(fresh, graph=graph)
        added = [n for n in graph.nodes() if n not in before]
        return layout.update(added_nodes=added, max_iterations=300)

    benchmark.pedantic(incremental_update, rounds=3, iterations=1)


def test_viib_all_incremental_rounds_converge(handler_results, benchmark):
    _initial, _ms, rounds = handler_results
    assert all(result.converged for _a, result, _ms in rounds)

    def noop_layout():
        graph = copub.build_graph(
            copub.CopublicationGenerator(n_authors=120, n_teams=10, seed=6).take(80)
        )
        return LinLogLayout(graph, seed=6).run(max_iterations=80)

    benchmark.pedantic(noop_layout, rounds=2, iterations=1)


def test_viib_streaming_keeps_system_reactive(benchmark, emit):
    """Positions stream to the DB during the run: display-visible frames
    exist long before convergence (the paper's reactivity point)."""
    from repro.db import Database
    from repro.vis import VisualAttributesStore

    _generator, graph = make_graph(n_authors=300, n_pubs=250, seed=8)
    db = Database()
    store = VisualAttributesStore(db)
    frames = []

    def stream(iteration, positions, energy):
        if iteration % 10 == 0:
            store.write_positions(1, positions)
            frames.append(iteration)

    layout = LinLogLayout(graph, seed=8)
    result = benchmark.pedantic(
        lambda: layout.run(max_iterations=200, on_iteration=stream),
        rounds=1,
        iterations=1,
    )
    assert frames, "no intermediate frames streamed"
    assert frames[0] <= 10  # a frame existed almost immediately
    stored = len(store.read(1))
    assert stored == len(graph)
    emit(f"streamed {len(frames)} frames during {result.iterations} iterations")
