"""Smoke test of the benchmark itself (not a tier-1 test of the program).

    python -m pytest benchmarks/e2e -q        # < 20 s at --scale 0.02

Checks that every workload and metric named in ``BENCHMARK.json`` is
emitted with its unit, that the same seed repeats the deterministic
counts, that no operation fails, that the span tree is well-formed and
attributes the Fig-8 wall, and that the oracle does fail on a broken
mirror.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SCALE = 0.02
#: Counts that must repeat exactly for one (seed, scale).
DETERMINISTIC = ("statements", "write_tuples", "vis_tuples", "deliveries", "queries")


def _run(workload: str, trace: int, tmp: Path, *extra: str) -> dict:
    out = tmp / f"{workload}-{trace}.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "5",
         "--scale", str(SCALE), "--trace", str(trace), "--out", str(out), *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    detail = json.loads(out.read_text(encoding="utf-8"))
    detail["line"] = json.loads(proc.stdout.strip().splitlines()[-1])
    return detail


@pytest.fixture(scope="module")
def runs(tmp_path_factory) -> dict:
    tmp = tmp_path_factory.mktemp("e2e")
    return {
        (workload, trace): _run(workload, trace, tmp)
        for workload in WORKLOADS
        for trace in (0, 1)
    }


@pytest.mark.parametrize("workload", WORKLOADS)
def test_result_line_meets_the_contract(runs, workload):
    for trace, declared in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
        line = runs[workload, trace]["line"]
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0
        assert line["attempted"] >= 1
        assert set(line["metrics"]) == {m["name"] for m in declared}
        for metric in declared:
            emitted = line["metrics"][metric["name"]]
            assert set(emitted) == {"value", "unit"}
            assert emitted["unit"] == metric["unit"]
            if trace == 0:
                assert emitted["value"] > 0, metric["name"]


def test_benchmark_json_matches_the_registry():
    import metrics
    import run

    assert tuple(WORKLOADS) == run.WORKLOADS
    assert SPEC["paths"] == ["benchmarks/e2e"]
    for declared, registry in (
        (SPEC["end_to_end"], metrics.END_TO_END),
        (SPEC["per_layer"], metrics.PER_LAYER),
    ):
        assert [(m["name"], m["unit"], m["better"]) for m in declared] == registry


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_counts(runs, workload):
    first, second = runs[workload, 0], runs[workload, 1]
    for key in DETERMINISTIC:
        assert first["counts"].get(key) == second["counts"].get(key), key
    # 5 measured repetitions against 2 + 2: operations per repetition agree.
    assert first["attempted"] * 4 == second["attempted"] * 5


@pytest.mark.parametrize("workload", WORKLOADS)
def test_span_tree_is_well_formed(workload, runs):
    import spans

    assert runs[workload, 1]["failed"] == 0
    trace = json.loads(
        (HERE / "results" / f"trace-{workload}.json").read_text(encoding="utf-8")
    )
    assert trace["meta"]["workload"] == workload
    assert spans.check_tree(trace["spans"]) == []
    # One operation id per operation: the bench.op spans of a repetition
    # are numbered 0, 1, 2, ... without repeats.
    first, last = trace["meta"]["reps"][-1]
    ops = [s[spans.OP] for s in trace["spans"][first:last] if s[spans.NAME] == "bench.op"]
    assert ops == list(range(len(ops))) and ops
    # Self times of the generator thread's tree sum to the repetition's wall.
    assert sum(runs[workload, 1]["layers"].values()) == pytest.approx(1.0, abs=0.01)


def test_fig8_wall_is_attributed_to_layers(runs):
    detail = runs["fig8_bulk", 1]
    assert detail["metrics"]["bench.unattributed_ratio"]["value"] <= 0.10
    # Two statements per batch, one broadcast each.
    assert (
        detail["metrics"]["sync.broadcast.calls"]["value"]
        == detail["counts"]["statements"]
    )


def test_workloads_stress_different_layers(runs):
    def value(workload: str, name: str) -> float:
        return runs[workload, 1]["metrics"][name]["value"]

    for workload in ("fig8_bulk", "wall_fanout"):
        for name in ("db.wal.appends_per_statement", "db.wal.bytes_per_tuple",
                     "db.wal.syncs", "db.recover_ms"):
            assert value(workload, name) == 0, (workload, name)
    for workload in ("fig8_bulk", "trickle_open", "wall_fanout"):
        assert value(workload, "ivm.delta_rows") == 0
    for workload in ("wall_fanout", "dashboard_mixed"):
        assert value(workload, "vis.display.frames") == 0
    assert value("dashboard_mixed", "ivm.delta_rows") > 0
    assert value("trickle_open", "db.wal.appends_per_statement") > 0
    assert value("wall_fanout", "sync.server.evictions") == 0


def test_oracle_fails_on_a_broken_mirror():
    import oracle
    from repro.db import INTEGER, Column, Database
    from repro.sync import NotificationCenter, SyncClient, SyncServer

    db = Database("oracle")
    db.create_table("pts", [Column("id", INTEGER, nullable=False)], primary_key="id")
    center = NotificationCenter(db)
    server = SyncServer(db, center, use_sockets=False)
    client = SyncClient(server)
    try:
        mirror = client.mirror("pts")
        db.insert_many("pts", [{"id": i} for i in range(10)])
        client.refresh("pts")
        assert oracle.mirror_equals_table(mirror, db.table("pts")) == []
        mirror.apply_delete(mirror.tids()[0])
        problems = oracle.mirror_equals_table(mirror, db.table("pts"))
        assert problems and "1 missing" in problems[0]
    finally:
        client.close()
        server.close()
        center.close()


def test_refuses_to_run_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark's own
    files there is no program to measure: non-zero exit, no result line."""
    import shutil

    bare = tmp_path / "bare"
    shutil.copytree(
        HERE, bare / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("results", "__pycache__", ".pytest_cache"),
    )
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "fig8_bulk",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout
