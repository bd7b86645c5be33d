"""``run_gates.py --check``: one verdict rule, one exit code per verdict."""

import json

import pytest

from benchmarks import run_gates

#: Hand-written ``overhead`` blocks against a 5% budget.
BLOCKS = {
    "PASS": {"overhead": 0.012, "q1": 0.004, "q3": 0.021},
    "FAIL": {"overhead": 0.101, "q1": 0.093, "q3": 0.108},
    # The pairs straddle the budget ...
    "UNRESOLVED": {"overhead": 0.031, "q1": -0.012, "q3": 0.064},
    # ... or sit under it, spread wider than it: a "-13.7% overhead".
    "UNRESOLVED-negative": {"overhead": -0.137, "q1": -0.198, "q3": -0.077},
}


@pytest.fixture
def bench_json(tmp_path, monkeypatch):
    (tmp_path / "benchmarks").mkdir()
    monkeypatch.setattr(run_gates, "REPO", tmp_path)

    def write(name, payload):
        path = tmp_path / "benchmarks" / f"BENCH_{name}.json"
        path.write_text(json.dumps(payload), encoding="utf-8")

    return write


@pytest.mark.parametrize("case", sorted(BLOCKS))
def test_check_prints_the_estimate_and_exits_by_verdict(case, bench_json, capsys):
    word = case.split("-")[0]
    block = BLOCKS[case] | {
        "pairs": 16,
        "budget": 0.05,
        "unit": "ms",
        "baseline_median": 20.0,
        "treated_median": 20.0 * (1 + BLOCKS[case]["overhead"]),
    }
    block["mde"] = block["q3"] - block["q1"]
    bench_json("profiler_overhead", {"overhead": block})
    code = run_gates.main(["--check", "profiler"])
    line = capsys.readouterr().out.strip()
    assert code == {"PASS": 0, "FAIL": 1, "UNRESOLVED": 3}[word]
    assert line.startswith(f"{word}: ")
    for part in ("median of 16 pairs", "[Q1, Q3] = [", "MDE ", "budget 5.0%",
                 "baseline 20.00 ms", "treated "):
        assert part in line


def test_a_missing_json_or_block_exits_two(bench_json, capsys):
    assert run_gates.main(["--check", "profiler"]) == 2
    bench_json("profiler_overhead", {"data": {}})
    assert run_gates.main(["--check", "profiler"]) == 2
    assert capsys.readouterr().out.count("FAIL: ") == 2


def test_a_threshold_gate_still_compares_one_value_with_its_limit(bench_json, capsys):
    gate = {"clients": 256, "broadcast_ms": 1.0, "deliveries_per_s": 1.0,
            "latency_p99_ms": 1.0}
    bench_json("fanout", {"rows": 200, "fanout_gate": gate | {"evictions": 0}})
    assert run_gates.main(["--check", "fanout"]) == 0
    bench_json("fanout", {"rows": 200, "fanout_gate": gate | {"evictions": 2}})
    assert run_gates.main(["--check", "fanout"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("PASS: ") and out[1].startswith("FAIL: ")


def test_every_overhead_gate_is_listed_and_measured_by_the_one_estimator():
    overhead = {name for name, gate in run_gates.GATES.items() if gate.pairs}
    assert overhead == {"profiler", "obs", "telemetry", "lineage", "durability"}
    assert len(run_gates.GATES) == 8
    for name in overhead:
        gate = run_gates.GATES[name]
        assert gate.pairs % 2 == 0 and gate.block == run_gates.OVERHEAD_BLOCK
        source = (run_gates.REPO / gate.bench).read_text(encoding="utf-8")
        assert f'GATES["{name}"].pairs' in source
        assert "paired_overhead(" in source
