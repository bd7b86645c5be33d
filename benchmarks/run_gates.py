"""Unified bench-gate runner: one registry, one CI job matrix.

Every performance gate in CI has the same shape -- run a benchmark that
writes ``BENCH_<name>.json``, then re-read the JSON and fail on
regression (a separate entry point, so the artifact uploads even when
the gate fails).  This driver owns that shape; a gate's threshold is data
on its ``GATES`` entry, and adding gate N+1 is one entry plus a line in
the CI matrix.

    python benchmarks/run_gates.py fanout          # one gate: bench + check
    python benchmarks/run_gates.py --check fanout  # verdict from the JSON only
    python benchmarks/run_gates.py --list          # enumerate gates
    python benchmarks/run_gates.py --all           # every gate, stop on FAIL

Environment overrides in each gate are CI smoke scales; run the bench
files directly (or export the variables yourself) for full-scale numbers.

Two kinds of gate.  A *threshold* gate compares one measured value with a
limit.  An *overhead* gate (``pairs`` set) reads the block
``benchmarks/paired.py`` emits -- the median overhead over its pairs, the
quartiles, the minimum detectable effect, both arm medians -- under the
one rule of ``overhead_verdict``: a gate is never PASS on a reading it
could not have failed; such a reading is UNRESOLVED (exit 3).
"""

from __future__ import annotations

import argparse
import json
import operator
import os
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

REPO = Path(__file__).resolve().parent.parent

COMPARE = {">=": operator.ge, "<=": operator.le}

#: Key of the block every overhead bench emits (``PairedOverhead.block``).
OVERHEAD_BLOCK = "overhead"

#: Verdict -> exit code.  2 is a missing JSON or block.
EXIT = {"PASS": 0, "FAIL": 1, "UNRESOLVED": 3}


@dataclass(frozen=True)
class Gate:
    """One CI performance gate: tests around a benchmark and its check."""

    name: str
    description: str
    bench: str
    #: The bench writes ``benchmarks/BENCH_<result>.json``.
    result: str
    #: Overhead gates: how many back-to-back pairs of its two arms the
    #: bench runs (it reads the number from here); the verdict comes from
    #: the JSON's ``overhead`` block.  0 on a threshold gate, which is
    #: described by the five fields below instead.
    pairs: int = 0
    #: Key of the gate block inside that JSON.
    block: str = OVERHEAD_BLOCK
    #: Key (in the block) of the measured value.
    measured: str = ""
    #: Key (in the block) of the limit, or the limit itself.
    limit: str | float = 0.0
    #: How ``measured`` must compare to the limit: a ``COMPARE`` key.
    direction: str = ""
    #: Verdict line after ``PASS: ``/``FAIL: ``; ``str.format`` fields are
    #: ``measured``, ``limit``, ``g`` (the block) and ``p`` (the payload).
    message: str = ""
    #: CI-scale environment overrides for the bench run.
    env: dict[str, str] = field(default_factory=dict)
    #: Correctness suites that must pass before the bench runs (the
    #: gate is meaningless if the subsystem is wrong).
    pre_tests: tuple[str, ...] = ()
    #: Oracles that run after the bench (e.g. property-based equivalence).
    post_tests: tuple[str, ...] = ()


GATES: dict[str, Gate] = {
    gate.name: gate
    for gate in (
        Gate(
            name="batching",
            description="batched propagation must beat immediate by 3x",
            bench="benchmarks/bench_policy_batching.py",
            result="policy_batching",
            block="throughput_gate",
            measured="speedup",
            limit="required",
            direction=">=",
            message=(
                "threshold-256 vs immediate at {g[clients]} clients over "
                "{p[rows]} rows: {measured:.2f}x (required {limit:.1f}x; "
                "immediate {g[immediate_ms]:.1f} ms, "
                "batched {g[threshold_256_ms]:.1f} ms)"
            ),
            env={"BENCH_BATCH_ROWS": "2000"},
        ),
        Gate(
            name="columnar",
            description="vectorized 1M-row aggregate must beat row by 10x",
            bench="benchmarks/bench_columnar.py",
            result="columnar",
            block="columnar_gate",
            measured="speedup",
            limit="required",
            direction=">=",
            message=(
                "vectorized {g[query]} at {g[rows]} rows: {measured:.2f}x over "
                "the row engine (required {limit:.1f}x; row {g[row_ms]:.1f} ms, "
                "vectorized {g[vector_ms]:.1f} ms)"
            ),
            post_tests=("tests/db/test_vector_oracle.py",),
        ),
        Gate(
            name="lineage",
            description=(
                "a captured query's cost over a plain one (10% amortized "
                "over the sampling period)"
            ),
            bench="benchmarks/bench_lineage.py",
            result="lineage",
            pairs=8,
            pre_tests=("tests/lineage", "tests/apps/test_telemetry_why.py"),
        ),
        Gate(
            name="durability",
            description="fsync=interval must stay within 25% of in-memory on fig-8",
            bench="benchmarks/bench_durability.py",
            result="durability",
            pairs=16,
        ),
        Gate(
            name="fanout",
            description="fan-out at 256 clients delivers every frame, collapses nobody",
            bench="benchmarks/bench_fanout.py",
            result="fanout",
            block="fanout_gate",
            measured="evictions",
            limit=0,
            direction="<=",
            message=(
                "broadcast to {g[clients]} clients over {p[rows]} notifications: "
                "{measured:.0f} evictions (max {limit:.0f}; "
                "broadcast {g[broadcast_ms]:.1f} ms, "
                "{g[deliveries_per_s]:,.0f} deliveries/s, "
                "p99 {g[latency_p99_ms]:.2f} ms)"
            ),
            env={
                "BENCH_FANOUT_CLIENTS": "256",
                "BENCH_FANOUT_ROWS": "200",
                "BENCH_FANOUT_PROBES": "10",
            },
        ),
        Gate(
            name="profiler",
            description="continuous profiling must cost under 5% on fig-8",
            bench="benchmarks/bench_profiler_overhead.py",
            result="profiler_overhead",
            pairs=16,
            env={"BENCH_PROFILER_BATCH": "300", "BENCH_PROFILER_BATCHES": "4"},
            pre_tests=("tests/obs/test_profiler.py", "tests/obs/test_slowlog.py"),
        ),
        Gate(
            name="obs",
            description="the statement layer, tracing off, must cost under 5 us",
            bench="benchmarks/bench_obs_overhead.py",
            result="obs_overhead",
            pairs=8,
            env={"BENCH_SQL_ROWS": "20000"},
        ),
        Gate(
            name="telemetry",
            description="the telemetry sink must cost under 5% on top of tracing",
            bench="benchmarks/bench_telemetry_overhead.py",
            result="telemetry_overhead",
            pairs=16,
            env={"BENCH_SQL_ROWS": "20000"},
        ),
    )
}


def _run(cmd: list[str], env: dict[str, str] | None = None) -> int:
    merged = dict(os.environ)
    merged["PYTHONPATH"] = str(REPO / "src")
    if env:
        merged.update(env)
    print(f"+ {' '.join(cmd)}", flush=True)
    return subprocess.run(cmd, cwd=REPO, env=merged).returncode


def run_gate(gate: Gate) -> int:
    py = sys.executable
    for suite in gate.pre_tests:
        code = _run([py, "-m", "pytest", suite, "-x", "-q"])
        if code:
            return code
    code = _run(
        [py, "-m", "pytest", gate.bench, "-x", "-q", "--benchmark-disable"],
        env=gate.env,
    )
    if code:
        return code
    for suite in gate.post_tests:
        code = _run([py, "-m", "pytest", suite, "-x", "-q"])
        if code:
            return code
    return check_gate(gate)


def overhead_verdict(block: dict[str, Any]) -> str:
    """The one rule for a paired-overhead block (``benchmarks/paired.py``).

    The straddle test comes first: two identical arms can put their median
    over a small budget by chance, and an A/A run must never FAIL."""
    budget = block["budget"]
    if block["q1"] <= budget <= block["q3"]:
        return "UNRESOLVED"  # the pairs straddle the budget
    if block["overhead"] > budget:
        return "FAIL"
    if block["mde"] > budget:
        return "UNRESOLVED"  # under it, on pairs that could not have shown it
    return "PASS"


def overhead_line(b: dict[str, Any]) -> str:
    return (
        f"overhead {b['overhead']:+.1%} (median of {b['pairs']} pairs), "
        f"[Q1, Q3] = [{b['q1']:+.1%}, {b['q3']:+.1%}], MDE {b['mde']:.1%}, "
        f"budget {b['budget']:.1%}; baseline {b['baseline_median']:.2f} {b['unit']}, "
        f"treated {b['treated_median']:.2f} {b['unit']}"
    )


def check_gate(gate: Gate) -> int:
    """Verdict from the bench's JSON alone: 0 PASS, 1 FAIL, 3 UNRESOLVED,
    2 when the JSON or its gate block is missing."""
    path = REPO / "benchmarks" / f"BENCH_{gate.result}.json"
    if not path.exists():
        print(f"FAIL: {path} missing -- did {Path(gate.bench).stem} run?")
        return 2
    payload = json.loads(path.read_text(encoding="utf-8"))
    block = payload.get(gate.block)
    if not isinstance(block, dict):
        print(f"FAIL: {path} has no {gate.block} block")
        return 2
    if gate.pairs:
        verdict = overhead_verdict(block)
        line = f"{gate.description}: {overhead_line(block)}"
    else:
        measured = float(block[gate.measured])
        limit = float(block[gate.limit] if isinstance(gate.limit, str) else gate.limit)
        verdict = "PASS" if COMPARE[gate.direction](measured, limit) else "FAIL"
        line = gate.message.format(measured=measured, limit=limit, g=block, p=payload)
    print(f"{verdict}: {line}", flush=True)
    return EXIT[verdict]


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("gate", nargs="?", choices=sorted(GATES))
    parser.add_argument("--list", action="store_true", help="enumerate gates")
    parser.add_argument("--all", action="store_true", help="run every gate")
    parser.add_argument(
        "--check",
        action="store_true",
        help="only re-read the gate's BENCH_*.json and print the verdict",
    )
    args = parser.parse_args(argv)
    if args.list:
        for gate in GATES.values():
            print(f"{gate.name:12} {gate.description}")
        return 0
    if args.all:
        worst = 0
        for gate in GATES.values():
            print(f"=== gate: {gate.name} ===", flush=True)
            code = run_gate(gate)
            if code not in (0, EXIT["UNRESOLVED"]):
                return code
            worst = max(worst, code)  # an unresolved gate hides no later one
        return worst
    if not args.gate:
        parser.error("pick a gate, --all, or --list")
    return (check_gate if args.check else run_gate)(GATES[args.gate])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
