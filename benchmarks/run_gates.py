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
    python benchmarks/run_gates.py --all           # every gate, stop on fail

Environment overrides in each gate are CI smoke scales; run the bench
files directly (or export the variables yourself) for full-scale numbers.
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

REPO = Path(__file__).resolve().parent.parent

COMPARE = {">=": operator.ge, "<=": operator.le, "<": operator.lt}


@dataclass(frozen=True)
class Gate:
    """One CI performance gate: tests around a benchmark and its check."""

    name: str
    description: str
    bench: str
    #: The bench writes ``benchmarks/BENCH_<result>.json``.
    result: str
    #: Key of the gate block inside that JSON.
    block: str
    #: Key (in the block) of the measured value.
    measured: str
    #: Key (in the block) of the limit, or the limit itself.
    limit: str | float
    #: How ``measured`` must compare to the limit: a ``COMPARE`` key.
    direction: str
    #: Verdict line after ``PASS: ``/``FAIL: ``; ``str.format`` fields are
    #: ``measured``, ``limit``, ``g`` (the block) and ``p`` (the payload).
    message: str
    #: Key (in the block) that must also be > 0: a run that observed
    #: nothing trivially costs nothing.
    nonzero: str = ""
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
            description="amortized lineage capture must stay under 10%",
            bench="benchmarks/bench_lineage.py",
            result="lineage",
            block="lineage_gate",
            measured="overhead_pct",
            limit="limit_pct",
            direction="<=",
            message=(
                "lineage capture (1/{g[sample]} sampling) on the aggregate "
                "bench at {g[rows]} rows: amortized {measured:+.2f}% over "
                "baseline (limit {limit:.1f}%; plain {g[per_query_ms]:.2f} ms, "
                "captured {g[captured_ms]:.2f} ms)"
            ),
            pre_tests=("tests/lineage", "tests/apps/test_telemetry_why.py"),
        ),
        Gate(
            name="durability",
            description="fsync=interval must stay within 25% of in-memory",
            bench="benchmarks/bench_durability.py",
            result="durability",
            block="overhead_gate",
            measured="overhead_pct",
            limit="required_max_pct",
            direction="<=",
            message=(
                "fsync={g[policy]} WAL overhead on the insert pipeline "
                "({p[batches]} x {p[batch_rows]} rows): {measured:.1f}% "
                "(max {limit:.1f}%; baseline {g[baseline_ms]:.1f} ms, "
                "durable {g[durable_ms]:.1f} ms)"
            ),
        ),
        Gate(
            name="fanout",
            description="fan-out at 256 clients delivers every frame, evicts nobody",
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
            block="data",
            measured="profiler_overhead",
            limit="budget",
            direction="<",
            nonzero="flamegraph_lines",
            message=(
                "profiler overhead on the Figure-8 pipeline at {g[hz]} Hz: "
                "{measured:+.1%} (budget {limit:.0%}; "
                "baseline {g[baseline_ms]:.1f} ms, "
                "profiled {g[profiled_ms]:.1f} ms, {g[samples]} samples, "
                "{g[flamegraph_lines]} flamegraph lines)"
            ),
            env={"BENCH_PROFILER_BATCH": "300", "BENCH_PROFILER_BATCHES": "4"},
            pre_tests=("tests/obs/test_profiler.py", "tests/obs/test_slowlog.py"),
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


def check_gate(gate: Gate) -> int:
    """Verdict from the bench's JSON alone: 0 PASS, 1 FAIL, 2 when the
    JSON or its gate block is missing."""
    path = REPO / "benchmarks" / f"BENCH_{gate.result}.json"
    if not path.exists():
        print(f"FAIL: {path} missing -- did {Path(gate.bench).stem} run?")
        return 2
    payload = json.loads(path.read_text(encoding="utf-8"))
    block = payload.get(gate.block)
    if not isinstance(block, dict):
        print(f"FAIL: {path} has no {gate.block} block")
        return 2
    measured = float(block[gate.measured])
    limit = float(block[gate.limit] if isinstance(gate.limit, str) else gate.limit)
    ok = COMPARE[gate.direction](measured, limit)
    if gate.nonzero:
        ok = ok and block.get(gate.nonzero, 0) > 0
    line = gate.message.format(measured=measured, limit=limit, g=block, p=payload)
    print(f"{'PASS' if ok else 'FAIL'}: {line}", flush=True)
    return 0 if ok else 1


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
        for gate in GATES.values():
            print(f"=== gate: {gate.name} ===", flush=True)
            code = run_gate(gate)
            if code:
                return code
        return 0
    if not args.gate:
        parser.error("pick a gate, --all, or --list")
    return (check_gate if args.check else run_gate)(GATES[args.gate])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
