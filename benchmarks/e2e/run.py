#!/usr/bin/env python3
"""One layered commit-to-frame benchmark: four workloads, one command.

Two ways to run it (from the repository root)::

    python3 benchmarks/e2e/run.py [--seed N] [--seconds S | --scale X]
                                  [--traced] [--aa] [--out F]
    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1

Without ``--workload`` it runs the whole set, each workload in a fresh
subprocess, prints every metric by name with unit, sample count and
spread, and exits non-zero if any operation failed.  With ``--workload``
it runs that one workload in this process and prints, as the last line of
standard output, one JSON object ``{"correct", "attempted", "failed",
"metrics"}`` -- the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.

A run is 1 warm-up repetition plus 5 measured ones (``--trace 1``: 1
warm-up, 2 untraced, 2 traced).  Each repetition is a fresh deployment
doing a *fixed amount of work*; ``--seconds`` only sizes that work
(``--scale`` = seconds / 40), it is not a stopwatch.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import importlib.util
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RESULTS = HERE / "results"

WORKLOADS = ("fig8_bulk", "trickle_open", "wall_fanout", "dashboard_mixed")
#: ``--seconds`` at which ``--scale`` is 1.0 (the README's full sizes).
FULL_SECONDS = 40.0
MEASURED_REPS = 5
TRACED_REPS = 2


def _spec() -> dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# One workload, in this process
def run_one(args: argparse.Namespace) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"{ROOT / 'src' / 'repro'}: the program is not in this checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    started = time.perf_counter()
    module = importlib.import_module(args.workload)
    import_s = time.perf_counter() - started

    import harness
    import metrics
    from repro.obs import OBS
    from spans import Tracer

    # The host's speed while the import ran, from the slices just after it.
    import_slowdown = (
        statistics.median(harness.calibration_slice() for _ in range(200))
        / harness.REFERENCE_SLICE_S
    )

    if OBS.enabled:
        print("the program's own tracer must stay off", file=sys.stderr)
        return 2
    inputs = module.make_inputs(args.seed, args.scale)
    # The generator's inputs are not the program's heap: keep the collector
    # from traversing them during every collection of a repetition.
    gc.collect()
    gc.freeze()
    workdir = RESULTS / f"work-{os.getpid()}"
    off, on = Tracer(False), Tracer(True)

    def repetition(tracer: Tracer) -> Any:
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        try:
            return module.run_rep(inputs, tracer, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
            # A repetition starts from the heap the previous one started
            # from, not from its dead deployment's uncollected cycles.
            gc.collect()

    warm = repetition(off)
    detail: dict[str, Any] = {}
    if args.trace:
        untraced = [repetition(off) for _ in range(TRACED_REPS)]
        traced, bounds = [], []
        for _ in range(TRACED_REPS):
            first = len(on)
            traced.append(repetition(on))
            bounds.append((first, len(on)))
        measured = untraced + traced
        values = metrics.per_layer(warm, untraced, traced, on, bounds)
        detail["layers"] = metrics.layer_shares(on, bounds[-1])
        on.dump(
            RESULTS / f"trace-{args.workload}.json",
            {"workload": args.workload, "seed": args.seed, "scale": args.scale,
             "reps": bounds},
        )
    else:
        measured = [repetition(off) for _ in range(MEASURED_REPS)]
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values = metrics.end_to_end(import_s, import_slowdown, measured, peak_mb)

    attempted = sum(rep.attempted for rep in measured)
    failed = sum(rep.attempted if rep.problems else rep.failed for rep in measured)
    problems = [p for rep in [warm] + measured for p in rep.problems]

    print(f"# {args.workload}  seed={args.seed} scale={args.scale:.3f} "
          f"trace={args.trace}  attempted={attempted} failed={failed}")
    for name, metric in values.items():
        spread = metric.get("spread")
        around = f"  [{spread[0]:.6g} .. {spread[1]:.6g}]" if spread else ""
        raw = f"  raw {metric['raw']:.6g}" if "raw" in metric else ""
        print(f"{name:<44}{metric['value']:>16.6g} {metric['unit']:<9}"
              f" n={metric['n']}{around}{raw}")
    for problem in problems:
        print(f"PROBLEM: {problem}")

    if args.out:
        detail.update(
            workload=args.workload, seed=args.seed, scale=args.scale,
            trace=args.trace, metrics=values, attempted=attempted, failed=failed,
            problems=problems, counts=measured[0].counts,
        )
        Path(args.out).write_text(json.dumps(detail, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metric["value"], "unit": metric["unit"]}
            for name, metric in values.items()
        },
    }))
    return 0 if failed == 0 and not problems else 1


# ---------------------------------------------------------------------------
# The whole set, one subprocess per workload
def _child(workload: str, args: argparse.Namespace, trace: int) -> dict[str, Any]:
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"detail-{os.getpid()}.json"
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(trace), "--out", str(out),
    ]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    sys.stdout.write(proc.stdout.rsplit("\n", 2)[0] + "\n")
    sys.stdout.flush()
    if not out.exists():
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload}: no result (exit code {proc.returncode})")
    detail = json.loads(out.read_text(encoding="utf-8"))
    out.unlink()
    return detail


def run_set(args: argparse.Namespace) -> dict[str, Any]:
    """Run every workload untraced (and traced with ``--traced``)."""
    result: dict[str, Any] = {
        "meta": environment(), "seed": args.seed, "seconds": args.seconds,
        "workloads": {},
    }
    for workload in WORKLOADS:
        detail = _child(workload, args, 0)
        entry = {
            "end_to_end": detail["metrics"],
            "attempted": detail["attempted"],
            "failed": detail["failed"],
            "failed_ratio": detail["failed"] / detail["attempted"],
            "problems": detail["problems"],
            "counts": detail["counts"],
        }
        if args.traced:
            traced = _child(workload, args, 1)
            entry["per_layer"] = traced["metrics"]
            entry["layers"] = traced["layers"]
            entry["failed"] += traced["failed"]
            entry["problems"] += traced["problems"]
        result["workloads"][workload] = entry
    return result


def environment() -> dict[str, Any]:
    try:
        rev: Optional[str] = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=5,
        ).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        rev = None
    return {
        "git_rev": rev,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "orjson": importlib.util.find_spec("orjson") is not None,
    }


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=None,
                        help="sizes the fixed work (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--scale", type=float, default=None,
                        help=f"work size; 1.0 is --seconds {FULL_SECONDS:g}")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true",
                        help="whole set: also run each workload traced")
    parser.add_argument("--aa", action="store_true",
                        help="whole set twice; store the noise floor in results/baseline.json")
    parser.add_argument("--out", help="write the detailed result as JSON")
    args = parser.parse_args(argv)
    if args.scale is not None:
        args.seconds = args.scale * FULL_SECONDS
    elif args.seconds is None:
        args.seconds = float(_spec()["run_seconds"])
    args.scale = args.seconds / FULL_SECONDS

    if args.workload:
        return run_one(args)

    import compare

    first = run_set(args)
    failed = sum(w["failed"] for w in first["workloads"].values())
    if args.out:
        Path(args.out).write_text(json.dumps(first, indent=1) + "\n", encoding="utf-8")
    if args.aa:
        second = run_set(args)
        failed += sum(w["failed"] for w in second["workloads"].values())
        rows = compare.compare(first, second, _spec())
        print(compare.render(rows))
        baseline = dict(first, noise_floor={
            f"{row['workload']}/{row['metric']}": row["change"] for row in rows
        }, second_run={
            name: entry["end_to_end"] for name, entry in second["workloads"].items()
        })
        (RESULTS / "baseline.json").write_text(
            json.dumps(baseline, indent=1) + "\n", encoding="utf-8"
        )
        if any(row["verdict"] == "REGRESSED" for row in rows):
            failed += 1
    for name, entry in first["workloads"].items():
        print(f"{name}: failed_ratio = {entry['failed_ratio']:.6f} "
              f"({entry['failed']}/{entry['attempted']})")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
