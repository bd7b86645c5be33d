#!/usr/bin/env python3
"""Run-to-run spread of every end-to-end metric, the way the driver takes it.

    python3 benchmarks/e2e/spread.py [--runs 10] [--seed 100] [--workload W ...]

Runs each workload ``--runs`` times, each time with another seed, and
prints for every (workload, metric) the median and the distance between
the first and third quartile (``statistics.quantiles(values, n=4)``) as a
share of the median, beside the metric's bound from ``BENCHMARK.json``
and the same spread of the raw, unscaled values.  A spread above a third
of its bound is marked ``!``; above the bound, ``!!`` (and the exit code
is 1, except for ``setup_s``, whose spread the driver does not gate).
The rows of the workloads run are merged into ``results/spread.json``.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def quartile_spread(values: list[float]) -> float:
    first, _, third = statistics.quantiles(values, n=4)
    return (third - first) / statistics.median(values)


def main(argv: Optional[list[str]] = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=100, help="first seed")
    parser.add_argument("--workload", action="append", choices=names)
    args = parser.parse_args(argv)

    out = HERE / "results" / "spread.json"
    table: dict[str, dict[str, dict[str, float]]] = (
        json.loads(out.read_text(encoding="utf-8"))["table"] if out.exists() else {}
    )
    refused = False
    for workload in args.workload or names:
        values: dict[str, list[float]] = {}
        raws: dict[str, list[float]] = {}
        seconds = []
        for run in range(args.runs):
            started = time.monotonic()
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(args.seed + run),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=900,
            )
            seconds.append(time.monotonic() - started)
            if proc.returncode:
                sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
                return 1
            lines = proc.stdout.strip().splitlines()
            for name, metric in json.loads(lines[-1])["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            for line in lines:
                found = re.match(r"(\S+)\s.*\braw (\S+)$", line)
                if found:
                    raws.setdefault(found.group(1), []).append(float(found.group(2)))
        print(f"{workload}: {args.runs} runs, {statistics.median(seconds):.1f} s each "
              f"(longest {max(seconds):.1f} s)")
        table[workload] = {}
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            spread = quartile_spread(values[name])
            flag = "!!" if spread > bound else "!" if spread > bound / 3 else ""
            refused |= flag == "!!" and name != "setup_s"
            table[workload][name] = {
                "median": statistics.median(values[name]), "spread": spread,
                "raw_spread": quartile_spread(raws[name]), "bound": bound,
                "runs": args.runs, "first_seed": args.seed,
            }
            print(f"  {name:<24}{statistics.median(values[name]):>12.5g} "
                  f"{metric['unit']:<9} spread {spread * 100:5.1f}% "
                  f"(raw {quartile_spread(raws[name]) * 100:5.1f}%)  "
                  f"bound {bound * 100:.0f}% {flag}", flush=True)
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"table": table}, indent=1) + "\n", encoding="utf-8")
    return 1 if refused else 0


if __name__ == "__main__":
    sys.exit(main())
