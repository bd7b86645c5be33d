#!/usr/bin/env python3
"""Compare two result files of ``run.py --out`` row by row.

    python3 benchmarks/e2e/compare.py A.json B.json [--noise baseline.json]

One row per (end-to-end metric, workload).  ``change`` is B against A in
the metric's *worse* direction (positive = B is worse), as a share of A's
median; each row is judged against that metric's ``bound`` from
``BENCHMARK.json``:

* ``REGRESSED``  -- worse by more than the bound;
* ``unresolved`` -- inside the bound, but two runs of one commit (the A/A
  noise floor in ``results/baseline.json``) already differ by more than
  the bound on this row, so "no change" cannot be told from noise;
* ``improved`` / ``unchanged`` -- otherwise.

Exits non-zero if any row regressed or any operation failed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def compare(
    a: dict[str, Any],
    b: dict[str, Any],
    spec: dict[str, Any],
    noise: Optional[dict[str, float]] = None,
) -> list[dict[str, Any]]:
    """Rows of the comparison, in BENCHMARK.json order."""
    noise = noise or {}
    rows = []
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            before = a["workloads"][workload]["end_to_end"][name]
            after = b["workloads"][workload]["end_to_end"][name]
            change = (after["value"] - before["value"]) / before["value"]
            if metric["better"] == "higher":
                change = -change
            floor = abs(noise.get(f"{workload}/{name}", 0.0))
            if change > bound:
                verdict = "REGRESSED"
            elif floor > bound:
                verdict = "unresolved"
            elif change < -bound:
                verdict = "improved"
            else:
                verdict = "unchanged"
            rows.append(
                {
                    "workload": workload, "metric": name, "unit": before["unit"],
                    "a": before["value"], "a_spread": before["spread"],
                    "b": after["value"], "b_spread": after["spread"],
                    "change": change, "bound": bound, "noise": floor,
                    "verdict": verdict,
                }
            )
    return rows


def render(rows: list[dict[str, Any]]) -> str:
    def cell(value: float, spread: list[float]) -> str:
        return f"{value:.5g} [{spread[0]:.4g}..{spread[1]:.4g}]"

    lines = [
        f"{'workload':<16}{'metric':<22}{'A median [reps]':<32}{'B median [reps]':<32}"
        f"{'B worse by':>11}{'bound':>7}{'A/A':>7}  verdict"
    ]
    for row in rows:
        lines.append(
            f"{row['workload']:<16}{row['metric']:<22}"
            f"{cell(row['a'], row['a_spread']) + ' ' + row['unit']:<32}"
            f"{cell(row['b'], row['b_spread']):<32}"
            f"{row['change'] * 100:>+10.1f}%{row['bound'] * 100:>6.0f}%"
            f"{row['noise'] * 100:>6.1f}%  {row['verdict']}"
        )
    return "\n".join(lines)


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a")
    parser.add_argument("b")
    parser.add_argument("--noise", default=str(HERE / "results" / "baseline.json"),
                        help="file whose noise_floor marks unresolved rows")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    a, b = (json.loads(Path(p).read_text(encoding="utf-8")) for p in (args.a, args.b))
    noise_file = Path(args.noise)
    noise = (
        json.loads(noise_file.read_text(encoding="utf-8")).get("noise_floor", {})
        if noise_file.exists() else {}
    )
    rows = compare(a, b, spec, noise)
    print(render(rows))
    failed = sum(w["failed"] for run in (a, b) for w in run["workloads"].values())
    if failed:
        print(f"{failed} operation(s) failed")
    regressed = [row for row in rows if row["verdict"] == "REGRESSED"]
    return 1 if regressed or failed else 0


if __name__ == "__main__":
    sys.exit(main())
