"""Tripwires for what this tree deleted: ``repro.bench``, the best-pair
estimators, and the tracked ``benchmarks/results.txt``."""

import ast
import subprocess
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]
BENCHES = sorted((REPO / "benchmarks").glob("bench_*.py"))


def python_files():
    for top in ("src", "benchmarks", "tests", "examples"):
        yield from (REPO / top).rglob("*.py")


def test_nothing_imports_repro_bench_and_the_package_is_gone():
    assert not (REPO / "src" / "repro" / "bench").exists()
    offenders = []
    for path in python_files():
        text = path.read_text(encoding="utf-8")
        if "repro.bench" not in text and "import bench" not in text:
            continue  # nothing to parse for
        for node in ast.walk(ast.parse(text)):
            names = []
            if isinstance(node, ast.ImportFrom) and node.module:
                names = [node.module] + [f"{node.module}.{a.name}" for a in node.names]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            if any(n == "repro.bench" or n.startswith("repro.bench.") for n in names):
                offenders.append(f"{path.relative_to(REPO)}:{node.lineno}")
    assert not offenders


def test_no_bench_keeps_a_best_of_or_takes_a_minimum_over_ratios():
    """``min(p / b for b, p in pairs)`` keeps the luckiest pair: on two
    identical arms it reads a negative overhead.  The median lives in
    ``benchmarks/paired.py``, once."""
    assert len(BENCHES) == 18
    offenders = []
    for path in BENCHES:
        text = path.read_text(encoding="utf-8")
        if "_best_of" in text or "best_ratio" in text:
            offenders.append(f"{path.name}: best-of helper")
        for node in ast.walk(ast.parse(text)):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "min"
                and any(
                    isinstance(inner, ast.BinOp) and isinstance(inner.op, ast.Div)
                    for arg in node.args
                    for inner in ast.walk(arg)
                )
            ):
                offenders.append(f"{path.name}:{node.lineno}: min() over a ratio")
    assert not offenders


def test_results_txt_is_ignored_and_untracked():
    ignored = (REPO / ".gitignore").read_text(encoding="utf-8").splitlines()
    assert "benchmarks/results.txt" in ignored
    if (REPO / ".git").exists():
        tracked = subprocess.run(
            ["git", "ls-files", "benchmarks/results.txt"],
            cwd=REPO, capture_output=True, text=True, timeout=30,
        )
        assert tracked.stdout.strip() == ""
    conftest = (REPO / "benchmarks" / "conftest.py").read_text(encoding="utf-8")
    assert "results.txt" not in conftest
