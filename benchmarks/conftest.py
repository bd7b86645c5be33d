"""Shared benchmark fixtures.

``emit`` prints around pytest's output capture so the paper-style series
tables land in the terminal (and in ``bench_output.txt`` when tee'd) even
without ``-s``.

``point_db`` is the table the obs and telemetry overhead benches point-query.

``emit_json`` writes machine-readable ``BENCH_<name>.json`` files next to
this conftest (rows, series, units, git revision) so dashboards and
regression tooling can consume results without scraping the text tables.
"""

import json
import os
import random
import subprocess
from pathlib import Path
from typing import Any, Optional

import pytest

from repro.db import Column, Database
from repro.db.types import INTEGER, TEXT


def _git_rev() -> Optional[str]:
    """Short git revision of the working tree, or None outside a repo."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=Path(__file__).parent,
            capture_output=True,
            text=True,
            timeout=5,
        )
    except Exception:
        return None
    rev = proc.stdout.strip()
    return rev or None


@pytest.fixture(scope="session")
def emit_json():
    """Write ``benchmarks/BENCH_<name>.json`` for a bench result.

    Accepts a :class:`benchmarks.support.SeriesTable` (serialized with
    ``as_json``) or any JSON-ready mapping (stored under ``"data"``).
    Returns the written path.
    """
    rev = _git_rev()

    def _emit_json(
        name: str,
        result: Any,
        unit: str = "ms",
        extra: Optional[dict[str, Any]] = None,
    ) -> Path:
        path = Path(__file__).parent / f"BENCH_{name}.json"
        payload: dict[str, Any] = {"name": name, "unit": unit, "git_rev": rev}
        if hasattr(result, "as_json"):
            payload.update(result.as_json())
        else:
            payload["data"] = result
        if extra:
            payload.update(extra)
        path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
        return path

    return _emit_json


@pytest.fixture(scope="session")
def emit(pytestconfig):
    capman = pytestconfig.pluginmanager.getplugin("capturemanager")

    def _emit(text: str) -> None:
        if capman is not None:
            with capman.global_and_fixture_disabled():
                print(text)
        else:
            print(text)

    return _emit


@pytest.fixture(scope="module")
def point_db():
    """``emp(id, dept, salary)`` with ``BENCH_SQL_ROWS`` rows (default 100k;
    CI smoke runs small)."""
    rng = random.Random(7)
    db = Database()
    db.create_table(
        "emp",
        [
            Column("id", INTEGER, nullable=False),
            Column("dept", TEXT),
            Column("salary", INTEGER),
        ],
        primary_key="id",
    )
    db.insert_many(
        "emp",
        [
            {"id": i, "dept": f"d{rng.randrange(20)}", "salary": rng.randrange(100_000)}
            for i in range(int(os.environ.get("BENCH_SQL_ROWS", "100000")))
        ],
    )
    return db
