"""What the slice benches share: timing, result tables, and shape checks.

The paper's evaluation reports per-step times against growing input sizes
(Figure 8) and convergence behavior (Section VII-B).  This module gives
every bench the same vocabulary: a :class:`Timer`, a :class:`SeriesTable`
that prints paper-style rows, and regression helpers asserting the
*shape* of results (linearity, dominance, speedups) rather than absolute
numbers.  It lives beside its only callers -- the program imports none of
it -- and shares nothing with ``benchmarks/e2e``.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

import numpy as np

from repro.db import Database

#: The hot visual-analytics query shape (GROUP BY over ``GROUPS`` keys) the
#: columnar and lineage benches share, and the table it runs over.
GROUPS = 50
AGGREGATE_SQL = (
    "SELECT grp, COUNT(*) AS n, SUM(val) AS s, AVG(val) AS a "
    "FROM big GROUP BY grp"
)


def grouped_db(rows: int) -> Database:
    db = Database()
    db.execute("CREATE TABLE big (id INTEGER PRIMARY KEY, grp TEXT, val FLOAT)")
    rng = random.Random(7)
    db.insert_many(
        "big",
        [
            {"id": i, "grp": f"g{i % GROUPS}", "val": rng.random() * 100}
            for i in range(rows)
        ],
    )
    return db


class Timer:
    """Context manager measuring wall-clock milliseconds."""

    def __init__(self) -> None:
        self.ms = 0.0

    def __enter__(self) -> "Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.ms = (time.perf_counter() - self._start) * 1000.0


@dataclass
class SeriesTable:
    """A result table: one row per x-value, one column per series.

    Mirrors how Figure 8 presents results ("the times we measured for
    these five steps are shown... for different numbers of inserted data
    tuples").
    """

    x_label: str
    series_names: list[str]
    rows: list[tuple[float, dict[str, float]]] = field(default_factory=list)

    def add(self, x: float, values: dict[str, float]) -> None:
        missing = set(self.series_names) - set(values)
        if missing:
            raise ValueError(f"missing series values: {sorted(missing)}")
        self.rows.append((x, dict(values)))

    def series(self, name: str) -> list[float]:
        return [values[name] for _x, values in self.rows]

    def xs(self) -> list[float]:
        return [x for x, _values in self.rows]

    def format(self, unit: str = "ms", width: int = 12) -> str:
        header = [self.x_label.rjust(width)] + [
            name[: width - 1].rjust(width) for name in self.series_names
        ]
        lines = ["".join(header)]
        for x, values in self.rows:
            cells = [f"{x:>{width}.0f}"]
            for name in self.series_names:
                cells.append(f"{values[name]:>{width}.3f}")
            lines.append("".join(cells))
        lines.append(f"(values in {unit})")
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # Machine-readable output
    def as_json(self) -> dict[str, Any]:
        """The table as a JSON-ready dict (rows keep series order)."""
        return {
            "x_label": self.x_label,
            "series": list(self.series_names),
            "rows": [
                {"x": x, "values": {n: values[n] for n in self.series_names}}
                for x, values in self.rows
            ],
        }


# ---------------------------------------------------------------------------
# Shape checks


def linear_fit(xs: Sequence[float], ys: Sequence[float]) -> tuple[float, float, float]:
    """Least-squares line fit; returns (slope, intercept, r_squared)."""
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    if len(x) < 2:
        raise ValueError("need at least two points for a fit")
    slope, intercept = np.polyfit(x, y, 1)
    predicted = slope * x + intercept
    ss_res = float(((y - predicted) ** 2).sum())
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r_squared = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(slope), float(intercept), r_squared


def is_roughly_linear(
    xs: Sequence[float], ys: Sequence[float], min_r_squared: float = 0.9
) -> bool:
    """Does y grow linearly in x?  (Figure 8's claim.)

    Timing noise on small inputs is tolerated by requiring a decent fit,
    not a perfect one.
    """
    _slope, _intercept, r_squared = linear_fit(xs, ys)
    return r_squared >= min_r_squared


def dominance_ratio(
    table: SeriesTable, dominant: str, others: Iterable[str]
) -> float:
    """How strongly one series dominates: min over rows of
    dominant / max(others)."""
    ratios = []
    for _x, values in table.rows:
        other_max = max(values[name] for name in others)
        if other_max <= 0:
            continue
        ratios.append(values[dominant] / other_max)
    if not ratios:
        raise ValueError("no comparable rows")
    return min(ratios)


def speedup(baseline: float, improved: float) -> float:
    """baseline / improved (guarding zero)."""
    if improved <= 0:
        return float("inf")
    return baseline / improved
