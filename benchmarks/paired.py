"""The paired two-arm estimator behind every overhead gate.

"What does switching X on cost?" is one measurement whatever X is: run a
baseline arm and a treated arm back to back, so both sides of a ratio see
the same machine, and repeat.  The order inside a pair alternates over an
even number of pairs, so neither arm runs first more often than the
other.  What is reported is the *median* pair ratio with its quartiles --
never the best pair: noise in the baseline arm deflates a ratio as easily
as noise in the treated arm inflates it, so a minimum over pairs reads a
negative "overhead" on two identical arms -- and the quartile spread of
the ratios, the smallest effect this run could have told from nothing.

``benchmarks/run_gates.py`` turns the block into a verdict; a reading it
could not have failed is UNRESOLVED there, not PASS.
"""

from __future__ import annotations

import gc
import statistics
import time
from dataclasses import asdict, dataclass
from typing import Any, Callable

#: One run of one arm; returns what it cost (ms, us: the caller's unit).
Arm = Callable[[], float]


def timed(fn: Callable[[], Any], scale: float = 1.0) -> Arm:
    """An arm that costs one call of ``fn``: wall-clock ms times ``scale``,
    garbage collected first so one arm never pays for the other's litter."""

    def arm() -> float:
        gc.collect()
        start = time.perf_counter()
        fn()
        return (time.perf_counter() - start) * 1000.0 * scale

    return arm


@dataclass(frozen=True)
class PairedOverhead:
    """``treated / baseline - 1`` over back-to-back pairs of the two arms."""

    ratios: tuple[float, ...]
    #: Median, first and third quartile of ``ratios``.
    overhead: float
    q1: float
    q3: float
    #: Minimum detectable effect: ``q3 - q1``.  An overhead smaller than
    #: the pairs' own spread cannot be told from none.
    mde: float
    #: Each arm's median cost, in the arms' own unit.
    baseline_median: float
    treated_median: float

    def block(self, budget: float, unit: str) -> dict[str, Any]:
        """The one JSON shape ``run_gates.py`` reads: the estimate, the
        budget it is held to (same scale as ``overhead``) and the unit of
        the arm medians."""
        return {"pairs": len(self.ratios), **asdict(self), "budget": budget, "unit": unit}


def paired_overhead(baseline: Arm, treated: Arm, pairs: int) -> PairedOverhead:
    """Run the two arms ``pairs`` times back to back, alternating which
    goes first, and estimate the treated arm's relative overhead."""
    if pairs < 4 or pairs % 2:
        raise ValueError(f"pairs must be even and at least 4, got {pairs}")
    base: list[float] = []
    treat: list[float] = []
    for pair in range(pairs):
        if pair % 2 == 0:
            base.append(baseline())
            treat.append(treated())
        else:
            treat.append(treated())
            base.append(baseline())
    ratios = tuple(t / b - 1.0 for b, t in zip(base, treat))
    q1, median, q3 = statistics.quantiles(ratios, n=4, method="inclusive")
    return PairedOverhead(
        ratios=ratios,
        overhead=median,
        q1=q1,
        q3=q3,
        mde=q3 - q1,
        baseline_median=statistics.median(base),
        treated_median=statistics.median(treat),
    )
