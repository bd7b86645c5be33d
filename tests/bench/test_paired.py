"""The one paired two-arm estimator and the one verdict rule.

Arms here are a cost model -- a seeded draw around a mean, no clock and
no sleep -- so every verdict below is deterministic.
"""

import random

import pytest

from benchmarks.paired import paired_overhead, timed
from benchmarks.run_gates import overhead_verdict

BUDGET = 0.05


def arm(rng, mean, noise):
    """A run costs ``mean`` give or take ``noise`` (relative, uniform)."""
    return lambda: mean * (1.0 + rng.uniform(-noise, noise))


def verdict(effect, noise, seed, pairs=16):
    rng = random.Random(seed)
    result = paired_overhead(
        arm(rng, 20.0, noise), arm(rng, 20.0 * (1.0 + effect), noise), pairs
    )
    return overhead_verdict(result.block(BUDGET, "ms")), result


@pytest.mark.parametrize("seed", range(40))
def test_identical_arms_inside_their_own_noise_are_unresolved(seed):
    """An A/A run with 10% noise cannot clear a 5% budget -- the best-pair
    estimator read it as a comfortable negative overhead and passed."""
    word, result = verdict(0.0, 0.10, seed, pairs=64)
    assert word == "UNRESOLVED"
    assert result.q1 <= 0.0 <= result.q3
    assert min(result.ratios) < -BUDGET  # what min-over-pairs used to report


def test_sixteen_identical_pairs_never_fail_or_pass_on_a_negative_reading():
    """Few pairs can draw a spread narrower than the arms' own (which is
    why the percent-sized gates run 16, not 8); what holds there: no FAIL,
    and no PASS on an "overhead" below zero by more than the pairs' spread."""
    for seed in range(200):
        word, result = verdict(0.0, 0.10, seed, pairs=16)
        assert word != "FAIL"
        assert word == "UNRESOLVED" or result.overhead > -result.mde


@pytest.mark.parametrize("seed", range(10))
def test_a_real_regression_fails(seed):
    word, result = verdict(0.10, 0.01, seed)
    assert word == "FAIL"
    assert result.overhead == pytest.approx(0.10, abs=0.01)
    assert result.mde < 0.03


@pytest.mark.parametrize("seed", range(10))
def test_a_small_effect_measured_tightly_passes(seed):
    word, result = verdict(0.01, 0.01, seed)
    assert word == "PASS"
    assert result.q3 < BUDGET


def test_an_overhead_under_the_budget_on_pairs_wider_than_it_is_unresolved():
    """Never PASS on a reading that could not have failed."""
    block = {"overhead": -0.10, "q1": -0.14, "q3": -0.04, "mde": 0.10, "budget": BUDGET}
    assert overhead_verdict(block) == "UNRESOLVED"


@pytest.mark.parametrize("pairs", range(4, 22, 2))
def test_arm_order_is_balanced(pairs):
    order = []
    paired_overhead(
        lambda: order.append("b") or 1.0, lambda: order.append("t") or 1.0, pairs
    )
    first_of_each_pair = order[::2]
    assert len(order) == 2 * pairs
    assert first_of_each_pair.count("b") == first_of_each_pair.count("t") == pairs // 2
    # Back to back: every pair holds one run of each arm.
    assert all(set(order[i : i + 2]) == {"b", "t"} for i in range(0, len(order), 2))


@pytest.mark.parametrize("pairs", [0, 2, 5, 7])
def test_odd_or_too_few_pairs_are_rejected(pairs):
    with pytest.raises(ValueError):
        paired_overhead(lambda: 1.0, lambda: 1.0, pairs)


def test_block_reports_medians_quartiles_and_the_detectable_effect():
    costs = iter([10.0, 11.0, 12.0, 10.0, 10.0, 12.0, 11.0, 10.0])
    result = paired_overhead(lambda: next(costs), lambda: next(costs), 4)
    # Pairs run (b, t), (t, b), (b, t), (t, b).
    assert result.ratios == pytest.approx((0.1, 0.2, 0.2, 0.1))
    assert result.overhead == pytest.approx(0.15)
    assert result.mde == pytest.approx(result.q3 - result.q1)
    assert (result.baseline_median, result.treated_median) == (10.0, 11.5)
    block = result.block(BUDGET, "ms")
    assert block["pairs"] == 4 and block["budget"] == BUDGET and block["unit"] == "ms"
    assert set(block) == {
        "pairs", "ratios", "overhead", "q1", "q3", "mde",
        "baseline_median", "treated_median", "budget", "unit",
    }


def test_timed_arm_runs_the_function_once_and_scales_the_cost():
    calls = []
    cost = timed(lambda: calls.append(1), scale=1000.0)()
    assert calls == [1]
    assert cost >= 0.0
