"""Lineage capture overhead benchmarks + the 10% CI gate.

Lineage capture is off by default and free when off.  When enabled with
the default configuration (every-256th-SELECT sampling, bounded edge
store), the amortized cost must stay within **10%** of the no-lineage
baseline on the columnar aggregate bench (the paper's hot
visual-analytics query shape).

Differencing two multi-second query streams drowns the ~4% signal in
machine noise, so the bench measures the one thing sampling changes --
what a *captured* query costs over a plain one -- with the one paired
estimator (``benchmarks.paired.paired_overhead``):

* **baseline arm** -- one plain vectorized aggregate;
* **treated arm** -- the same query executed through the in-band
  sampled-capture path (capture returns the result rows, persists edges
  to the store, and the query runs once).

Every sampling period pays one capture instead of one plain query, so
the amortized overhead is the pair ratio divided by ``SAMPLE``, and the
10% amortized budget is ``0.10 * SAMPLE`` on the ratio itself -- which
is what the ``lineage`` gate reads.  A separate enabled stream still runs
to assert the sampling machinery fires and captured rows are
byte-identical to plain execution -- correctness is stream-tested, only
the timing is composed.

Scale with ``BENCH_LINEAGE_ROWS`` (default 200k rows).
"""

import os

import pytest

from repro.db import Database
from repro.lineage.manager import LineageManager

from benchmarks.paired import paired_overhead, timed
from benchmarks.run_gates import GATES, OVERHEAD_BLOCK, overhead_line
from benchmarks.support import AGGREGATE_SQL as SQL, grouped_db

ROWS = int(os.environ.get("BENCH_LINEAGE_ROWS", "200000"))
#: Default sampling period of LineageManager -- the amortization window
#: the gate assumes (read off the real default, not duplicated here).
SAMPLE = LineageManager(Database("probe"), store=False).sample
#: The gate: amortized sampled-capture overhead over the plain baseline,
#: in percent.
OVERHEAD_GATE_PCT = 10.0


@pytest.fixture(scope="module")
def lineage_result(emit, emit_json):
    db = grouped_db(ROWS)
    plan = db.plan(SQL)
    assert plan.chosen(db) is plan, "table too small for the vectorized engine"
    baseline = db.query(SQL)  # warm: column store + plan cache

    # Correctness under the real sampled path: run a stream one sampling
    # period long, assert capture fired and the results never changed.
    mgr = db.enable_lineage()
    assert mgr.sample == SAMPLE
    for _ in range(SAMPLE):
        assert len(db.query(SQL)) == len(baseline)
    assert mgr.captures >= 1, "sampling never fired over the stream"
    captured_rows, _ = mgr.capture(SQL, db.plan(SQL), record=False)
    assert sorted(map(repr, captured_rows)) == sorted(map(repr, baseline))

    # The in-band captured-query price: capture + store.record, exactly
    # what a sampled SELECT pays (maybe_capture returns the rows, so the
    # query is not re-executed).
    store = mgr.store
    result = paired_overhead(
        timed(lambda: db.query(SQL)),
        timed(
            lambda: store.record(
                SQL, "vectorized", mgr.capture(SQL, plan, record=False)[1], ["big"]
            )
        ),
        GATES["lineage"].pairs,
    )
    db.disable_lineage()

    block = result.block(OVERHEAD_GATE_PCT / 100.0 * SAMPLE, "ms")
    emit(
        f"\n== lineage capture: vectorized aggregate, {ROWS} rows ==\n"
        f"plain query:    {result.baseline_median:.2f} ms\n"
        f"captured query: {result.treated_median:.2f} ms\n"
        f"{overhead_line(block)}\n"
        f"amortized at 1/{SAMPLE} sampling: {result.overhead / SAMPLE:+.2%} "
        f"[{result.q1 / SAMPLE:+.2%}, {result.q3 / SAMPLE:+.2%}] "
        f"(gate {OVERHEAD_GATE_PCT:.0f}%)"
    )
    emit_json(
        "lineage",
        {"query": "aggregate", "rows": ROWS, "sample": SAMPLE},
        extra={OVERHEAD_BLOCK: block},
    )
    return result


def test_full_capture_is_bounded(lineage_result):
    """Unconditional capture pays the whole tax on every query; it should
    cost a modest constant factor over plain execution, not blow up."""
    assert lineage_result.treated_median / lineage_result.baseline_median < 60.0
