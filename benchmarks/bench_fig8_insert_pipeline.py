"""Figure 8: time to perform insert operations, per pipeline step.

Paper setup (Section VII-C): a DBMS connected to two EdiFlow instances;
batches of tuples are inserted and five steps are timed.  The paper
reports (for 100..2000 tuples): every series grows linearly with batch
size, and "the dominating time is required to write in the
VisualAttributes table".

We reproduce the same six series over loopback sockets and assert the
shape: linearity of the total, and VisualAttributes-insert dominance.
Each batch runs traced and its steps are read from its one propagation
trace (``fig8_series``); beside them, the share of the trace's wall time
no step covers (``unattr_pct``), and the whole ``run_batch`` timed once
traced and once not, so the cost of tracing shows.  Best of three
batches per size, per column.
"""

import gc

import pytest

import repro.obs as obs
from benchmarks.fig8_pipeline import FIG8_SERIES, InsertPipeline, fig8_series
from benchmarks.support import (
    SeriesTable,
    Timer,
    dominance_ratio,
    is_roughly_linear,
    linear_fit,
)

BATCH_SIZES = (100, 250, 500, 1000, 1500, 2000)
COLUMNS = (*FIG8_SERIES, "unattr_pct", "traced", "untraced")


def _batch(pipeline: InsertPipeline, size: int) -> dict[str, float]:
    """One traced batch's columns, then one untraced batch's time."""
    gc.collect()
    obs.enable()
    try:
        with Timer() as traced:
            pipeline.run_batch(size)
    finally:
        obs.disable()
    report = obs.propagation_report()
    obs.reset()
    row = fig8_series(report)
    row["unattr_pct"] = 100.0 * (report.wall_ms - row["total"]) / report.wall_ms
    gc.collect()
    with Timer() as untraced:
        pipeline.run_batch(size)
    row.update(traced=traced.ms, untraced=untraced.ms)
    return row


@pytest.fixture(scope="module")
def fig8_table(emit, emit_json):
    """Run the sweep once per session; individual tests check its shape."""
    pipeline = InsertPipeline(use_sockets=True)
    table = SeriesTable("tuples", list(COLUMNS))
    try:
        pipeline.run_batch(100)  # warm-up (JIT-less, but warms caches)
        for size in BATCH_SIZES:
            # Best of 3: GC pauses and scheduler hiccups on loopback
            # sockets otherwise dominate single samples.
            samples = [_batch(pipeline, size) for _ in range(3)]
            table.add(size, {c: min(s[c] for s in samples) for c in COLUMNS})
    finally:
        pipeline.close()
    emit("\n== Figure 8: time to perform insert operation (two machines, sockets) ==")
    emit(table.format())
    emit_json("fig8_insert_pipeline", table)
    return table


def test_fig8_total_grows_linearly(fig8_table):
    xs, totals = fig8_table.xs(), fig8_table.series("total")
    slope, _intercept, r2 = linear_fit(xs, totals)
    # Which size stalled: each size's best-of-3 total beside the fit.
    shape = ", ".join(f"{x}: {total:.2f} ms" for x, total in zip(xs, totals))
    assert is_roughly_linear(xs, totals, min_r_squared=0.85), (
        f"total not linear in batch size (r^2 = {r2:.3f} < 0.85): {shape}"
    )
    assert slope > 0, f"total does not grow (slope {slope:.5f} ms/tuple): {shape}"


def test_fig8_visualattrs_insert_dominates(fig8_table):
    """The paper: "The dominating time is required to write in the
    VisualAttributes table"."""
    others = [s for s in FIG8_SERIES if s not in ("insert_visualattrs", "total")]
    ratio = dominance_ratio(fig8_table, "insert_visualattrs", others)
    assert ratio > 1.0, f"VisualAttributes insert should dominate (ratio={ratio:.2f})"


def test_fig8_each_step_scales_with_batch(fig8_table):
    for series in ("insert_visualattrs", "extract_new_nodes", "insert_into_display"):
        values = fig8_table.series(series)
        # Larger batches cost more end-to-end (allowing noise on smalls).
        assert values[-1] > values[0], f"{series} did not grow with batch size"
