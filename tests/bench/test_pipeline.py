"""The Figure-8 insert pipeline (small sizes; timing shape is the bench's job)."""

import pytest

from benchmarks.fig8_pipeline import FIG8_SERIES, T_NODES, InsertPipeline, fig8_series
from repro.core import datamodel


@pytest.fixture(params=[False, True], ids=["inprocess", "sockets"])
def pipeline(request):
    p = InsertPipeline(use_sockets=request.param)
    yield p
    p.close()


class TestPipeline:
    def test_one_batch_flows_to_display(self, pipeline):
        pipeline.run_batch(50)
        assert len(pipeline.display) == 50
        # Visual attributes written for every node.
        rows = pipeline.database.query(
            f"SELECT COUNT(*) AS n FROM {datamodel.T_VISUAL_ATTRIBUTES}"
        )
        assert rows[0]["n"] == 50

    def test_successive_batches_accumulate(self, pipeline):
        pipeline.run_batch(20)
        pipeline.run_batch(30)
        assert len(pipeline.display) == 50

    def test_timing_fields_cover_all_series(self, pipeline, traced):
        pipeline.run_batch(10)
        data = fig8_series(traced.propagation_report())
        assert list(data) == list(FIG8_SERIES)
        assert data["total"] == pytest.approx(
            sum(v for k, v in data.items() if k != "total")
        )
        assert all(v >= 0 for v in data.values())

    def test_display_items_carry_positions(self, pipeline):
        pipeline.run_batch(5)
        for item in pipeline.display.items.values():
            assert item.x is not None
            assert item.y is not None
            assert item.label.startswith("node-")

    def test_one_batch_is_one_trace_holding_every_step(self, pipeline, traced):
        """The machines work inside the refreshes they react to, and the
        VisualAttributes commit inside its block's span: one trace, whose
        five steps are disjoint from each other and from the stimulus."""
        pipeline.run_batch(10)
        (trace_id,) = traced.tracer().traces()
        report = traced.propagation_report()
        assert report.trace_id == trace_id
        assert report.table == T_NODES
        data = fig8_series(report)  # KeyError on a missing step
        assert all(v >= 0 for v in data.values())
        unattributed = report.wall_ms - data["total"]
        author = report.tables[T_NODES]
        stimulus = author["db_write"] + author["trigger"] + author["notify"]
        assert unattributed >= stimulus
        assert data["total"] + unattributed == pytest.approx(report.wall_ms)
