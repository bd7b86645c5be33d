"""The Figure-8 insert pipeline (small sizes; timing shape is the bench's job)."""

import pytest

from benchmarks.fig8_pipeline import FIG8_SERIES, InsertPipeline
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

    def test_timing_fields_cover_all_series(self, pipeline):
        data = pipeline.run_batch(10)
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
