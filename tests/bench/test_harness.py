"""What the slice benches share (``benchmarks/support.py``)."""

import pytest

from benchmarks.support import (
    SeriesTable,
    Timer,
    dominance_ratio,
    is_roughly_linear,
    linear_fit,
    speedup,
)


class TestTimer:
    def test_measures_elapsed(self):
        import time

        with Timer() as timer:
            time.sleep(0.01)
        assert timer.ms >= 5


class TestSeriesTable:
    def make(self):
        table = SeriesTable("n", ["a", "b"])
        table.add(10, {"a": 1.0, "b": 5.0})
        table.add(20, {"a": 2.0, "b": 10.0})
        return table

    def test_series_extraction(self):
        table = self.make()
        assert table.xs() == [10, 20]
        assert table.series("a") == [1.0, 2.0]

    def test_missing_series_value_rejected(self):
        table = SeriesTable("n", ["a", "b"])
        with pytest.raises(ValueError):
            table.add(1, {"a": 1.0})

    def test_format_contains_all_rows(self):
        text = self.make().format()
        assert "10" in text and "20" in text
        assert "ms" in text


class TestJsonEmission:
    def make(self):
        table = SeriesTable("n", ["a", "b"])
        table.add(10, {"a": 1.0, "b": 5.0})
        table.add(20, {"a": 2.0, "b": 10.0})
        return table

    def test_as_json_shape(self):
        payload = self.make().as_json()
        assert payload["x_label"] == "n"
        assert payload["series"] == ["a", "b"]
        assert payload["rows"] == [
            {"x": 10, "values": {"a": 1.0, "b": 5.0}},
            {"x": 20, "values": {"a": 2.0, "b": 10.0}},
        ]


class TestShapeChecks:
    def test_linear_fit_exact(self):
        slope, intercept, r2 = linear_fit([1, 2, 3], [10, 20, 30])
        assert slope == pytest.approx(10.0)
        assert intercept == pytest.approx(0.0)
        assert r2 == pytest.approx(1.0)

    def test_linear_fit_needs_two_points(self):
        with pytest.raises(ValueError):
            linear_fit([1], [1])

    def test_is_roughly_linear(self):
        xs = [100, 200, 400, 800]
        assert is_roughly_linear(xs, [1.1, 2.0, 4.2, 7.9])
        assert not is_roughly_linear(xs, [1, 4, 16, 64], min_r_squared=0.99)

    def test_dominance_ratio(self):
        table = SeriesTable("n", ["big", "small1", "small2"])
        table.add(1, {"big": 10.0, "small1": 2.0, "small2": 1.0})
        table.add(2, {"big": 20.0, "small1": 5.0, "small2": 1.0})
        assert dominance_ratio(table, "big", ["small1", "small2"]) == pytest.approx(4.0)

    def test_dominance_needs_rows(self):
        table = SeriesTable("n", ["a", "b"])
        with pytest.raises(ValueError):
            dominance_ratio(table, "a", ["b"])

    def test_speedup(self):
        assert speedup(10.0, 2.0) == 5.0
        assert speedup(10.0, 0.0) == float("inf")
