"""Latency percentiles as the service benchmarks (perfbench, the soak)
summarize their samples."""

import math

import pytest

from repro.telemetry.summary import percentile


class TestPercentile:
    def test_empty_is_nan(self):
        # Regression: an old implementation returned 0.0 for an empty
        # sample set, which read as "impossibly fast", not "no data".
        assert math.isnan(percentile([], 95.0))

    def test_single_value(self):
        assert percentile([3.0], 50.0) == 3.0

    def test_interpolation(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 0.0) == 1.0
        assert percentile(values, 100.0) == 4.0
        assert percentile(values, 50.0) == pytest.approx(2.5)

    def test_order_independent(self):
        assert percentile([4.0, 1.0, 3.0, 2.0], 50.0) == pytest.approx(2.5)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101.0)
