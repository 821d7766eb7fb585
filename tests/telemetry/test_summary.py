"""Percentiles and per-phase span summaries."""

import math

import pytest

from repro.telemetry import Tracer
from repro.telemetry.summary import (
    DEFAULT_GROUP_ATTRS,
    percentile,
    summarize_samples,
    summarize_spans,
)


class CountingClock:
    def __init__(self):
        self.ticks = -1.0

    def __call__(self):
        self.ticks += 1.0
        return self.ticks


class TestPercentile:
    def test_empty_is_nan(self):
        # Regression: an old implementation returned 0.0 for an empty
        # sample set, which read as "impossibly fast", not "no data".
        assert math.isnan(percentile([], 50.0))

    def test_interpolation(self):
        values = [10.0, 20.0, 30.0, 40.0]
        assert percentile(values, 50.0) == pytest.approx(25.0)
        assert percentile(values, 0.0) == 10.0
        assert percentile(values, 100.0) == 40.0

    def test_single_value(self):
        assert percentile([3.0], 50.0) == 3.0

    def test_order_independent(self):
        assert percentile([4.0, 1.0, 3.0, 2.0], 50.0) == pytest.approx(2.5)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            percentile([1.0], -1.0)

    def test_above_100_rejected(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101.0)


class TestSummarizeSamples:
    def test_shape_and_values(self):
        summary = summarize_samples([1.0, 2.0, 3.0])
        assert summary["count"] == 3
        assert summary["p50"] == 2.0
        assert summary["max"] == 3.0

    def test_empty_is_all_nan(self):
        summary = summarize_samples([])
        assert summary["count"] == 0
        assert math.isnan(summary["p50"])
        assert math.isnan(summary["max"])


class TestSummarizeSpans:
    def test_groups_by_configured_attribute(self):
        tracer = Tracer(clock=CountingClock())
        with tracer.span("ladder_rung", rung="exact"):
            pass
        with tracer.span("ladder_rung", rung="exact"):
            pass
        with tracer.span("ladder_rung", rung="heuristic:goo"):
            pass
        with tracer.span("enumerate", enumerator="mincut_conservative"):
            pass
        summary = summarize_spans(tracer.finished_spans())
        assert summary["ladder_rung"]["exact"]["count"] == 2
        assert summary["ladder_rung"]["heuristic:goo"]["count"] == 1
        assert summary["enumerate"]["mincut_conservative"]["count"] == 1

    def test_unmapped_names_group_under_star(self):
        tracer = Tracer(clock=CountingClock())
        with tracer.span("custom"):
            pass
        summary = summarize_spans(tracer.finished_spans())
        assert summary["custom"]["*"]["count"] == 1

    def test_open_spans_are_skipped(self):
        tracer = Tracer(clock=CountingClock())
        span = tracer.span("ladder_rung", rung="exact")
        span.__enter__()  # never closed — no duration yet
        assert summarize_spans([span]) == {}

    def test_default_group_attrs_cover_the_taxonomy(self):
        assert DEFAULT_GROUP_ATTRS["ladder_rung"] == "rung"
        assert DEFAULT_GROUP_ATTRS["enumerate"] == "enumerator"
        assert DEFAULT_GROUP_ATTRS["attempt"] == "outcome"
