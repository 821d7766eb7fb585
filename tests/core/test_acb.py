"""Behavioural tests for accumulated-cost bounding (TDPG_ACB)."""

import pytest

from repro.context import OptimizationContext
from repro.core.acb import AcbPlanGenerator
from repro.core.plangen import INFINITY
from repro.cost.haas import HaasCostModel
from repro.partitioning import get_partitioning


@pytest.fixture
def acb_generator(small_query):
    return AcbPlanGenerator(
        OptimizationContext.for_query(small_query, HaasCostModel()),
        get_partitioning("mincut_conservative"),
    )


class TestBudgetSemantics:
    def test_infinite_budget_finds_plan(self, acb_generator, small_query):
        plan = acb_generator.run()
        assert plan.vertex_set == small_query.graph.all_vertices

    def test_insufficient_budget_returns_none(self, small_query):
        generator = AcbPlanGenerator(
            OptimizationContext.for_query(small_query, HaasCostModel()),
            get_partitioning("mincut_conservative"),
        )
        full = small_query.graph.all_vertices
        assert generator._tdpg(full, 0.0) is None

    def test_failed_pass_records_lower_bound(self, small_query):
        generator = AcbPlanGenerator(
            OptimizationContext.for_query(small_query, HaasCostModel()),
            get_partitioning("mincut_conservative"),
        )
        full = small_query.graph.all_vertices
        generator._tdpg(full, 1.0)
        assert generator.bounds.lower(full) >= 1.0
        assert generator.stats.failed_builds >= 1

    def test_re_request_below_lower_bound_rejected_fast(self, small_query):
        generator = AcbPlanGenerator(
            OptimizationContext.for_query(small_query, HaasCostModel()),
            get_partitioning("mincut_conservative"),
        )
        full = small_query.graph.all_vertices
        generator._tdpg(full, 10.0)
        enumerated_before = generator.stats.ccps_enumerated
        assert generator._tdpg(full, 5.0) is None
        assert generator.stats.ccps_enumerated == enumerated_before
        assert generator.stats.bound_rejections >= 1

    def test_exact_budget_succeeds(self, small_query):
        probe = AcbPlanGenerator(
            OptimizationContext.for_query(small_query, HaasCostModel()),
            get_partitioning("mincut_conservative"),
        )
        optimal = probe.run().cost
        generator = AcbPlanGenerator(
            OptimizationContext.for_query(small_query, HaasCostModel()),
            get_partitioning("mincut_conservative"),
        )
        plan = generator._tdpg(small_query.graph.all_vertices, optimal)
        assert plan is not None
        assert plan.cost == pytest.approx(optimal)


class TestMemoisation:
    def test_second_run_hits_memo(self, acb_generator):
        acb_generator.run()
        hits_before = acb_generator.stats.memo_hits
        acb_generator._tdpg(acb_generator.query.graph.all_vertices, INFINITY)
        assert acb_generator.stats.memo_hits == hits_before + 1
