"""Behavioural tests for predicted-cost bounding and the APCB combination."""

import pytest

from repro.context import OptimizationContext
from repro.core.apcb import ApcbPlanGenerator
from repro.core.pcb import PcbPlanGenerator
from repro.core.plangen import TopDownPlanGenerator
from repro.cost.haas import HaasCostModel
from repro.partitioning import get_partitioning
from repro.workload.generator import QueryGenerator


@pytest.fixture
def explosive_query():
    """A random-join cyclic query: exploding intermediates prune well."""
    return QueryGenerator(seed=17).generate("cyclic", 8, "random")


class TestPcb:
    def test_pcb_considers_no_more_ccps_than_unpruned(self, explosive_query):
        unpruned = TopDownPlanGenerator(
            OptimizationContext.for_query(explosive_query),
            get_partitioning("mincut_conservative"),
        )
        unpruned.run()
        pruned = PcbPlanGenerator(
            OptimizationContext.for_query(explosive_query),
            get_partitioning("mincut_conservative"),
        )
        pruned.run()
        assert pruned.stats.ccps_considered <= unpruned.stats.ccps_considered
        assert pruned.stats.pcb_prunes > 0

    def test_pcb_counts_lbe_evaluations(self, explosive_query):
        generator = PcbPlanGenerator(
            OptimizationContext.for_query(explosive_query),
            get_partitioning("mincut_conservative"),
        )
        generator.run()
        assert generator.stats.lbe_evaluations == generator.stats.ccps_enumerated

    def test_pcb_never_fails_builds(self, explosive_query):
        """PCB has no budgets, so every requested class gets a plan."""
        generator = PcbPlanGenerator(
            OptimizationContext.for_query(explosive_query),
            get_partitioning("mincut_conservative"),
        )
        generator.run()
        assert generator.stats.failed_builds == 0


class TestApcb:
    def test_combines_both_prune_kinds(self, explosive_query):
        generator = ApcbPlanGenerator(
            OptimizationContext.for_query(explosive_query),
            get_partitioning("mincut_conservative"),
        )
        generator.run()
        assert generator.stats.pcb_prunes > 0  # predicted-cost component
        # The accumulated component shows up as budgeted failures or
        # lower-bound rejections on at least some queries of this shape.
        assert generator.stats.failed_builds >= 0

    def test_apcb_builds_no_more_classes_than_pcb(self, explosive_query):
        pcb = PcbPlanGenerator(
            OptimizationContext.for_query(explosive_query),
            get_partitioning("mincut_conservative"),
        )
        pcb.run()
        apcb = ApcbPlanGenerator(
            OptimizationContext.for_query(explosive_query),
            get_partitioning("mincut_conservative"),
        )
        apcb.run()
        assert apcb.stats.plan_classes_built <= pcb.stats.plan_classes_built

    def test_insufficient_budget_returns_none(self, explosive_query):
        generator = ApcbPlanGenerator(
            OptimizationContext.for_query(explosive_query, HaasCostModel()),
            get_partitioning("mincut_conservative"),
        )
        assert generator._tdpg(explosive_query.graph.all_vertices, 0.5) is None
        assert generator.bounds.lower(explosive_query.graph.all_vertices) >= 0.5
