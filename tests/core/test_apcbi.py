"""Behavioural tests for the six-advancement APCBI generator."""

import pytest

from repro.baselines.dpccp import DPccp
from repro.context import OptimizationContext
from repro.core.advancements import AdvancementConfig
from repro.core.apcb import ApcbPlanGenerator
from repro.core.apcbi import ApcbiPlanGenerator, budget_slack
from repro.cost.haas import HaasCostModel
from repro.partitioning import get_partitioning
from repro.workload.generator import QueryGenerator


@pytest.fixture
def explosive_query():
    return QueryGenerator(seed=23).generate("cyclic", 8, "random")


def _apcbi(query, config=None, upper_bounds=None):
    return ApcbiPlanGenerator(
        OptimizationContext.for_query(query, HaasCostModel()),
        get_partitioning("mincut_conservative"),
        config=config,
        upper_bounds=upper_bounds,
    )


class TestHeuristicUpperBounds:
    def test_goo_seeds_the_bounds_table(self, explosive_query):
        generator = _apcbi(
            explosive_query, AdvancementConfig.only("heuristic_upper_bounds")
        )
        assert generator.bounds.n_upper() == explosive_query.n_relations - 1
        assert generator.heuristic_tree is not None

    def test_no_goo_when_disabled(self, explosive_query):
        generator = _apcbi(explosive_query, AdvancementConfig.all_off())
        assert generator.bounds.n_upper() == 0
        assert generator.heuristic_tree is None

    def test_explicit_upper_bounds_suppress_goo(self, explosive_query):
        generator = _apcbi(
            explosive_query,
            AdvancementConfig.only("heuristic_upper_bounds"),
            upper_bounds={explosive_query.graph.all_vertices: 1e18},
        )
        assert generator.heuristic_tree is None
        assert generator.bounds.n_upper() == 1


class TestRisingBudget:
    def test_budget_raises_counted(self, explosive_query):
        generator = _apcbi(explosive_query, AdvancementConfig.only("rising_budget"))
        generator.run()
        # Random-join cyclic queries trigger repeated requests; the rising
        # budget must fire at least once on this fixed workload.
        assert generator.stats.budget_raises > 0

    def test_attempts_are_counted(self, explosive_query):
        generator = _apcbi(explosive_query, AdvancementConfig.all_on())
        generator.run()
        full = explosive_query.graph.all_vertices
        assert generator.bounds.attempts(full) >= 1


class TestImprovedLowerBounds:
    def test_failed_pass_records_max_of_budget_and_nlb(self, explosive_query):
        generator = _apcbi(
            explosive_query, AdvancementConfig.only("improved_lower_bounds")
        )
        full = explosive_query.graph.all_vertices
        result = generator._tdpg(full, 1.0)
        assert result is None
        # With improved lower bounds the proven bound exceeds the tiny
        # budget (nlB reflects real operator costs).
        assert generator.bounds.lower(full) > 1.0

    def test_plain_bound_without_advancement(self, explosive_query):
        generator = _apcbi(explosive_query, AdvancementConfig.all_off())
        full = explosive_query.graph.all_vertices
        generator._tdpg(full, 1.0)
        assert generator.bounds.lower(full) == pytest.approx(1.0)


class TestApcbiVersusApcb:
    def test_apcbi_builds_fewer_classes(self, explosive_query):
        apcb = ApcbPlanGenerator(
            OptimizationContext.for_query(explosive_query),
            get_partitioning("mincut_conservative"),
        )
        apcb.run()
        apcbi = _apcbi(explosive_query)
        apcbi.run()
        assert apcbi.stats.plan_classes_built <= apcb.stats.plan_classes_built

    def test_apcbi_avoids_apcb_re_enumeration_blowup(self):
        """The worst-case fix: APCBI's enumeration stays near DPccp's count."""
        query = QueryGenerator(seed=5).generate("cyclic", 9, "fk")
        apcb = ApcbPlanGenerator(
            OptimizationContext.for_query(query),
            get_partitioning("mincut_conservative"),
        )
        apcb.run()
        apcbi = _apcbi(query)
        apcbi.run()
        assert apcbi.stats.ccps_enumerated < apcb.stats.ccps_enumerated


class TestOracleBounds:
    def test_oracle_upper_bounds_are_used(self, explosive_query):
        oracle = DPccp(OptimizationContext.for_query(explosive_query))
        optimal = oracle.run()
        generator = _apcbi(
            explosive_query,
            AdvancementConfig.all_on(),
            upper_bounds=oracle.optimal_class_costs(),
        )
        plan = generator.run()
        assert plan.cost == pytest.approx(optimal.cost)


class TestBudgetSlack:
    def test_slack_is_tiny_and_positive(self):
        assert budget_slack(100.0) > 100.0
        assert budget_slack(100.0) < 100.0 + 1e-5
        assert budget_slack(0.0) > 0.0

    def test_slack_scales_with_magnitude(self):
        assert budget_slack(1e12) - 1e12 > budget_slack(1.0) - 1.0


class TestStarOverhead:
    def test_star_queries_disable_pruning(self):
        """§V-B: star selectivities make every plan equal, so APCBI builds
        every plan class DPccp builds (avg_s = 1 in Table III)."""
        query = QueryGenerator(seed=31).generate("star", 8)
        oracle = DPccp(OptimizationContext.for_query(query, HaasCostModel()))
        oracle.run()
        generator = _apcbi(query)
        generator.run()
        assert (
            generator.stats.plan_classes_built
            == oracle.stats.plan_classes_built
        )
