"""Tests for the unpruned top-down generator (TDPLANGEN)."""

import itertools

import pytest
from hypothesis import given

from repro.baselines.dpccp import DPccp
from repro.context import OptimizationContext
from repro.core.plangen import TopDownPlanGenerator
from repro.cost.haas import HaasCostModel
from repro.cost.statistics import StatisticsProvider
from repro.partitioning import get_partitioning
from repro.workload.generator import QueryGenerator
from tests.conftest import small_queries


def _brute_force_optimum(query):
    """Exhaustive optimum over all bushy cross-product-free trees."""
    provider = StatisticsProvider(query)
    model = HaasCostModel()
    graph = query.graph
    best = {}
    for index in range(query.n_relations):
        best[1 << index] = 0.0

    def solve(subset):
        if subset in best:
            return best[subset]
        cheapest = float("inf")
        sub = (subset - 1) & subset
        while sub:
            other = subset & ~sub
            if (
                other
                and graph.is_connected(sub)
                and graph.is_connected(other)
                and graph.are_connected(sub, other)
            ):
                cost = (
                    solve(sub)
                    + solve(other)
                    + model.min_join_cost(provider.stats(sub), provider.stats(other))
                )
                cheapest = min(cheapest, cost)
            sub = (sub - 1) & subset
        best[subset] = cheapest
        return cheapest

    return solve(graph.all_vertices)


class TestOptimality:
    @given(small_queries(max_n=6))
    def test_matches_brute_force(self, query):
        generator = TopDownPlanGenerator(
            OptimizationContext.for_query(query),
            get_partitioning("mincut_conservative"),
        )
        plan = generator.run()
        bottom_up = DPccp(OptimizationContext.for_query(query, HaasCostModel())).run()
        expected = _brute_force_optimum(query)
        assert plan.cost == pytest.approx(expected, rel=1e-9)
        assert bottom_up.cost == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize(
        "enumerator", ["naive", "mincut_lazy", "mincut_branch", "mincut_conservative"]
    )
    def test_all_enumerators_agree(self, small_query, enumerator):
        plan = TopDownPlanGenerator(
            OptimizationContext.for_query(small_query),
            get_partitioning(enumerator),
        ).run()
        reference = TopDownPlanGenerator(
            OptimizationContext.for_query(small_query),
            get_partitioning("naive"),
        ).run()
        assert plan.cost == pytest.approx(reference.cost)


class TestPlanShape:
    def test_plan_covers_all_relations(self, small_query):
        plan = TopDownPlanGenerator(
            OptimizationContext.for_query(small_query),
            get_partitioning("mincut_conservative"),
        ).run()
        assert plan.vertex_set == small_query.graph.all_vertices

    def test_plan_has_no_cross_products(self, cyclic_query):
        from repro.plans.join_tree import JoinNode

        plan = TopDownPlanGenerator(
            OptimizationContext.for_query(cyclic_query),
            get_partitioning("mincut_conservative"),
        ).run()
        stack = [plan]
        while stack:
            node = stack.pop()
            if isinstance(node, JoinNode):
                assert cyclic_query.graph.are_connected(
                    node.left.vertex_set, node.right.vertex_set
                )
                stack.extend((node.left, node.right))


class TestMemoBehaviour:
    def test_every_plan_class_built_exactly_once(self, small_query):
        generator = TopDownPlanGenerator(
            OptimizationContext.for_query(small_query),
            get_partitioning("mincut_conservative"),
        )
        generator.run()
        # Without pruning, top-down memoization builds every connected
        # plan class, same as DPccp.
        graph = small_query.graph
        connected = sum(
            1
            for s in range(1, 1 << graph.n_vertices)
            if s & (s - 1) and graph.is_connected(s)
        )
        assert generator.stats.plan_classes_built == connected

    def test_single_relation_query(self):
        query = QueryGenerator(seed=1).generate("chain", 1)
        plan = TopDownPlanGenerator(
            OptimizationContext.for_query(query),
            get_partitioning("mincut_conservative"),
        ).run()
        assert plan.cost == 0.0
        assert plan.vertex_set == 1
