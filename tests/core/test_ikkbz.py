"""Tests for the IKKBZ heuristic (extension)."""

import itertools

import pytest
from hypothesis import given

from repro.baselines.dpccp import DPccp
from repro.context import OptimizationContext
from repro.cost.cout import CoutCostModel
from repro.cost.haas import HaasCostModel
from repro.cost.statistics import StatisticsProvider
from repro.heuristics.ikkbz import IKKBZ
from repro.plans.builder import PlanBuilder
from repro.plans.join_tree import JoinNode
from repro.plans.validation import validate_plan
from tests.conftest import small_queries


def _haas_builder(query):
    return PlanBuilder(StatisticsProvider(query), HaasCostModel())


def _cout_builder(query):
    provider = StatisticsProvider(query)
    return PlanBuilder(provider, CoutCostModel().bind(provider))


def _optimal_left_deep_cout(query):
    """Brute force: the cheapest connected left-deep order under C_out."""
    provider = StatisticsProvider(query)
    graph = query.graph
    best = float("inf")
    for order in itertools.permutations(range(query.n_relations)):
        prefix = 1 << order[0]
        cost = 0.0
        feasible = True
        for vertex in order[1:]:
            if not graph.are_connected(prefix, 1 << vertex):
                feasible = False
                break
            prefix |= 1 << vertex
            cost += provider.cardinality(prefix)
        if feasible:
            best = min(best, cost)
    return best


class TestPlanShape:
    @given(query=small_queries(max_n=6))
    def test_valid_tree(self, query):
        result = IKKBZ().build(query, _haas_builder(query))
        validate_plan(result.tree, query, HaasCostModel())

    @given(query=small_queries(max_n=6))
    def test_left_deep(self, query):
        """IKKBZ emits linear (left-deep modulo commutation) trees."""
        result = IKKBZ().build(query, _haas_builder(query))
        node = result.tree
        while isinstance(node, JoinNode):
            # one side of every join is a single relation
            left_single = node.left.vertex_set & (node.left.vertex_set - 1) == 0
            right_single = node.right.vertex_set & (node.right.vertex_set - 1) == 0
            assert left_single or right_single
            node = node.right if left_single else node.left

    def test_single_relation(self, generator):
        query = generator.generate("chain", 1)
        result = IKKBZ().build(query, _haas_builder(query))
        assert result.tree.vertex_set == 1


class TestOptimality:
    @given(
        query=small_queries(
            families=("chain", "star", "acyclic"), min_n=3, max_n=6
        )
    )
    def test_left_deep_optimal_under_cout_on_trees(self, query):
        """The textbook IKKBZ guarantee: optimal left-deep plan for tree
        query graphs under an ASI cost function (C_out is one)."""
        result = IKKBZ().build(query, _cout_builder(query))
        expected = _optimal_left_deep_cout(query)
        assert result.cost == pytest.approx(expected, rel=1e-9)

    @given(query=small_queries(max_n=6))
    def test_sound_upper_bound_everywhere(self, query):
        """Even on cyclic graphs (spanning-tree fallback) the result is a
        real plan, hence a sound upper bound for APCBI."""
        optimal = DPccp(OptimizationContext.for_query(query, HaasCostModel())).run()
        result = IKKBZ().build(query, _haas_builder(query))
        assert result.cost >= optimal.cost - 1e-6 * max(1.0, optimal.cost)


class TestSubtreeCosts:
    def test_covers_every_join(self, small_query):
        result = IKKBZ().build(small_query, _haas_builder(small_query))
        assert len(result.subtree_costs) == small_query.n_relations - 1
