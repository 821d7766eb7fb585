"""Tests for the GOO heuristic."""

import pytest
from hypothesis import given

from repro.baselines.dpccp import DPccp
from repro.core.goo import run_goo
from repro.cost.haas import HaasCostModel
from repro.cost.statistics import StatisticsProvider
from repro.plans.builder import PlanBuilder
from tests.conftest import small_queries


def _builder(query):
    return PlanBuilder(StatisticsProvider(query), HaasCostModel())


class TestTreeValidity:
    def test_covers_all_relations(self, small_query):
        result = run_goo(small_query, _builder(small_query))
        assert result.tree.vertex_set == small_query.graph.all_vertices
        assert sorted(result.tree.relation_indices()) == list(
            range(small_query.n_relations)
        )

    def test_every_join_is_edge_connected(self, cyclic_query):
        """GOO never introduces cross products."""
        from repro.plans.join_tree import JoinNode

        result = run_goo(cyclic_query, _builder(cyclic_query))
        stack = [result.tree]
        while stack:
            node = stack.pop()
            if isinstance(node, JoinNode):
                assert cyclic_query.graph.are_connected(
                    node.left.vertex_set, node.right.vertex_set
                )
                stack.extend((node.left, node.right))

    def test_single_relation_query(self, generator):
        query = generator.generate("chain", 1)
        result = run_goo(query, _builder(query))
        assert result.tree.vertex_set == 1
        assert result.cost == 0.0


class TestUpperBounds:
    def test_subtree_costs_cover_every_join_node(self, small_query):
        result = run_goo(small_query, _builder(small_query))
        assert len(result.subtree_costs) == small_query.n_relations - 1
        assert result.tree.vertex_set in result.subtree_costs
        assert result.subtree_costs[result.tree.vertex_set] == result.cost

    @given(small_queries(max_n=6))
    def test_goo_cost_upper_bounds_optimal(self, query):
        """A heuristic plan can never beat the optimum (uB validity)."""
        optimal = DPccp(query, HaasCostModel()).run()
        result = run_goo(query, _builder(query))
        assert result.cost >= optimal.cost - 1e-6 * max(1.0, optimal.cost)

    @given(small_queries(max_n=6))
    def test_every_subtree_cost_upper_bounds_its_class(self, query):
        algorithm = DPccp(query, HaasCostModel())
        algorithm.run()
        optima = algorithm.optimal_class_costs()
        result = run_goo(query, _builder(query))
        for vertex_set, cost in result.subtree_costs.items():
            best = optima.get(vertex_set)
            assert best is not None
            assert cost >= best - 1e-6 * max(1.0, best)


class TestDeterminism:
    def test_same_query_same_tree(self, small_query):
        a = run_goo(small_query, _builder(small_query))
        b = run_goo(small_query, _builder(small_query))
        assert a.tree.sexpr() == b.tree.sexpr()
        assert a.cost == b.cost

    def test_repr(self, small_query):
        assert "GooResult" in repr(run_goo(small_query, _builder(small_query)))
