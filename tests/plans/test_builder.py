"""Tests for CREATETREE / BUILDTREE."""

import math

import pytest

from repro.baselines.dpccp import DPccp
from repro.baselines.dpconv import DPconv
from repro.context.context import OptimizationContext
from repro.cost.cout import CoutCostModel
from repro.cost.haas import HaasCostModel
from repro.cost.statistics import StatisticsProvider
from repro.errors import OptimizationError
from repro.plans.builder import PlanBuilder
from repro.plans.memo import MemoTable
from repro.workload.generator import QueryGenerator


@pytest.fixture
def builder(small_query):
    return PlanBuilder(StatisticsProvider(small_query), HaasCostModel())


@pytest.fixture
def leaves(builder, small_query):
    return [builder.leaf(small_query, i) for i in range(small_query.n_relations)]


def _joinable_pair(small_query, leaves):
    u, v = sorted(small_query.graph.edges)[0]
    return leaves[u], leaves[v]


class TestLeaf:
    def test_leaf_matches_catalog(self, builder, small_query):
        leaf = builder.leaf(small_query, 2)
        assert leaf.relation == 2
        assert leaf.cardinality == small_query.catalog.cardinality(2)
        assert leaf.cost == 0.0


class TestCreateTree:
    def test_cost_decomposition(self, builder, small_query, leaves):
        left, right = _joinable_pair(small_query, leaves)
        tree = builder.create_tree(left, right)
        provider = builder.provider
        expected_op = builder.cost_model.join_cost(
            provider.stats(left.vertex_set), provider.stats(right.vertex_set)
        )
        assert tree.operator_cost == expected_op
        assert tree.cost == left.cost + right.cost + expected_op

    def test_cardinality_from_provider(self, builder, small_query, leaves):
        left, right = _joinable_pair(small_query, leaves)
        tree = builder.create_tree(left, right)
        assert tree.cardinality == builder.provider.cardinality(tree.vertex_set)

    def test_counts_trees_created(self, builder, small_query, leaves):
        left, right = _joinable_pair(small_query, leaves)
        builder.create_tree(left, right)
        assert builder.stats.trees_created == 1


class TestBuildTree:
    def test_registers_cheaper_order(self, builder, small_query, leaves):
        left, right = _joinable_pair(small_query, leaves)
        memo = MemoTable()
        registered = builder.build_tree(memo, left, right)
        assert registered is not None
        both = [builder.create_tree(left, right), builder.create_tree(right, left)]
        assert registered.cost == min(t.cost for t in both)

    def test_budget_blocks_registration(self, builder, small_query, leaves):
        left, right = _joinable_pair(small_query, leaves)
        memo = MemoTable()
        assert builder.build_tree(memo, left, right, budget=0.0) is None
        assert memo.best(left.vertex_set | right.vertex_set) is None

    def test_budget_equality_admits(self, builder, small_query, leaves):
        left, right = _joinable_pair(small_query, leaves)
        exact = builder.cost_model.min_join_cost(
            builder.provider.stats(left.vertex_set),
            builder.provider.stats(right.vertex_set),
        )
        memo = MemoTable()
        assert builder.build_tree(memo, left, right, budget=exact) is not None

    def test_does_not_replace_cheaper_incumbent(self, builder, small_query, leaves):
        left, right = _joinable_pair(small_query, leaves)
        memo = MemoTable()
        first = builder.build_tree(memo, left, right)
        second = builder.build_tree(memo, left, right)
        assert second is None  # same cost, incumbent kept
        assert memo.best(first.vertex_set) is first


class TestOperatorCost:
    def test_min_over_both_orders(self, builder, small_query, leaves):
        """``price`` returns both orders' costs bit for bit; callers take
        the operator cost as their ``min``."""
        left, right = _joinable_pair(small_query, leaves)
        provider = builder.provider
        model = builder.cost_model
        left_stats = provider.stats(left.vertex_set)
        right_stats = provider.stats(right.vertex_set)
        expected = (
            model.join_cost(left_stats, right_stats),
            model.join_cost(right_stats, left_stats),
        )
        before = builder.stats.operator_pricings
        prices = builder.price(left.vertex_set, right.vertex_set)
        assert [float(price).hex() for price in prices] == [
            float(price).hex() for price in expected
        ]
        assert builder.stats.operator_pricings == before + 1


class _MisdeclaredCout(CoutCostModel):
    """Declares ``cout_shaped`` but prices every join one above ``C_out``."""

    def join_cost(self, outer, inner):
        return super().join_cost(outer, inner) + 1.0


class _MisdeclaredHaas(HaasCostModel):
    """Declares ``page_priced`` but prices every join one above Haas."""

    def join_cost(self, outer, inner):
        return super().join_cost(outer, inner) + 1.0


class TestBuildSplitTree:
    @pytest.mark.parametrize(
        "algorithm, model",
        [
            (DPccp, _MisdeclaredCout),
            (DPconv, _MisdeclaredCout),
            (DPccp, _MisdeclaredHaas),
        ],
    )
    def test_a_wrong_sweep_declaration_is_caught(self, algorithm, model):
        # Each bottom-up sweep prices from its model's declaration; the
        # one checked rebuild prices the winning tree through join_cost.
        query = QueryGenerator(seed=3).generate("cycle", 6)
        context = OptimizationContext.for_query(query, cost_model=model())
        with pytest.raises(OptimizationError, match="diverges from the swept"):
            algorithm(context).run()
