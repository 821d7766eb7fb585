"""Tests for LBE, including the advancement-1 improved estimator."""

import pytest
from hypothesis import given

from repro.context import OptimizationContext
from repro.cost.haas import HaasCostModel
from repro.cost.lower_bound import ImprovedLowerBoundEstimator, LowerBoundEstimator
from repro.cost.statistics import StatisticsProvider
from repro.baselines.dpccp import DPccp, enumerate_csg_cmp_pairs
from repro.plans.memo import MemoTable
from repro.core.bounds import BoundsTable
from tests.conftest import small_queries


class TestBaselineEstimator:
    def test_equals_cost_model_lower_bound(self, small_query):
        provider = StatisticsProvider(small_query)
        model = HaasCostModel()
        lbe = LowerBoundEstimator(provider, model)
        assert lbe.estimate(0b01, 0b10) == model.lower_bound(
            provider.stats(0b01), provider.stats(0b10)
        )

    @given(small_queries(max_n=6))
    def test_admissible_against_true_optima(self, query):
        """LBE(S1,S2) never exceeds the cheapest real tree through that ccp."""
        model = HaasCostModel()
        algorithm = DPccp(OptimizationContext.for_query(query, model))
        algorithm.run()
        optima = algorithm.optimal_class_costs()
        provider = StatisticsProvider(query)
        lbe = LowerBoundEstimator(provider, model)
        for left, right in enumerate_csg_cmp_pairs(query.graph):
            true_cost = (
                optima[left]
                + optima[right]
                + model.min_join_cost(provider.stats(left), provider.stats(right))
            )
            assert lbe.estimate(left, right) <= true_cost + 1e-6


class TestImprovedEstimator:
    def _estimators(self, query):
        provider = StatisticsProvider(query)
        model = HaasCostModel()
        memo = MemoTable()
        bounds = BoundsTable()
        improved = ImprovedLowerBoundEstimator(provider, model, memo, bounds)
        return improved, memo, bounds, provider, model

    def test_without_knowledge_equals_baseline(self, small_query):
        improved, _, _, provider, model = self._estimators(small_query)
        baseline = LowerBoundEstimator(provider, model)
        assert improved.estimate(0b01, 0b10) == baseline.estimate(0b01, 0b10)

    def test_adds_proven_lower_bounds(self, small_query):
        improved, _, bounds, provider, model = self._estimators(small_query)
        base = improved.estimate(0b01, 0b10)
        bounds.raise_lower(0b01, 500.0)
        assert improved.estimate(0b01, 0b10) == pytest.approx(base + 500.0)

    def test_known_tree_cost_beats_lower_bound(self, small_query):
        improved, memo, bounds, provider, model = self._estimators(small_query)
        bounds.raise_lower(0b01, 500.0)
        from repro.plans.join_tree import LeafNode

        memo.register(LeafNode(0, provider.cardinality(0b01)))
        base = LowerBoundEstimator(provider, model).estimate(0b01, 0b10)
        # Registered leaf has cost 0, which replaces the 500 bound.
        assert improved.estimate(0b01, 0b10) == pytest.approx(base)
