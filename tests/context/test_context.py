"""OptimizationContext construction, sharing and derivation semantics."""

import pytest

from repro.context import OptimizationContext, statistics_for
from repro.cost.cout import CoutCostModel
from repro.cost.haas import HaasCostModel
from repro.graph import bitset
from repro.resilience.budget import Budget
from repro.stats.counters import OptimizationStats
from repro.workload.generator import QueryGenerator


@pytest.fixture
def query():
    return QueryGenerator(seed=13).generate("cycle", 6)


class TestForQuery:
    def test_default_model_is_haas(self, query):
        context = OptimizationContext.for_query(query)
        assert isinstance(context.cost_model, HaasCostModel)

    def test_accepts_instance_factory_or_none(self, query):
        by_instance = OptimizationContext.for_query(query, HaasCostModel())
        by_factory = OptimizationContext.for_query(query, HaasCostModel)
        assert isinstance(by_instance.cost_model, HaasCostModel)
        assert isinstance(by_factory.cost_model, HaasCostModel)

    def test_binds_provider_dependent_models(self, query):
        context = OptimizationContext.for_query(query, CoutCostModel)
        left = context.provider.stats(0b01)
        right = context.provider.stats(0b10)
        assert context.cost_model.join_cost(left, right) == (
            context.provider.cardinality(0b11)
        )

    def test_builder_shares_the_context_stats(self, query):
        stats = OptimizationStats()
        context = OptimizationContext.for_query(query, stats=stats)
        assert context.stats is stats
        assert context.builder.stats is stats

    def test_budget_is_carried(self, query):
        budget = Budget(max_expansions=10)
        context = OptimizationContext.for_query(query, budget=budget)
        assert context.budget is budget


class TestDerivedContexts:
    def test_relabeled_shares_stats_and_budget_not_provider(self, query):
        budget = Budget(max_expansions=10)
        context = OptimizationContext.for_query(query, budget=budget)
        mapping = list(reversed(range(query.n_relations)))
        relabeled = context.relabeled(mapping)
        assert relabeled.stats is context.stats
        assert relabeled.budget is context.budget
        assert relabeled.provider is not context.provider
        assert relabeled.query.n_relations == query.n_relations

    def test_relabeled_statistics_are_consistent(self, query):
        context = OptimizationContext.for_query(query)
        mapping = list(reversed(range(query.n_relations)))
        relabeled = context.relabeled(mapping)
        for index in range(query.n_relations):
            assert relabeled.provider.cardinality(
                bitset.singleton(mapping[index])
            ) == context.provider.cardinality(bitset.singleton(index))

    def test_fork_shares_provider_and_model_fresh_stats(self, query):
        context = OptimizationContext.for_query(query)
        fork = context.fork()
        assert fork.provider is context.provider
        assert fork.cost_model is context.cost_model
        assert fork.stats is not context.stats
        assert fork.budget is context.budget

    def test_fork_memoization_is_shared(self, query):
        context = OptimizationContext.for_query(query)
        before = context.provider.cache_size()
        fork = context.fork()
        fork.provider.stats(0b111)
        assert context.provider.cache_size() > before


class TestStatisticsFor:
    def test_blessed_constructor_matches_direct_statistics(self, query):
        provider = statistics_for(query)
        assert provider.cardinality(0b1) == query.catalog.cardinality(0)
