"""Tests for the C_out cost model."""

import pytest

from repro.context import OptimizationContext, statistics_for
from repro.cost.cout import CoutCostModel
from repro.workload.generator import QueryGenerator


class TestBinding:
    def test_unbound_model_raises(self, small_query):
        model = CoutCostModel()
        provider = statistics_for(small_query)
        with pytest.raises(RuntimeError):
            model.join_cost(provider.stats(0b01), provider.stats(0b10))

    def test_bind_returns_a_copy_and_leaves_receiver_unbound(self, small_query):
        model = CoutCostModel()
        bound = model.bind(statistics_for(small_query))
        assert bound is not model
        assert isinstance(bound, CoutCostModel)
        # The receiver stays unbound: binding must never mutate it.
        provider = statistics_for(small_query)
        with pytest.raises(RuntimeError):
            model.join_cost(provider.stats(0b01), provider.stats(0b10))

    def test_one_instance_across_two_queries_does_not_alias(self):
        """Regression: a shared C_out instance must not keep the first
        query's statistics when a second generator/context binds it.

        Before bind returned a copy, the second bind mutated the shared
        instance in place — but an enumerator holding the model from the
        first bind silently priced joins with the *second* query's
        cardinalities (or vice versa, depending on call order).
        """
        generator = QueryGenerator(seed=99)
        query_a = generator.generate("chain", 5)
        query_b = generator.generate("star", 5)
        shared = CoutCostModel()
        context_a = OptimizationContext.for_query(query_a, cost_model=shared)
        context_b = OptimizationContext.for_query(query_b, cost_model=shared)
        stats_a = context_a.provider.stats(0b01), context_a.provider.stats(0b10)
        stats_b = context_b.provider.stats(0b01), context_b.provider.stats(0b10)
        # Each context's bound model prices with its own query's statistics.
        assert context_a.cost_model.join_cost(
            *stats_a
        ) == context_a.provider.cardinality(0b11)
        assert context_b.cost_model.join_cost(
            *stats_b
        ) == context_b.provider.cardinality(0b11)
        # Which are genuinely different numbers for these two queries.
        assert context_a.provider.cardinality(
            0b11
        ) != context_b.provider.cardinality(0b11)
        # And binding never touched the shared parameter instance.
        with pytest.raises(RuntimeError):
            shared.join_cost(*stats_a)

    def test_a_bound_subclass_keeps_its_type_and_declarations(self, small_query):
        class Generic(CoutCostModel):
            cout_shaped = False

        context = OptimizationContext.for_query(small_query, cost_model=Generic())
        assert type(context.cost_model) is Generic
        assert context.cost_model.cout_shaped is False
        provider = context.provider
        assert context.cost_model.join_cost(
            provider.stats(0b01), provider.stats(0b10)
        ) == provider.cardinality(0b11)


class TestSemantics:
    def test_cost_is_output_cardinality(self, small_query):
        provider = statistics_for(small_query)
        model = CoutCostModel().bind(provider)
        left, right = provider.stats(0b01), provider.stats(0b10)
        assert model.join_cost(left, right) == provider.cardinality(0b11)

    def test_symmetric(self, small_query):
        provider = statistics_for(small_query)
        model = CoutCostModel().bind(provider)
        left, right = provider.stats(0b01), provider.stats(0b10)
        assert model.join_cost(left, right) == model.join_cost(right, left)

    def test_lower_bound_is_exact(self, small_query):
        provider = statistics_for(small_query)
        model = CoutCostModel().bind(provider)
        left, right = provider.stats(0b01), provider.stats(0b10)
        assert model.lower_bound(left, right) == model.join_cost(left, right)

    def test_join_costs_price_both_orders(self, small_query):
        provider = statistics_for(small_query)
        model = CoutCostModel().bind(provider)
        left, right = provider.stats(0b01), provider.stats(0b10)
        pair = model.join_costs(left, right)
        assert [cost.hex() for cost in pair] == [
            model.join_cost(left, right).hex(),
            model.join_cost(right, left).hex(),
        ]
