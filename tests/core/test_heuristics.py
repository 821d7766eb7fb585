"""Tests for the pluggable join heuristics."""

import pytest
from hypothesis import given

from repro.baselines.dpccp import DPccp
from repro.context import OptimizationContext
from repro.cost.haas import HaasCostModel
from repro.cost.statistics import StatisticsProvider
from repro.errors import UnknownAlgorithmError
from repro.heuristics import (
    HEURISTICS,
    GreedyOperatorOrdering,
    MinSelectivity,
    QuickPick,
    available_heuristics,
    get_heuristic,
)
from repro.heuristics import quickpick
from repro.plans.builder import PlanBuilder
from repro.plans.validation import validate_plan
from tests.conftest import small_queries


def _builder(query):
    return PlanBuilder(StatisticsProvider(query), HaasCostModel())


class TestRegistry:
    def test_registered_heuristics(self):
        assert available_heuristics() == [
            "goo", "ikkbz", "min_selectivity", "quickpick",
        ]

    def test_lookup(self):
        assert isinstance(get_heuristic("goo"), GreedyOperatorOrdering)
        assert isinstance(get_heuristic("quickpick"), QuickPick)
        assert isinstance(get_heuristic("min_selectivity"), MinSelectivity)

    def test_unknown_raises(self):
        with pytest.raises(UnknownAlgorithmError):
            get_heuristic("genetic")

    def test_factories_return_fresh_instances(self):
        assert get_heuristic("quickpick") is not get_heuristic("quickpick")


@pytest.mark.parametrize("name", sorted(HEURISTICS))
class TestEveryHeuristic:
    @given(query=small_queries(max_n=6))
    def test_tree_is_valid_and_upper_bounds_optimum(self, name, query):
        heuristic = get_heuristic(name)
        result = heuristic.build(query, _builder(query))
        validate_plan(result.tree, query, HaasCostModel())
        optimal = DPccp(OptimizationContext.for_query(query, HaasCostModel())).run()
        assert result.cost >= optimal.cost - 1e-6 * max(1.0, optimal.cost)

    def test_subtree_costs_cover_all_joins(self, name, small_query):
        result = get_heuristic(name).build(small_query, _builder(small_query))
        assert len(result.subtree_costs) == small_query.n_relations - 1

    def test_deterministic(self, name, small_query):
        a = get_heuristic(name).build(small_query, _builder(small_query))
        b = get_heuristic(name).build(small_query, _builder(small_query))
        assert a.tree.sexpr() == b.tree.sexpr()


class TestQuickPick:
    def test_more_trials_never_worse(self, cyclic_query, monkeypatch):
        monkeypatch.setattr(quickpick, "N_TRIALS", 1)
        few = QuickPick(seed=5).build(cyclic_query, _builder(cyclic_query))
        monkeypatch.setattr(quickpick, "N_TRIALS", 32)
        many = QuickPick(seed=5).build(cyclic_query, _builder(cyclic_query))
        assert many.cost <= few.cost

    def test_seed_controls_sampling(self, cyclic_query):
        a = QuickPick(seed=1).build(cyclic_query, _builder(cyclic_query))
        b = QuickPick(seed=2).build(cyclic_query, _builder(cyclic_query))
        # Different seeds may coincide on tiny queries, but the API contract
        # is that the same seed reproduces exactly.
        again = QuickPick(seed=1).build(
            cyclic_query, _builder(cyclic_query)
        )
        assert a.tree.sexpr() == again.tree.sexpr()
        assert a.cost == again.cost
        assert b.cost > 0


class TestHeuristicsDiffer:
    def test_goo_and_min_selectivity_can_disagree(self, generator):
        """The two greedy criteria produce different trees somewhere."""
        differs = False
        for seed in range(8):
            query = generator.generate("cyclic", 8, "random")
            goo = get_heuristic("goo").build(query, _builder(query))
            minsel = get_heuristic("min_selectivity").build(query, _builder(query))
            if goo.tree.sexpr() != minsel.tree.sexpr():
                differs = True
                break
        assert differs
