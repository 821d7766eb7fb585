"""Budget-oracle properties of the bounded plan generators.

Branch-and-bound contracts, checked against the DPccp-computed optimum:

* a request with budget >= the optimal cost returns an optimal tree;
* a request with budget < the optimal cost returns ``None``;
* after any sequence of requests, every proven lower bound ``lB[S]`` is
  admissible (never exceeds the true optimum of its class) and every
  upper bound ``uB[S]`` is sound (never below it).
"""

import pytest
from hypothesis import given, strategies as st

from repro.baselines.dpccp import DPccp
from repro.core.acb import AcbPlanGenerator
from repro.core.apcb import ApcbPlanGenerator
from repro.core.apcbi import ApcbiPlanGenerator
from repro.cost.haas import HaasCostModel
from repro.partitioning import get_partitioning
from tests.conftest import small_queries

GENERATORS = (AcbPlanGenerator, ApcbPlanGenerator, ApcbiPlanGenerator)


def _optimum(query):
    return DPccp(query, HaasCostModel()).run().cost


@pytest.mark.parametrize("generator_cls", GENERATORS)
class TestBudgetThreshold:
    @given(query=small_queries(max_n=6), factor=st.floats(1.0, 4.0))
    def test_sufficient_budget_returns_optimum(self, generator_cls, query, factor):
        optimum = _optimum(query)
        generator = generator_cls(
            query, get_partitioning("mincut_conservative"), HaasCostModel()
        )
        tree = generator._tdpg(query.graph.all_vertices, optimum * factor)
        assert tree is not None
        assert tree.cost == pytest.approx(optimum, rel=1e-9)

    @given(query=small_queries(max_n=6), factor=st.floats(0.05, 0.98))
    def test_insufficient_budget_returns_none(self, generator_cls, query, factor):
        optimum = _optimum(query)
        generator = generator_cls(
            query, get_partitioning("mincut_conservative"), HaasCostModel()
        )
        assert generator._tdpg(query.graph.all_vertices, optimum * factor) is None


@pytest.mark.parametrize("generator_cls", GENERATORS)
class TestBoundAdmissibilityAfterMixedRequests:
    @given(
        query=small_queries(max_n=6),
        factors=st.lists(st.floats(0.1, 2.0), min_size=1, max_size=4),
    )
    def test_lower_bounds_stay_admissible(self, generator_cls, query, factors):
        """Stress the tables with a mix of failing and succeeding requests,
        then verify every recorded bound against the DPccp oracle."""
        oracle = DPccp(query, HaasCostModel())
        oracle.run()
        optima = oracle.optimal_class_costs()
        optimum = optima[query.graph.all_vertices]
        generator = generator_cls(
            query, get_partitioning("mincut_conservative"), HaasCostModel()
        )
        for factor in factors:
            generator._tdpg(query.graph.all_vertices, optimum * factor)
        for vertex_set, true_cost in optima.items():
            assert generator.bounds.lower(vertex_set) <= true_cost + 1e-6 * max(
                1.0, true_cost
            )
            if isinstance(generator, ApcbiPlanGenerator):
                upper = generator.bounds.upper(vertex_set)
                if upper is not None:
                    assert upper >= true_cost - 1e-6 * max(1.0, true_cost)

    @given(query=small_queries(max_n=6))
    def test_memo_entries_are_optimal(self, generator_cls, query):
        """Registered trees are optimal for their class (the invariant the
        improved LBE relies on)."""
        oracle = DPccp(query, HaasCostModel())
        oracle.run()
        optima = oracle.optimal_class_costs()
        generator = generator_cls(
            query, get_partitioning("mincut_conservative"), HaasCostModel()
        )
        generator.run()
        for vertex_set, tree in generator.memo.entries():
            assert tree.cost == pytest.approx(optima[vertex_set], rel=1e-9)
