"""The paper's central safety property: pruning is risk-free (§IV).

Every pruned plan generator must return exactly the optimal cost that
DPccp finds, on every query, for every enumerator, for every advancement
configuration.  These are the most important tests in the suite.
"""

import pytest
from hypothesis import given, settings

from repro.baselines.dpccp import DPccp
from repro.core.advancements import ADVANCEMENT_NAMES, AdvancementConfig
from repro.core.optimizer import Optimizer, run_dpccp
from repro.cost.cout import CoutCostModel
from repro.cost.haas import HaasCostModel
from tests.conftest import small_queries

ENUMERATORS = ("mincut_lazy", "mincut_branch", "mincut_conservative")
PRUNINGS = ("none", "acb", "pcb", "apcb", "apcbi", "apcbi_opt")


def _assert_optimal(query, enumerator, pruning, config=None, cost_model=HaasCostModel):
    baseline = run_dpccp(query, cost_model)
    # auto_route off: under C_out the facade would otherwise route to
    # DPconv or DPccp, and the pruning under test would never run.
    result = Optimizer(
        enumerator=enumerator,
        pruning=pruning,
        cost_model_factory=cost_model,
        config=config,
        auto_route=False,
    ).optimize(query)
    assert result.pruning == pruning
    assert result.cost == pytest.approx(baseline.cost, rel=1e-9), (
        f"{enumerator}/{pruning} lost optimality on {query.describe()}"
    )
    assert result.plan.vertex_set == query.graph.all_vertices


class TestEveryPruningPreservesOptimality:
    @pytest.mark.parametrize("pruning", PRUNINGS)
    @given(query=small_queries(max_n=7))
    def test_with_conservative_enumerator(self, pruning, query):
        _assert_optimal(query, "mincut_conservative", pruning)

    @pytest.mark.parametrize("enumerator", ENUMERATORS)
    @given(query=small_queries(max_n=6))
    def test_apcbi_with_every_enumerator(self, enumerator, query):
        _assert_optimal(query, enumerator, "apcbi")

    @pytest.mark.parametrize("enumerator", ENUMERATORS)
    @given(query=small_queries(max_n=6))
    def test_apcb_with_every_enumerator(self, enumerator, query):
        _assert_optimal(query, enumerator, "apcb")


class TestAdvancementConfigsPreserveOptimality:
    @pytest.mark.parametrize("name", ADVANCEMENT_NAMES)
    @given(query=small_queries(max_n=6))
    def test_single_advancement(self, name, query):
        _assert_optimal(
            query, "mincut_conservative", "apcbi", AdvancementConfig.only(name)
        )

    @pytest.mark.parametrize("name", ADVANCEMENT_NAMES)
    @given(query=small_queries(max_n=6))
    def test_all_but_one(self, name, query):
        _assert_optimal(
            query, "mincut_conservative", "apcbi", AdvancementConfig.all_but(name)
        )

    @given(query=small_queries(max_n=6))
    def test_all_off_matches_apcb(self, query):
        _assert_optimal(
            query, "mincut_conservative", "apcbi", AdvancementConfig.all_off()
        )


class TestAlternativeCostModel:
    @given(query=small_queries(max_n=6))
    def test_apcbi_under_cout(self, query):
        _assert_optimal(
            query, "mincut_conservative", "apcbi", cost_model=CoutCostModel
        )

    @given(query=small_queries(max_n=6))
    def test_apcb_under_cout(self, query):
        _assert_optimal(query, "mincut_conservative", "apcb", cost_model=CoutCostModel)


class TestPlanCostInternalConsistency:
    @given(query=small_queries(max_n=6))
    def test_reported_cost_equals_tree_cost(self, query):
        result = Optimizer(pruning="apcbi").optimize(query)
        assert result.cost == result.plan.cost
        # Recompute the tree cost from its parts.
        from repro.plans.join_tree import JoinNode

        total = 0.0
        stack = [result.plan]
        while stack:
            node = stack.pop()
            if isinstance(node, JoinNode):
                total += node.operator_cost
                stack.extend((node.left, node.right))
        assert total == pytest.approx(result.cost, rel=1e-9)
