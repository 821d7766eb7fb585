"""Top-k ranked enumeration: invariants, prefix property, exactness.

The contract under test (ISSUE acceptance criteria):

* ``optimize_topk(query, k)`` returns validated plans in nondecreasing
  (cost, fingerprint) order, all structurally distinct;
* the prefix property — rank 1 at any ``k`` costs exactly (``float.hex``)
  what ``optimize()`` (k=1) returns, and is bit-for-bit its plan whenever
  both runs enumerate alike: every Haas route, ``auto_route=False`` and
  DPccp.  Under a routed ``C_out`` model ``optimize()`` runs DPconv or
  DPccp while the ranked run is top-down, so only the cost is shared;
* full enumerators (pruning "none", DPccp) agree on the exact top-k cost
  vector, and the pruned variants never lose rank 1.
"""

import pytest

from repro import optimize, optimize_topk, run_dpccp
from repro.core.optimizer import Optimizer
from repro.cost.cout import CoutCostModel
from repro.plans.join_tree import plan_fingerprint
from repro.plans.validation import check_finite, validate_plan
from repro.workload.generator import QueryGenerator

PRUNINGS = ("none", "acb", "pcb", "apcb", "apcbi")
COUT_FAMILIES = ("chain", "star", "cycle", "clique", "cyclic", "acyclic")


def _query(family="chain", size=7, seed=11):
    return QueryGenerator(seed=seed).generate(family, size)


class TestRankedInvariants:
    @pytest.mark.parametrize("pruning", PRUNINGS)
    def test_sorted_distinct_validated(self, pruning):
        query = _query("cycle", 7)
        result = optimize_topk(query, 4, pruning=pruning)
        ranked = result.ranked
        assert 1 <= len(ranked) <= 4
        costs = [plan.cost for plan in ranked]
        assert costs == sorted(costs)
        fingerprints = [plan_fingerprint(plan) for plan in ranked]
        assert len(set(fingerprints)) == len(fingerprints)
        for plan in ranked:
            check_finite(plan)
            validate_plan(plan, query)

    def test_no_rank_beats_rank_one(self):
        query = _query("star", 7)
        result = optimize_topk(query, 5)
        assert all(plan.cost >= result.plan.cost for plan in result.ranked)

    def test_k_one_returns_single_plan(self):
        query = _query()
        result = optimize_topk(query, 1)
        assert result.ranked == (result.plan,)
        assert result.ranked_plans == ()

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            optimize_topk(_query(), 0)
        with pytest.raises(ValueError):
            Optimizer(topk=0)


class TestPrefixProperty:
    @pytest.mark.parametrize("pruning", PRUNINGS + ("apcbi_opt",))
    @pytest.mark.parametrize("family,size", [("chain", 8), ("clique", 5)])
    def test_rank_one_bit_identical_to_optimize(self, pruning, family, size):
        query = _query(family, size)
        single = optimize(query, pruning=pruning)
        ranked = optimize_topk(query, 3, pruning=pruning)
        assert ranked.plan.cost.hex() == single.cost.hex()
        assert ranked.plan.sexpr() == single.plan.sexpr()

    def test_dpccp_prefix(self):
        # k = 1 runs the flat page-priced sweep and k = 3 the memotable,
        # an independent oracle of its tie rule; star-9 and clique-8 make
        # many exact cost ties.
        for family, size in (("cycle", 8), ("star", 9), ("clique", 8)):
            query = _query(family, size)
            single = run_dpccp(query)
            ranked = run_dpccp(query, topk=3)
            assert ranked.plan.cost.hex() == single.cost.hex(), family
            assert ranked.plan.sexpr() == single.plan.sexpr(), family

    @pytest.mark.parametrize("family", COUT_FAMILIES)
    def test_cout_unrouted_rank_one_bit_identical(self, family):
        optimizer = Optimizer(cost_model_factory=CoutCostModel, auto_route=False)
        query = _query(family, 7)
        single = optimizer.optimize(query)
        ranked = optimizer.optimize_topk(query, 3)
        assert ranked.plan.cost.hex() == single.cost.hex()
        assert ranked.plan.sexpr() == single.plan.sexpr()

    @pytest.mark.parametrize("family", COUT_FAMILIES)
    def test_cout_dpccp_prefix(self, family):
        query = _query(family, 7)
        single = run_dpccp(query, cost_model_factory=CoutCostModel)
        ranked = run_dpccp(query, cost_model_factory=CoutCostModel, topk=3)
        assert ranked.plan.cost.hex() == single.cost.hex()
        assert ranked.plan.sexpr() == single.plan.sexpr()

    @pytest.mark.parametrize("family", COUT_FAMILIES)
    def test_cout_routed_rank_one_costs_the_same(self, family):
        # The route serves k=1 with DPconv or DPccp and the ranked run
        # top-down, so the plans may differ among equal-cost ties.
        query = _query(family, 7)
        single = optimize(query, cost_model_factory=CoutCostModel)
        ranked = optimize_topk(query, 3, cost_model_factory=CoutCostModel)
        assert single.enumerator in ("dpconv", "dpccp")
        assert ranked.plan.cost.hex() == single.cost.hex()


class TestExactness:
    @pytest.mark.parametrize("family,size", [("chain", 7), ("star", 6), ("cycle", 7)])
    def test_full_enumerators_agree_on_topk(self, family, size):
        # Pruning "none" enumerates everything, as does DPccp: with the
        # same k-bounded memo they must produce identical cost vectors.
        query = _query(family, size)
        top_down = optimize_topk(query, 4, pruning="none")
        bottom_up = run_dpccp(query, topk=4)
        assert [p.cost.hex() for p in top_down.ranked] == [
            p.cost.hex() for p in bottom_up.ranked
        ]

    @pytest.mark.parametrize("pruning", ("acb", "pcb", "apcb", "apcbi"))
    def test_pruned_variants_keep_exact_rank_one(self, pruning):
        # Pruning may legitimately cut ranks beyond the first (the bounds
        # only protect rank 1), but rank 1 must stay exact, and whatever
        # ranks survive can never beat the true k-best at the same rank.
        query = _query("chain", 7, seed=3)
        exact = [p.cost.hex() for p in run_dpccp(query, topk=3).ranked]
        got_plans = optimize_topk(query, 3, pruning=pruning).ranked
        got = [p.cost.hex() for p in got_plans]
        assert got[0] == exact[0]
        for rank, plan in enumerate(got_plans):
            assert plan.cost >= float.fromhex(exact[rank])


class TestCachedRanked:
    def test_cache_hit_replays_full_ranked_list(self):
        from repro.context import PlanCache

        cache = PlanCache()
        optimizer = Optimizer(pruning="apcbi", plan_cache=cache, topk=3)
        query = _query("cycle", 7)
        cold = optimizer.optimize_topk(query, k=3)
        assert cache.misses == 1
        warm = optimizer.optimize_topk(query, k=3)
        assert cache.hits == 1
        assert [p.cost.hex() for p in warm.ranked] == [
            p.cost.hex() for p in cold.ranked
        ]
        assert [p.sexpr() for p in warm.ranked] == [
            p.sexpr() for p in cold.ranked
        ]

    def test_ranked_and_single_best_entries_do_not_collide(self):
        from repro.context import PlanCache

        cache = PlanCache()
        single = Optimizer(pruning="apcbi", plan_cache=cache)
        ranked = Optimizer(pruning="apcbi", plan_cache=cache, topk=3)
        query = _query("chain", 6)
        single.optimize(query)
        result = ranked.optimize_topk(query, k=3)
        # Different keys: the ranked run must not have hit the k=1 entry.
        assert cache.misses == 2
        assert len(result.ranked) > 1

    def test_permuted_repeat_hits_with_ranked_replay(self):
        import random

        from repro.context import PlanCache

        cache = PlanCache()
        optimizer = Optimizer(pruning="apcbi", plan_cache=cache, topk=3)
        query = _query("cycle", 7)
        cold = optimizer.optimize_topk(query, k=3)
        mapping = list(range(query.n_relations))
        random.Random(5).shuffle(mapping)
        permuted = query.relabel(mapping)
        warm = optimizer.optimize_topk(permuted, k=3)
        assert cache.hits == 1
        assert [p.cost.hex() for p in warm.ranked] == [
            p.cost.hex() for p in cold.ranked
        ]
        for plan in warm.ranked:
            validate_plan(plan, permuted)
