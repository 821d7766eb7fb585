"""Degradation-ladder behaviour: every rung, determinism, full coverage."""

import pytest

from repro.context import OptimizationContext
from repro.core.optimizer import Optimizer
from repro.cost.haas import HaasCostModel
from repro.errors import ReproError, ResilienceError
from repro.plans.validation import check_finite, validate_plan
from repro.resilience import Budget, FaultInjector, ResilientOptimizer
from repro.workload.generator import QueryGenerator

FAMILIES = ("chain", "star", "cycle", "clique", "acyclic")


def _query(family, n=8, seed=17):
    return QueryGenerator(seed=seed).generate(family, n)


class TestExactRung:
    @pytest.mark.parametrize("family", ("chain", "star", "clique"))
    def test_unbudgeted_run_equals_plain_optimizer(self, family):
        query = _query(family, n=7)
        exact = Optimizer().optimize(query)
        resilient = ResilientOptimizer().optimize(query)
        assert not resilient.degraded
        assert resilient.rung == "exact"
        assert resilient.cost == exact.cost
        assert resilient.plan.sexpr() == exact.plan.sexpr()
        assert resilient.exact is not None

    @pytest.mark.parametrize("family", ("chain", "star", "clique"))
    def test_unreachable_budget_is_identical_to_no_budget(self, family):
        """Determinism: a budget that never fires must not perturb the run."""
        query = _query(family, n=7)
        unbudgeted = ResilientOptimizer().optimize(query)
        budgeted = ResilientOptimizer().optimize(
            query, budget=Budget(deadline_seconds=3600.0, max_expansions=10**9)
        )
        assert budgeted.rung == "exact"
        assert budgeted.cost == unbudgeted.cost
        assert budgeted.plan.sexpr() == unbudgeted.plan.sexpr()


class TestBestSoFarRung:
    def test_tight_expansion_budget_salvages_a_plan(self):
        query = _query("clique", n=8)
        result = ResilientOptimizer().optimize(
            query, budget=Budget(max_expansions=10)
        )
        # APCBI builds a complete heuristic tree before enumeration, so the
        # salvage rung always has something valid to return.
        assert result.rung == "best_so_far"
        check_finite(result.plan)
        validate_plan(result.plan, query)
        assert result.report.budget_exceeded == "expansions"
        assert result.report.budget is not None
        assert result.report.budget["exhausted"] == "expansions"


class TestRankedSalvage:
    """Top-k best-so-far: the rung yields from the ranked stream."""

    def test_topk_salvage_returns_rank_ordered_stream(self):
        query = _query("clique", n=8)
        result = ResilientOptimizer(topk=3).optimize(
            query, budget=Budget(max_expansions=10)
        )
        assert result.rung == "best_so_far"
        ranked = result.ranked
        assert ranked[0] is result.plan
        costs = [plan.cost for plan in ranked]
        assert costs == sorted(costs)
        for plan in ranked:
            check_finite(plan)
            validate_plan(plan, query)

    def test_poisoned_rank_one_salvages_rank_two(self, monkeypatch):
        from repro.errors import BudgetExceeded
        from repro.plans.join_tree import JoinNode

        query = _query("chain", n=5)
        ranked = ResilientOptimizer(topk=2).optimize(query).ranked
        assert len(ranked) == 2
        clean_first, clean_second = ranked
        # A structurally valid rank-1 plan whose root cost is NaN — what a
        # faulting cost model leaves behind in the interrupted memo.
        poisoned = JoinNode(
            clean_first.left,
            clean_first.right,
            clean_first.cardinality,
            operator_cost=float("nan"),
        )

        resilient = ResilientOptimizer(topk=2)

        def interrupted(query, budget=None, context=None):
            error = BudgetExceeded("deadline", "synthetic interruption")
            error.partial_plan = poisoned
            error.partial_ranked = (poisoned, clean_second)
            raise error

        monkeypatch.setattr(resilient._optimizer, "optimize", interrupted)
        result = resilient.optimize(query)
        assert result.rung == "best_so_far"
        assert result.plan is clean_second
        check_finite(result.plan)
        validate_plan(result.plan, query)
        attempt = next(
            a for a in result.report.attempts if a.rung == "best_so_far"
        )
        assert attempt.detail == "salvaged rank 2"
        assert result.ranked == (clean_second,)


class TestHeuristicRungs:
    def test_falls_to_first_heuristic_without_a_partial(self):
        query = _query("clique", n=8)
        result = ResilientOptimizer(pruning="none").optimize(
            query, budget=Budget(max_expansions=5)
        )
        assert result.rung == "ikkbz"
        validate_plan(result.plan, query)
        attempted = [attempt.rung for attempt in result.report.attempts]
        assert attempted[:3] == ["exact", "best_so_far", "ikkbz"]

class TestStructuralRung:
    @pytest.mark.parametrize("mode", ("raise", "nan", "inf"))
    def test_cost_faults_fall_through_to_structural(self, mode):
        query = _query("chain", n=7)
        injector = FaultInjector(seed=3)
        resilient = ResilientOptimizer(
            pruning="none",
            cost_model_factory=injector.cost_model_factory(HaasCostModel, mode),
        )
        with injector:
            result = resilient.optimize(query)
        assert result.rung == "structural"
        validate_plan(result.plan, query)  # structure is sound, costs aside
        assert injector.total_injected > 0


class TestTotalFailure:
    def test_catalog_loss_raises_a_typed_error_with_report(self):
        query = _query("chain", n=6)
        injector = FaultInjector(seed=3)
        faulty = injector.query(query, drop=1)
        with injector:
            with pytest.raises(ResilienceError) as excinfo:
                ResilientOptimizer().optimize(faulty)
        report = excinfo.value.report
        assert report is not None
        assert report.rung == "none"
        assert all(attempt.status == "failed" for attempt in report.attempts)


class TestFullCoverage:
    """The ISSUE acceptance criterion: 100% valid plans under duress."""

    @pytest.mark.parametrize("family", FAMILIES)
    def test_valid_plan_under_cost_faults_and_deadline(self, family):
        injector = FaultInjector(seed=11, rate=0.3)
        resilient = ResilientOptimizer(
            cost_model_factory=injector.cost_model_factory(HaasCostModel, "nan")
        )
        for seed in (1, 2, 3):
            query = QueryGenerator(seed=seed).generate(family, 8)
            with injector:
                result = resilient.optimize(
                    query, budget=Budget(deadline_seconds=0.050)
                )
            check_finite(result.plan)
            validate_plan(result.plan, query)

    def test_partitioner_faults_still_yield_valid_plans(self):
        query = _query("cycle", n=7)
        injector = FaultInjector(seed=5, rate=0.5)
        resilient = ResilientOptimizer()
        base = resilient.optimizer
        # Wrap the partitioner by running a raw generator through the
        # injector: the public seam is the strategy objects themselves.
        from repro.core.apcbi import ApcbiPlanGenerator
        from repro.partitioning.registry import get_partitioning
        from repro.stats.counters import OptimizationStats

        strategy = injector.partitioning(get_partitioning("mincut_conservative"))
        # A bogus cut surfaces as a typed library error or as the
        # ValueError of join-tree construction; the AssertionError below
        # is neither, so a valid plan fails the test.
        with injector:
            with pytest.raises((ReproError, ValueError)):
                generator = ApcbiPlanGenerator(
                    OptimizationContext.for_query(query, HaasCostModel(), OptimizationStats()),
                    strategy,
                )
                plan = generator.run()
                validate_plan(plan, query)  # either raise above or fail here
                raise AssertionError("bogus cut produced a valid plan")
        # The resilient facade with a healthy partitioner still succeeds.
        result = base.optimize(query)
        validate_plan(result.plan, query)
