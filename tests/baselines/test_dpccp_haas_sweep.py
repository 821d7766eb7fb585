"""DPccp's page-priced Haas sweep against its generic flat sweep.

Under a ``page_priced`` model at ``k = 1`` DPccp prices every ccp from a
flat pages table and skips, unpriced, a ccp whose I/O lower bound
``(dp[L] + dp[R]) + (pages(L) + pages(R))`` is strictly above its class's
incumbent.  A Haas model that does not declare ``page_priced`` sends the
same run through the generic flat sweep, which prices every ccp through
``join_costs``; that run is the oracle.  Plans, costs, class costs,
counters (``operator_pricings`` aside) and budget trip points must match.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.dpccp import DPccp, enumerate_csg_cmp_pairs
from repro.context.context import OptimizationContext
from repro.cost.haas import HaasCostModel
from repro.errors import BudgetExceeded, InjectedFaultError
from repro.resilience.budget import Budget
from repro.resilience.faults import FaultInjector
from repro.workload.generator import QueryGenerator

FAMILIES = ("chain", "cycle", "star", "clique", "acyclic", "cyclic")

#: Largest drawn size per family; the rest go up to 13.
MAX_RELATIONS = {"clique": 9, "star": 12, "cyclic": 12}

COUNTERS = (
    "ccps_enumerated",
    "ccps_considered",
    "plan_improvements",
    "trees_created",
    "plan_classes_built",
)


class _GenericHaas(HaasCostModel):
    """Haas prices without the ``page_priced`` declaration."""

    page_priced = False


@st.composite
def haas_queries(draw):
    family = draw(st.sampled_from(FAMILIES))
    low = 3 if family in ("cycle", "cyclic") else 2
    n = draw(st.integers(low, MAX_RELATIONS.get(family, 13)))
    scheme = draw(st.sampled_from(("fk", "random")))
    seed = draw(st.integers(0, 2**31 - 1))
    return QueryGenerator(seed=seed).generate(family, n, scheme)


def _dpccp(query, model, budget=None) -> DPccp:
    context = OptimizationContext.for_query(query, cost_model=model, budget=budget)
    return DPccp(context)


def _outcome(algorithm: DPccp, plan) -> tuple:
    return (
        plan.sexpr(),
        plan.cost.hex(),
        {s: c.hex() for s, c in algorithm.optimal_class_costs().items()},
        {name: getattr(algorithm.stats, name) for name in COUNTERS},
    )


def _tripped(query, model, cap: int) -> tuple:
    """Run under ``Budget(max_expansions=cap)``; where and how it stopped."""
    budget = Budget(max_expansions=cap)
    algorithm = _dpccp(query, model, budget)
    try:
        algorithm.run()
        error = None
    except BudgetExceeded as exc:
        error = (exc.reason, str(exc))
    salvaged = algorithm.memo.best(query.graph.all_vertices)
    return (
        error,
        budget.expansions,
        None if salvaged is None else (salvaged.sexpr(), salvaged.cost.hex()),
        {name: getattr(algorithm.stats, name) for name in COUNTERS},
    )


class TestPageSweepMatchesGenericSweep:
    @settings(max_examples=60, deadline=None)
    @given(haas_queries())
    def test_plan_costs_and_counters(self, query):
        swept = _dpccp(query, HaasCostModel())
        generic = _dpccp(query, _GenericHaas())
        assert _outcome(swept, swept.run()) == _outcome(generic, generic.run())
        # Every class is priced at least once; the bound skips the rest.
        stats = swept.stats
        assert stats.plan_classes_built <= stats.operator_pricings
        assert stats.operator_pricings <= stats.ccps_considered
        assert generic.stats.operator_pricings == stats.ccps_considered

    @settings(max_examples=30, deadline=None)
    @given(haas_queries(), st.floats(0.0, 2.0))
    def test_budget_trips_where_the_generic_sweep_trips(self, query, share):
        pairs = len(enumerate_csg_cmp_pairs(query.graph))
        cap = int(share * pairs)
        assert _tripped(query, HaasCostModel(), cap) == _tripped(
            query, _GenericHaas(), cap
        )

    @pytest.mark.parametrize("scheme", ["fk", "random"])
    @pytest.mark.parametrize("family", FAMILIES)
    def test_every_family_at_twelve_relations(self, family, scheme):
        n = 9 if family == "clique" else 12
        query = QueryGenerator(seed=11).generate(family, n, scheme)
        swept = _dpccp(query, HaasCostModel())
        generic = _dpccp(query, _GenericHaas())
        assert _outcome(swept, swept.run()) == _outcome(generic, generic.run())

    def test_the_bound_skips_pricing(self):
        query = QueryGenerator(seed=3).generate("cyclic", 9)
        swept = _dpccp(query, HaasCostModel())
        swept.run()
        stats = swept.stats
        assert stats.operator_pricings < stats.ccps_considered

    def test_only_the_winning_tree_gets_stats_objects(self):
        query = QueryGenerator(seed=3).generate("clique", 8)
        swept = _dpccp(query, HaasCostModel())
        swept.run()
        assert swept._provider.cache_size() == 2 * query.n_relations - 1


class TestWrappedModelsTakeTheGenericSweep:
    def test_faults_fire_on_every_ccp(self):
        query = QueryGenerator(seed=3).generate("cyclic", 9)
        clean = _dpccp(query, HaasCostModel())
        clean_plan = clean.run()
        # Latency faults return the true cost, so the plan stays; each
        # ccp's two orders are two faulted join_cost calls.
        injector = FaultInjector(seed=0, sleep=lambda seconds: None)
        wrapped = _dpccp(query, injector.cost_model(HaasCostModel(), "latency"))
        with injector:
            plan = wrapped.run()
        stats = wrapped.stats
        assert plan.sexpr() == clean_plan.sexpr()
        assert plan.cost.hex() == clean_plan.cost.hex()
        assert stats.operator_pricings == stats.ccps_considered
        assert injector.injected["cost_model"] == 2 * stats.ccps_considered

    def test_a_raising_fault_reaches_the_caller(self):
        query = QueryGenerator(seed=3).generate("chain", 6)
        injector = FaultInjector(seed=0, after=10)
        wrapped = _dpccp(query, injector.cost_model(HaasCostModel(), "raise"))
        with injector, pytest.raises(InjectedFaultError):
            wrapped.run()
        assert injector.injected == {"cost_model": 1}
