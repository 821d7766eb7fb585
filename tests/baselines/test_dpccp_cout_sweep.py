"""DPccp's ``C_out`` sweep against its generic flat sweep.

Under a ``cout_shaped`` model at ``k = 1`` DPccp prices each class once
and orients only the winning tree's joins.  A ``C_out`` model that does
not declare ``cout_shaped`` sends the same run through the generic flat
sweep, which prices every ccp in both orders; that run is the oracle.
Plans, costs, class costs, counters and budget trip points must match.
"""

from __future__ import annotations

import gc

import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.dpccp import DPccp, enumerate_csg_cmp_pairs
from repro.context.context import OptimizationContext
from repro.cost.cout import CoutCostModel
from repro.cost.haas import HaasCostModel
from repro.errors import BudgetExceeded
from repro.resilience.budget import Budget
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


class _GenericCout(CoutCostModel):
    """``C_out`` prices without the ``cout_shaped`` declaration."""

    cout_shaped = False

    def bind(self, provider):
        bound = _GenericCout()
        bound._provider = provider
        return bound


@st.composite
def cout_queries(draw):
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


class TestCoutSweepMatchesGenericSweep:
    @settings(max_examples=60, deadline=None)
    @given(cout_queries())
    def test_plan_costs_and_counters(self, query):
        swept = _dpccp(query, CoutCostModel())
        generic = _dpccp(query, _GenericCout())
        assert _outcome(swept, swept.run()) == _outcome(generic, generic.run())

    @settings(max_examples=30, deadline=None)
    @given(cout_queries(), st.floats(0.0, 2.0))
    def test_budget_trips_where_the_generic_sweep_trips(self, query, share):
        pairs = len(enumerate_csg_cmp_pairs(query.graph))
        cap = int(share * pairs)
        assert _tripped(query, CoutCostModel(), cap) == _tripped(
            query, _GenericCout(), cap
        )

    def test_each_class_is_priced_once(self):
        query = QueryGenerator(seed=3).generate("cyclic", 9)
        swept = _dpccp(query, CoutCostModel())
        swept.run()
        stats = swept.stats
        assert stats.operator_pricings == stats.plan_classes_built
        assert stats.operator_pricings < stats.ccps_considered


class TestNoReferenceCycles:
    @pytest.mark.parametrize("model", [HaasCostModel, CoutCostModel])
    def test_a_run_leaves_nothing_for_the_cyclic_collector(self, model):
        # Stars tie on cost everywhere under FK statistics, so the sweep
        # fingerprints classes too.
        query = QueryGenerator(seed=5).generate("star", 8)
        gc.collect()
        gc.disable()
        try:
            _dpccp(query, model()).run()
            assert gc.collect() == 0
        finally:
            gc.enable()
