"""DPccp's bounded ``C_out`` sweep against its unbounded one, and the
tree lister against EnumerateCsg.

A bounded run skips the classes no plan at or under the bound joins; its
plan and cost must be the unbounded run's bit for bit, whatever the
numbering, with no more pairs swept.  A NaN or infinite bound prunes
nothing, so every counter matches.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.dpccp import DPccp, enumerate_csg
from repro.baselines.dpconv import tree_csgs
from repro.context.context import OptimizationContext
from repro.core.optimizer import Optimizer
from repro.cost.cout import CoutCostModel
from repro.cost.haas import HaasCostModel
from repro.errors import OptimizationError
from repro.graph.query_graph import QueryGraph
from repro.heuristics.registry import get_heuristic
from repro.workload.generator import QueryGenerator

FAMILIES = ("chain", "cycle", "star", "acyclic", "cyclic")

COUNTERS = (
    "ccps_enumerated",
    "ccps_considered",
    "plan_improvements",
    "operator_pricings",
    "plan_classes_built",
)


@st.composite
def relabeled_cout_queries(draw):
    family = draw(st.sampled_from(FAMILIES))
    n = draw(st.integers(3, 14))
    scheme = draw(st.sampled_from(("fk", "random")))
    seed = draw(st.integers(0, 2**31 - 1))
    query = QueryGenerator(seed=seed).generate(family, n, scheme)
    return query.relabel(draw(st.permutations(range(n))))


def _context(query, model=CoutCostModel, topk=1):
    return OptimizationContext.for_query(query, cost_model=model(), topk=topk)


def _run(query, bound=None):
    """A DPccp run's plan, cost and counters."""
    algorithm = DPccp(_context(query), bound=bound)
    plan = algorithm.run()
    counters = {name: getattr(algorithm.stats, name) for name in COUNTERS}
    return plan.sexpr(), plan.cost.hex(), counters


def _goo_cost(query) -> float:
    context = _context(query)
    return get_heuristic("goo").build(query, context.builder).cost


class TestBoundedSweepMatchesUnbounded:
    @settings(max_examples=40, deadline=None)
    @given(relabeled_cout_queries(), st.sampled_from(("goo", "optimum")))
    def test_plan_and_cost_bit_identical(self, query, which):
        sexpr, cost, counters = _run(query)
        bound = _goo_cost(query) if which == "goo" else float.fromhex(cost)
        bounded_sexpr, bounded_cost, bounded = _run(query, bound)
        assert (bounded_sexpr, bounded_cost) == (sexpr, cost)
        assert bounded["ccps_considered"] <= counters["ccps_considered"]
        assert bounded["ccps_enumerated"] <= counters["ccps_enumerated"]
        # Every class of two or more relations is priced once either way.
        assert bounded["operator_pricings"] == counters["operator_pricings"]

    @settings(max_examples=20, deadline=None)
    @given(relabeled_cout_queries(), st.sampled_from((math.inf, math.nan)))
    def test_a_bound_that_is_no_number_prunes_nothing(self, query, bound):
        assert _run(query, bound) == _run(query)

    def test_the_bound_prunes_the_pool_cycle(self):
        query = QueryGenerator(seed=4).generate("cycle", 12)
        _, _, counters = _run(query)
        _, _, bounded = _run(query, _goo_cost(query))
        assert bounded["ccps_considered"] < counters["ccps_considered"] / 4

    def test_a_bound_below_the_optimum_is_refused(self):
        query = QueryGenerator(seed=4).generate("cyclic", 8)
        _, cost, _ = _run(query)
        below = math.nextafter(float.fromhex(cost), 0.0)
        with pytest.raises(OptimizationError, match="below the optimal cost"):
            _run(query, below)

    @pytest.mark.parametrize(
        "model, topk", [(HaasCostModel, 1), (CoutCostModel, 2)]
    )
    def test_a_bound_needs_a_single_best_cout_run(self, model, topk):
        query = QueryGenerator(seed=4).generate("cycle", 5)
        with pytest.raises(ValueError, match="single-best C_out"):
            DPccp(_context(query, model, topk), bound=1.0)


class TestCoutRouteBoundsDPccp:
    @pytest.mark.parametrize("family", ["cycle", "cyclic"])
    def test_routed_dpccp_matches_the_unbounded_run(self, family):
        query = QueryGenerator(seed=4).generate(family, 12)
        routed = Optimizer(cost_model_factory=CoutCostModel).optimize(query)
        assert routed.pruning == "dpccp"
        sexpr, cost, counters = _run(query)
        assert (routed.plan.sexpr(), routed.cost.hex()) == (sexpr, cost)
        assert routed.stats.ccps_considered < counters["ccps_considered"]


@st.composite
def trees(draw):
    """A random labelled tree on 1-16 vertices."""
    n = draw(st.integers(1, 16))
    parents = [draw(st.integers(0, child - 1)) for child in range(1, n)]
    edges = [(parent, child) for child, parent in enumerate(parents, 1)]
    return QueryGraph(n, edges).relabel(draw(st.permutations(range(n))))


class TestTreeLister:
    @settings(max_examples=100, deadline=None)
    @given(trees())
    def test_lists_enumerate_csgs_sets_each_once(self, graph):
        listed = tree_csgs(graph)
        assert listed is not None
        assert len(listed) == len(set(listed))
        assert set(listed) == set(enumerate_csg(graph))

    @pytest.mark.parametrize("family", ["cycle", "clique", "cyclic"])
    def test_a_graph_with_a_cycle_is_no_tree(self, family):
        assert tree_csgs(QueryGenerator(seed=1).generate(family, 6).graph) is None
