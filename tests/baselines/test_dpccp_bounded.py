"""DPccp's bounded ``C_out`` and Haas sweeps against their unbounded
ones, and the tree lister against EnumerateCsg.

A bounded run skips the classes no plan at or under the bound joins; its
plan and cost must be the unbounded run's bit for bit, whatever the
numbering and tie-breaking labels, with no more pairs swept.  A NaN or
infinite bound prunes nothing, so every counter matches.
"""

from __future__ import annotations

import math
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.dpccp import DPccp, enumerate_csg
from repro.baselines.dpconv import tree_csgs
from repro.catalog.catalog import Catalog
from repro.context.context import OptimizationContext
from repro.core.optimizer import Optimizer
from repro.cost.cout import CoutCostModel
from repro.cost.haas import HaasCostModel
from repro.errors import OptimizationError
from repro.graph.query_graph import QueryGraph
from repro.heuristics.registry import get_heuristic
from repro.query import Query
from repro.resilience.faults import FaultInjector
from repro.workload.generator import QueryGenerator

FAMILIES = ("chain", "cycle", "star", "clique", "acyclic", "cyclic")

#: Largest drawn size per family; the rest go up to 14.
MAX_RELATIONS = {"clique": 9, "cyclic": 12}

MODELS = (CoutCostModel, HaasCostModel)

COUNTERS = (
    "ccps_enumerated",
    "ccps_considered",
    "plan_improvements",
    "operator_pricings",
    "plan_classes_built",
)


@st.composite
def relabeled_queries(draw):
    """A relabeled query and tie-breaking labels (or ``None``)."""
    family = draw(st.sampled_from(FAMILIES))
    n = draw(st.integers(3, MAX_RELATIONS.get(family, 14)))
    scheme = draw(st.sampled_from(("fk", "random")))
    seed = draw(st.integers(0, 2**31 - 1))
    query = QueryGenerator(seed=seed).generate(family, n, scheme)
    query = query.relabel(draw(st.permutations(range(n))))
    return query, draw(st.none() | st.permutations(range(n)))


class _ReadOnce(HaasCostModel):
    """A page-priced model whose every join costs exactly its inputs' pages.

    A plan's cost is then the sum the Haas bound adds up, in another
    order, so only the bound's rounding margin keeps it sound.
    """

    def join_cost(self, outer, inner):
        return outer.pages + inner.pages

    def page_join_costs(self, left_pages, right_pages):
        return left_pages + right_pages, left_pages + right_pages


def _context(query, model=CoutCostModel, topk=1):
    return OptimizationContext.for_query(query, cost_model=model(), topk=topk)


def _run(query, bound=None, model=CoutCostModel, labels=None):
    """A DPccp run's plan, cost and counters."""
    algorithm = DPccp(_context(query, model), bound=bound, labels=labels)
    plan = algorithm.run()
    counters = {name: getattr(algorithm.stats, name) for name in COUNTERS}
    return plan.sexpr(), plan.cost.hex(), counters


def _goo_cost(query, model=CoutCostModel) -> float:
    context = _context(query, model)
    return get_heuristic("goo").build(query, context.builder).cost


def _pool_chain_16() -> Query:
    """The ``cold_haas`` pool's chain-16, drawn as the pool draws it."""
    generator = QueryGenerator(seed=20120411)
    for n in (10, 12, 13, 14):
        generator.generate("chain", n)
    return generator.generate("chain", 16)


def _scaled(query: Query, factor: float) -> Query:
    """``query`` with every base cardinality multiplied by ``factor``."""
    catalog = query.catalog
    relations = [
        replace(relation, cardinality=relation.cardinality * factor)
        for relation in (catalog.relation(i) for i in range(query.n_relations))
    ]
    return Query(query.graph, Catalog(relations, catalog.selectivities))


class TestBoundedSweepMatchesUnbounded:
    @pytest.mark.parametrize("model", MODELS)
    @settings(max_examples=40, deadline=None)
    @given(relabeled_queries(), st.sampled_from(("goo", "optimum")))
    def test_plan_and_cost_bit_identical(self, model, drawn, which):
        query, labels = drawn
        sexpr, cost, counters = _run(query, None, model, labels)
        bound = _goo_cost(query, model) if which == "goo" else float.fromhex(cost)
        bounded_sexpr, bounded_cost, bounded = _run(query, bound, model, labels)
        assert (bounded_sexpr, bounded_cost) == (sexpr, cost)
        assert bounded["ccps_considered"] <= counters["ccps_considered"]
        assert bounded["ccps_enumerated"] <= counters["ccps_enumerated"]
        if model is CoutCostModel:
            # Every class of two or more relations is priced once either way.
            assert bounded["operator_pricings"] == counters["operator_pricings"]

    @pytest.mark.parametrize("model", MODELS)
    @settings(max_examples=20, deadline=None)
    @given(relabeled_queries(), st.sampled_from((math.inf, math.nan)))
    def test_a_bound_that_is_no_number_prunes_nothing(self, model, drawn, bound):
        query, labels = drawn
        assert _run(query, bound, model, labels) == _run(query, None, model, labels)

    def test_the_bound_prunes_the_pool_cycle(self):
        query = QueryGenerator(seed=4).generate("cycle", 12)
        _, _, counters = _run(query)
        _, _, bounded = _run(query, _goo_cost(query))
        assert bounded["ccps_considered"] < counters["ccps_considered"] / 4

    @pytest.mark.parametrize("model", MODELS)
    def test_a_bound_below_the_optimum_is_refused(self, model):
        query = QueryGenerator(seed=4).generate("cyclic", 8)
        _, cost, _ = _run(query, model=model)
        below = math.nextafter(float.fromhex(cost), 0.0)  # one ulp below
        with pytest.raises(OptimizationError, match="below the optimal cost"):
            _run(query, below, model)

    @pytest.mark.parametrize(
        "model, topk", [(CoutCostModel, 2), (HaasCostModel, 2), ("faulty", 1)]
    )
    def test_a_bound_needs_a_single_best_cout_or_page_priced_run(
        self, model, topk
    ):
        query = QueryGenerator(seed=4).generate("cycle", 5)
        if model == "faulty":
            # A wrapper declares neither, whatever the model it wraps.
            wrapped = FaultInjector(seed=0).cost_model(HaasCostModel())
            context = OptimizationContext.for_query(query, cost_model=wrapped)
        else:
            context = _context(query, model, topk)
        with pytest.raises(ValueError, match="single-best C_out or page-priced"):
            DPccp(context, bound=1.0)

    @pytest.mark.parametrize("factor", [1.0, 3.0**40])
    def test_haas_costs_past_2_to_the_53(self, factor):
        # The pool's chain-16 has a class of 1.55e11 pages; scaled by
        # 3**40 its optimum passes 2**53, where page sums round.
        query = _scaled(_pool_chain_16(), factor)
        sexpr, cost, counters = _run(query, model=HaasCostModel)
        assert (float.fromhex(cost) > 2.0**53) == (factor > 1.0)
        for bound in (_goo_cost(query, HaasCostModel), float.fromhex(cost)):
            bounded_sexpr, bounded_cost, bounded = _run(query, bound, HaasCostModel)
            assert (bounded_sexpr, bounded_cost) == (sexpr, cost)
            assert bounded["ccps_considered"] < counters["ccps_considered"]

    @pytest.mark.parametrize(
        "family, seed, factor",
        [
            ("chain", 325439, 3.0**35),
            ("chain", 691177, 7.0**20),
            ("star", 564635, 2.0**55 + 1),
            ("acyclic", 936710, 2.0**55 + 1),
        ],
    )
    def test_the_haas_bound_covers_rounding(self, family, seed, factor):
        # Without the margin each of these prunes a class of the optimal
        # plan: the bound's float sum rounds above the plan's own.
        query = QueryGenerator(seed=seed).generate(family, 3, "random")
        query = _scaled(query, factor)
        sexpr, cost, _ = _run(query, model=_ReadOnce)
        bounded_sexpr, bounded_cost, _ = _run(
            query, float.fromhex(cost), _ReadOnce
        )
        assert (bounded_sexpr, bounded_cost) == (sexpr, cost)


class TestCoutRouteBoundsDPccp:
    @pytest.mark.parametrize("family", ["cycle", "cyclic"])
    def test_routed_dpccp_matches_the_unbounded_run(self, family):
        query = QueryGenerator(seed=4).generate(family, 12)
        routed = Optimizer(cost_model_factory=CoutCostModel).optimize(query)
        assert routed.pruning == "dpccp"
        sexpr, cost, counters = _run(query)
        assert (routed.plan.sexpr(), routed.cost.hex()) == (sexpr, cost)
        assert routed.stats.ccps_considered < counters["ccps_considered"]


class TestHaasRouteBoundsDPccp:
    @pytest.mark.parametrize("family", ["cycle", "cyclic"])
    def test_routed_dpccp_matches_apcbi_and_sweeps_fewer_pairs(self, family):
        query = QueryGenerator(seed=4).generate(family, 11)
        routed = Optimizer().optimize(query)
        assert routed.pruning == "dpccp"
        apcbi = Optimizer(auto_route=False).optimize(query)
        assert (routed.plan.sexpr(), routed.cost.hex()) == (
            apcbi.plan.sexpr(),
            apcbi.cost.hex(),
        )
        _, _, counters = _run(query, model=HaasCostModel)
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
