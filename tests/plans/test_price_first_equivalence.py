"""Price-first BUILDTREE and flat DPccp against the allocate-both oracle.

BUILDTREE used to allocate a ``JoinNode`` for both orders of every ccp and
let the memotable pick; DPccp used to run the same BUILDTREE for every
csg-cmp pair.  Both now price first and allocate only a plan that can
still enter the memotable.  The old code lives on here, and only here, as
the oracle: every comparison is exact — costs by ``float.hex``, plans by
``plan_fingerprint`` — over seeded queries of all six families, each also
relabelled, under Haas and ``C_out``, at ``k = 1`` and ``k = 3``.
"""

from __future__ import annotations

import math
import random
from typing import Dict, List, Tuple

import pytest
from hypothesis import given, strategies as st

from repro.baselines.dpccp import DPccp, enumerate_csg_cmp_pairs
from repro.catalog.catalog import Catalog
from repro.catalog.relation import RelationStats
from repro.context.context import OptimizationContext
from repro.core.apcbi import ApcbiPlanGenerator
from repro.core.optimizer import PRUNING_STRATEGIES
from repro.cost.cout import CoutCostModel
from repro.cost.haas import HaasCostModel
from repro.cost.statistics import StatisticsProvider
from repro.errors import BudgetExceeded
from repro.graph import bitset
from repro.graph.query_graph import QueryGraph
from repro.partitioning import get_partitioning
from repro.plans.builder import INFINITY, PlanBuilder
from repro.plans.join_tree import join_fingerprint, plan_fingerprint
from repro.plans.memo import MemoTable
from repro.query import Query
from repro.resilience.budget import Budget
from repro.workload.generator import QueryGenerator
from tests.conftest import connected_graphs

FAMILIES = ("chain", "cycle", "star", "clique", "acyclic", "cyclic")
SIZES = {"chain": 7, "cycle": 7, "star": 6, "clique": 5, "acyclic": 7, "cyclic": 6}
MODELS = {"haas": HaasCostModel, "cout": CoutCostModel}
GENERATORS = {**PRUNING_STRATEGIES, "apcbi": ApcbiPlanGenerator}


class _AllocateBothBuilder(PlanBuilder):
    """The old BUILDTREE: build both orders, then offer each to the memo."""

    def price(self, left_set: int, right_set: int) -> Tuple[float, float]:
        # The old budget arithmetic priced c_join as the model's
        # min_join_cost; the generators take min() of this pair.
        operator_cost = self.cost_model.min_join_cost(
            self.provider.stats(left_set), self.provider.stats(right_set)
        )
        return operator_cost, operator_cost

    def build_tree(self, memo, tree_1, tree_2, budget=INFINITY, prices=None):
        registered = None
        for outer, inner in ((tree_1, tree_2), (tree_2, tree_1)):
            candidate = self.create_tree(outer, inner)
            if candidate.cost <= budget and memo.register(candidate):
                registered = candidate
        return registered

    def build_ccp(self, memo, tree_1, tree_2, budget=INFINITY, prices=None):
        if memo.k == 1:
            return self.build_tree(memo, tree_1, tree_2, budget)
        lefts = memo.best_k(tree_1.vertex_set) or [tree_1]
        rights = memo.best_k(tree_2.vertex_set) or [tree_2]
        registered = None
        for left in lefts:
            for right in rights:
                result = self.build_tree(memo, left, right, budget)
                if result is not None:
                    registered = result
        return registered


def _bucketed_pairs(query: Query) -> List[Tuple[int, int]]:
    """DPccp's csg-cmp pairs in its processing order (by union size)."""
    buckets: Dict[int, List[Tuple[int, int]]] = {}
    for left, right in enumerate_csg_cmp_pairs(query.graph):
        buckets.setdefault(bitset.bit_count(left | right), []).append((left, right))
    return [pair for size in sorted(buckets) for pair in buckets[size]]


def _context(
    query: Query, model: str, topk: int, builder_cls=PlanBuilder, budget=None
):
    provider = StatisticsProvider(query)
    cost_model = MODELS[model]().bind(provider)
    builder = builder_cls(provider, cost_model)
    return OptimizationContext(
        query, provider, cost_model, builder, budget=budget, topk=topk
    )


def _old_dpccp(query: Query, model: str, topk: int, budget=None) -> MemoTable:
    """The old DPccp: BUILDTREE on every csg-cmp pair, trees for all.

    With a ``budget`` it checks where the old loop did and returns the
    memotable as the budget left it.
    """
    context = _context(query, model, topk, _AllocateBothBuilder)
    builder = context.builder
    memo = MemoTable(k=topk)
    for index in range(query.n_relations):
        memo.register(builder.leaf(query, index))
    pairs = _bucketed_pairs(query)
    try:
        for _ in pairs:
            if budget is not None:
                budget.check()
        for left, right in pairs:
            if budget is not None:
                budget.check()
            builder.build_ccp(memo, memo.best(left), memo.best(right))
    except BudgetExceeded:
        pass
    return memo


def _state(memo: MemoTable) -> Dict[int, List[Tuple[str, str]]]:
    """Every class's retained plans as (cost hex, fingerprint), in rank order."""
    return {
        vertex_set: [
            (tree.cost.hex(), plan_fingerprint(tree))
            for tree in memo.best_k(vertex_set)
        ]
        for vertex_set, _ in memo.entries()
    }


def _uniform(graph: QueryGraph, family: str) -> Query:
    """Equal cardinalities and selectivities: exact ties everywhere."""
    relations = [
        RelationStats(cardinality=1000, name=f"R{index}")
        for index in range(graph.n_vertices)
    ]
    return Query(
        graph=graph,
        catalog=Catalog(relations, {edge: 0.01 for edge in graph.edges}),
        family=family,
    )


def _queries() -> List[Tuple[str, Query]]:
    """Seeded queries of all six families, each also relabelled and with
    uniform statistics (exact cost ties between classes)."""
    generator = QueryGenerator(seed=1712)
    rng = random.Random(1712)
    queries = []
    for family in FAMILIES:
        query = generator.generate(family, SIZES[family])
        mapping = list(range(query.n_relations))
        rng.shuffle(mapping)
        name = f"{family}-{query.n_relations}"
        queries.append((name, query))
        queries.append((f"{name}-relabelled", query.relabel(mapping)))
        queries.append((f"{name}-uniform", _uniform(query.graph, family)))
    return queries


QUERIES = _queries()
QUERY_IDS = [name for name, _ in QUERIES]


@pytest.mark.parametrize("topk", [1, 3])
@pytest.mark.parametrize("model", sorted(MODELS))
@pytest.mark.parametrize("name,query", QUERIES, ids=QUERY_IDS)
class TestAgainstAllocateBothOracle:
    def test_dpccp_matches_the_tree_building_loop(self, name, query, model, topk):
        oracle = _old_dpccp(query, model, topk)
        dpccp = DPccp(context=_context(query, model, topk))
        plan = dpccp.run()
        root = query.graph.all_vertices
        assert plan.cost.hex() == oracle.best_cost(root).hex()
        assert plan_fingerprint(plan) == plan_fingerprint(oracle.best(root))
        # Per-class optima (APCBI_Opt's bounds) cover every class.
        costs = dpccp.optimal_class_costs()
        assert {vs: cost.hex() for vs, cost in costs.items()} == {
            vs: tree.cost.hex() for vs, tree in oracle.entries()
        }
        state = _state(oracle)
        if topk == 1:
            # Only the winning tree is built; each of its classes holds
            # the plan the oracle's memotable held.
            assert len(dpccp.memo) == 2 * query.n_relations - 1
            assert dpccp.stats.trees_created == query.n_relations - 1
            assert dpccp.stats.plan_classes_built == oracle.n_plan_classes()
            for vertex_set, plans in _state(dpccp.memo).items():
                assert plans == state[vertex_set]
        else:
            assert _state(dpccp.memo) == state
            assert [plan_fingerprint(t) for t in dpccp.ranked_plans()] == [
                fp for _, fp in state[root]
            ]

    @pytest.mark.parametrize("pruning", sorted(GENERATORS))
    def test_top_down_memo_state_is_unchanged(self, name, query, model, topk, pruning):
        runs = []
        for builder_cls in (_AllocateBothBuilder, PlanBuilder):
            generator = GENERATORS[pruning](
                partitioning=get_partitioning("mincut_conservative"),
                context=_context(query, model, topk, builder_cls),
            )
            plan = generator.run()
            runs.append(
                (plan.cost.hex(), plan_fingerprint(plan), _state(generator.memo))
            )
        assert runs[1] == runs[0]


def _budgets(rng: random.Random, exact: float, incumbent: float) -> float:
    """A budget at, just around, or well away from a ccp's cheaper order."""
    return rng.choice(
        (
            INFINITY,
            exact,
            math.nextafter(exact, -INFINITY),
            math.nextafter(exact, INFINITY),
            incumbent,
            exact * 0.5,
            0.0,
        )
    )


@pytest.mark.parametrize("topk", [1, 3])
@pytest.mark.parametrize("model", sorted(MODELS))
@pytest.mark.parametrize("name,query", QUERIES, ids=QUERY_IDS)
def test_budget_capped_build_tree_calls(name, query, model, topk):
    """Replay DPccp's pairs, each under a seeded budget; after every call
    both memotables hold the same plans and return the same tree."""
    rng = random.Random(f"{name}/{model}/{topk}")
    old = _context(query, model, topk, _AllocateBothBuilder)
    new = _context(query, model, topk)
    memos = (MemoTable(k=topk), MemoTable(k=topk))
    for context, memo in zip((old, new), memos):
        for index in range(query.n_relations):
            memo.register(context.builder.leaf(query, index))
    provider = new.provider
    for left, right in _bucketed_pairs(query) * 2:
        trees = [(memo.best(left), memo.best(right)) for memo in memos]
        if trees[0][0] is None or trees[0][1] is None:
            assert trees[1][0] is None or trees[1][1] is None
            continue
        left_tree, right_tree = trees[0]
        operator_cost = new.cost_model.min_join_cost(
            provider.stats(left), provider.stats(right)
        )
        exact = left_tree.cost + right_tree.cost + operator_cost
        budget = _budgets(rng, exact, memos[0].best_cost(left | right))
        returned = [
            context.builder.build_ccp(memo, tree_1, tree_2, budget)
            for context, memo, (tree_1, tree_2) in zip((old, new), memos, trees)
        ]
        fingerprints = [
            None if tree is None else plan_fingerprint(tree) for tree in returned
        ]
        assert fingerprints[1] == fingerprints[0]
        assert _state(memos[1]) == _state(memos[0])


@pytest.mark.parametrize("model", sorted(MODELS))
@pytest.mark.parametrize("family", ["cycle", "clique", "star"])
def test_budget_salvage_matches_the_oracle(family, model):
    """A budget that runs out while the root is being planned leaves the
    same best-so-far root plan as the tree-building loop did."""
    query = QueryGenerator(seed=7).generate(family, 6)
    pairs = _bucketed_pairs(query)
    root = query.graph.all_vertices
    root_pairs = sum(1 for left, right in pairs if left | right == root)
    for done in range(len(pairs) - root_pairs, len(pairs) + 1):
        cap = len(pairs) + done  # checks: one per pair listed, then per pair
        oracle = _old_dpccp(query, model, 1, Budget(max_expansions=cap))
        dpccp = DPccp(_context(query, model, 1, budget=Budget(max_expansions=cap)))
        try:
            plan = dpccp.run()
        except BudgetExceeded:
            plan = dpccp.memo.best(root)
        expected = oracle.best(root)
        if expected is None:
            assert plan is None
            continue
        assert plan.cost.hex() == expected.cost.hex()
        assert plan_fingerprint(plan) == plan_fingerprint(expected)


def test_price_first_builds_fewer_trees():
    """The point of the change: on a Haas clique, APCBI builds fewer trees
    and prices each considered ccp once, for the same plan."""
    query = QueryGenerator(seed=3).generate("clique", 6)
    runs = []
    for builder_cls in (_AllocateBothBuilder, PlanBuilder):
        context = _context(query, "haas", 1, builder_cls)
        plan = GENERATORS["apcbi"](
            partitioning=get_partitioning("mincut_conservative"), context=context
        ).run()
        runs.append((plan_fingerprint(plan), context.stats))
    (old_plan, old_stats), (new_plan, new_stats) = runs
    assert new_plan == old_plan
    assert new_stats.trees_created < old_stats.trees_created
    assert new_stats.operator_pricings == new_stats.ccps_considered


@st.composite
def _disjoint_fingerprints(draw):
    """Fingerprints of two random trees over disjoint relations, leaf
    indices up to two digits so one leaf's can prefix another's."""
    relations = draw(
        st.lists(st.integers(0, 40), min_size=2, max_size=8, unique=True)
    )
    cut = draw(st.integers(1, len(relations) - 1))

    def tree(indices):
        if len(indices) == 1:
            return str(indices[0])
        split = draw(st.integers(1, len(indices) - 1))
        return join_fingerprint(tree(indices[:split]), tree(indices[split:]))

    return tree(relations[:cut]), tree(relations[cut:])


@given(_disjoint_fingerprints())
def test_order_tie_is_decided_by_the_input_fingerprints(fingerprints):
    """BUILDTREE and flat DPccp rank the two orders of a tied ccp by the
    inputs' fingerprints alone; that is the memotable's order."""
    a, b = fingerprints
    assert (join_fingerprint(a, b) < join_fingerprint(b, a)) == (a < b)


@st.composite
def _tie_heavy_queries(draw):
    """Random connected graphs whose statistics take two values each, so
    classes tie often and a class's best plan changes between ties."""
    graph = draw(connected_graphs(min_vertices=3, max_vertices=7))
    relations = [
        RelationStats(cardinality=draw(st.sampled_from((10, 100))), name=f"R{i}")
        for i in range(graph.n_vertices)
    ]
    selectivities = {
        edge: draw(st.sampled_from((0.1, 1.0))) for edge in graph.edges
    }
    return Query(graph=graph, catalog=Catalog(relations, selectivities))


@given(_tie_heavy_queries(), st.sampled_from(sorted(MODELS)))
def test_flat_dpccp_matches_the_oracle_under_frequent_ties(query, model):
    oracle = _old_dpccp(query, model, 1)
    dpccp = DPccp(context=_context(query, model, 1))
    plan = dpccp.run()
    root = query.graph.all_vertices
    assert plan.cost.hex() == oracle.best_cost(root).hex()
    assert _state(dpccp.memo) == {
        vs: plans for vs, plans in _state(oracle).items() if vs in dpccp.memo
    }
