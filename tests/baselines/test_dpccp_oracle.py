"""List-building DPccp against the generator-based enumerator it replaced.

DPccp's EnumerateCsg / EnumerateCsgRec / EnumerateCmp used to be nested
generators (``yield from``), and a ccp used to be priced with two
``join_cost`` calls over statistics whose widths a generator summed.  The
old code lives on here, and only here, as the oracle:

* the emission order of :func:`enumerate_csg` and
  :func:`enumerate_csg_cmp_pairs` is compared element by element, for
  every graph family at n = 1..14 (clique up to 10) and for drawn graphs;
* a DPccp run is compared with the old one under Haas and ``C_out`` at
  ``k = 1`` and ``k = 3``: cost by ``float.hex``, plan by
  ``plan_fingerprint``, the ranked list, and every counter (at
  ``k = 1``, ``operator_pricings`` counts classes priced under ``C_out``
  and the ccps the I/O bound left to price under Haas);
* budgets trip where they tripped, with the same reason, and a deadline
  stops the enumeration before every pair is listed.
"""

from __future__ import annotations

import math
import random
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

import pytest
from hypothesis import given, settings

from repro.baselines import dpccp as dpccp_module
from repro.baselines.dpccp import DPccp, enumerate_csg, enumerate_csg_cmp_pairs
from repro.catalog.relation import DEFAULT_PAGE_SIZE
from repro.context.context import OptimizationContext
from repro.cost.cout import CoutCostModel
from repro.cost.haas import HaasCostModel
from repro.cost.statistics import IntermediateStats, StatisticsProvider
from repro.errors import BudgetExceeded, GraphError
from repro.graph import bitset, generators
from repro.graph.query_graph import QueryGraph
from repro.plans.builder import PlanBuilder
from repro.plans.join_tree import plan_fingerprint
from repro.query import Query
from repro.resilience.budget import Budget
from repro.workload.generator import QueryGenerator
from tests.conftest import connected_graphs

FAMILIES = ("chain", "cycle", "star", "clique", "acyclic", "cyclic")
MODELS = {"haas": HaasCostModel, "cout": CoutCostModel}
COUNTERS = (
    "ccps_enumerated",
    "ccps_considered",
    "plan_improvements",
    "operator_pricings",
    "trees_created",
    "plan_classes_built",
)


# ----------------------------------------------------------------------
# The oracle: the generator-based enumeration, verbatim
# ----------------------------------------------------------------------


def _old_neighborhood(graph: QueryGraph, subset: int, exclude: int) -> int:
    return graph.neighborhood(subset) & ~exclude


def _old_enumerate_csg_rec(
    graph: QueryGraph, subset: int, exclude: int
) -> Iterator[int]:
    neighbors = _old_neighborhood(graph, subset, exclude)
    if not neighbors:
        return
    for extension in bitset.iter_subsets(neighbors):
        yield subset | extension
    blocked = exclude | neighbors
    for extension in bitset.iter_subsets(neighbors):
        yield from _old_enumerate_csg_rec(graph, subset | extension, blocked)


def old_enumerate_csg(graph: QueryGraph) -> Iterator[int]:
    for index in range(graph.n_vertices - 1, -1, -1):
        start = bitset.singleton(index)
        yield start
        forbidden = bitset.full_set(index + 1)
        yield from _old_enumerate_csg_rec(graph, start, forbidden)


def _old_enumerate_cmp(graph: QueryGraph, subset: int) -> Iterator[int]:
    min_index = bitset.lowest_index(subset)
    forbidden = subset | bitset.full_set(min_index + 1)
    neighbors = _old_neighborhood(graph, subset, forbidden)
    remaining = neighbors
    while remaining:
        high = bitset.highest_bit(remaining)
        remaining ^= high
        yield high
        below = (high - 1) & neighbors
        yield from _old_enumerate_csg_rec(graph, high, forbidden | below)


def old_enumerate_csg_cmp_pairs(
    graph: QueryGraph, csgs: Optional[Iterable[int]] = None
) -> Iterator[Tuple[int, int]]:
    for left in old_enumerate_csg(graph) if csgs is None else csgs:
        for right in _old_enumerate_cmp(graph, left):
            yield (left, right)


class _OldProvider(StatisticsProvider):
    """Widths summed by a generator over ``bitset.iter_bits``."""

    __slots__ = ()

    def _compute(self, vertex_set: int) -> IntermediateStats:
        cardinality = self.estimate_cardinality(vertex_set)
        widths = self._widths
        width = sum(widths[index] for index in bitset.iter_bits(vertex_set))
        tuples_per_page = max(1, DEFAULT_PAGE_SIZE // max(1, width))
        pages = max(1.0, math.ceil(cardinality / tuples_per_page))
        return IntermediateStats(
            vertex_set=vertex_set,
            cardinality=cardinality,
            tuple_width=width,
            pages=pages,
        )


class _OldBuilder(PlanBuilder):
    """Each order of a ccp through the model's ``join_cost``."""

    __slots__ = ()

    def price(self, left_set: int, right_set: int) -> Tuple[float, float]:
        self.stats.operator_pricings += 1
        left = self.provider.stats(left_set)
        right = self.provider.stats(right_set)
        join_cost = self.cost_model.join_cost
        return join_cost(left, right), join_cost(right, left)


class _OldDPccp(DPccp):
    """DPccp's old ``run``: bucket the generator's pairs, then flatten."""

    def run(self):
        query = self._query
        for index in range(query.n_relations):
            self._memo.register(self._builder.leaf(query, index))
        if query.n_relations == 1:
            return self._memo.best(self._graph.all_vertices)
        budget = self._budget
        buckets: Dict[int, List[Tuple[int, int]]] = {}
        for left, right in old_enumerate_csg_cmp_pairs(self._graph, self._csgs):
            if budget is not None:
                budget.check()
            self.stats.ccps_enumerated += 1
            buckets.setdefault(bitset.bit_count(left | right), []).append(
                (left, right)
            )
        # The sweeps read pairs packed as DPccp.run files them: ``left``
        # above the low ``n`` bits, ``right`` in them.
        shift = query.n_relations
        words = [
            (left << shift) | right
            for size in sorted(buckets)
            for left, right in buckets[size]
        ]
        if self._memo.k == 1:
            return self._run_flat([words])
        return self._run_ranked([words])


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------


def _family_graph(family: str, n: int) -> Optional[QueryGraph]:
    try:
        return generators.GRAPH_FAMILIES[family](n, random.Random(1000 * n + 7))
    except GraphError:
        return None  # below the family's minimum size


def _family_sizes():
    for family in FAMILIES:
        top = 10 if family == "clique" else 14
        for n in range(1, top + 1):
            if _family_graph(family, n) is not None:
                yield family, n


def _context(
    query: Query, model: str, topk: int, old: bool, budget: Optional[Budget] = None
) -> OptimizationContext:
    provider = (_OldProvider if old else StatisticsProvider)(query)
    cost_model = MODELS[model]().bind(provider)
    builder = (_OldBuilder if old else PlanBuilder)(provider, cost_model)
    return OptimizationContext(
        query, provider, cost_model, builder, budget=budget, topk=topk
    )


def _outcome(algorithm: DPccp, plan) -> tuple:
    return (
        plan.cost.hex(),
        plan_fingerprint(plan),
        [(tree.cost.hex(), plan_fingerprint(tree)) for tree in algorithm.ranked_plans()],
        {name: getattr(algorithm.stats, name) for name in COUNTERS},
    )


def _assert_runs_match(new: DPccp, old: DPccp, model: str, topk: int) -> None:
    """Run both; everything matches, ``operator_pricings`` as restated.

    ``old`` runs the generic flat sweep, which prices every ccp.  At
    ``k = 1`` the new run takes a declared sweep: under ``C_out`` the
    class-priced one, where the counter is the number of classes, one
    pricing each; under Haas the page-priced one, where it is the ccps
    the I/O bound did not rule out, at least one per class.
    """
    new_outcome = _outcome(new, new.run())
    old_outcome = _outcome(old, old.run())
    if topk == 1:
        new_pricings = new_outcome[3].pop("operator_pricings")
        old_pricings = old_outcome[3].pop("operator_pricings")
        assert old_pricings == old.stats.ccps_considered
        if model == "cout":
            assert new_pricings == new.stats.plan_classes_built
        else:
            assert (
                new.stats.plan_classes_built
                <= new_pricings
                <= new.stats.ccps_considered
            )
    assert new_outcome == old_outcome


def _queries():
    generator = QueryGenerator(seed=2024)
    sizes = {"chain": 10, "cycle": 9, "star": 7, "clique": 6, "acyclic": 9, "cyclic": 8}
    for family in FAMILIES:
        for scheme in ("fk", "random"):
            yield generator.generate(family, sizes[family], scheme)
    yield generator.generate("chain", 1)
    yield generator.generate("chain", 2)


QUERIES = list(_queries())


# ----------------------------------------------------------------------
# Emission order
# ----------------------------------------------------------------------


class TestEmissionOrder:
    @pytest.mark.parametrize("family,n", list(_family_sizes()))
    def test_families_match_oracle(self, family, n):
        graph = _family_graph(family, n)
        csgs = enumerate_csg(graph)
        assert csgs == list(old_enumerate_csg(graph))
        assert enumerate_csg_cmp_pairs(graph) == list(
            old_enumerate_csg_cmp_pairs(graph)
        )
        assert enumerate_csg_cmp_pairs(graph, csgs) == list(
            old_enumerate_csg_cmp_pairs(graph, csgs)
        )

    @settings(max_examples=150)
    @given(connected_graphs(min_vertices=1, max_vertices=11))
    def test_drawn_graphs_match_oracle(self, graph):
        assert enumerate_csg(graph) == list(old_enumerate_csg(graph))
        assert enumerate_csg_cmp_pairs(graph) == list(
            old_enumerate_csg_cmp_pairs(graph)
        )


# ----------------------------------------------------------------------
# Whole runs
# ----------------------------------------------------------------------


class TestRunsMatchOracle:
    @pytest.mark.parametrize("topk", [1, 3])
    @pytest.mark.parametrize("model", sorted(MODELS))
    @pytest.mark.parametrize(
        "query", QUERIES, ids=lambda q: f"{q.family}-{q.n_relations}"
    )
    def test_cost_plan_ranking_and_counters(self, query, model, topk):
        old = _OldDPccp(context=_context(query, model, topk, old=True))
        new = DPccp(context=_context(query, model, topk, old=False))
        _assert_runs_match(new, old, model, topk)
        assert {s: c.hex() for s, c in new.optimal_class_costs().items()} == {
            s: c.hex() for s, c in old.optimal_class_costs().items()
        }

    @pytest.mark.parametrize("model", sorted(MODELS))
    def test_handed_in_csgs_match(self, model):
        query = QUERIES[0]
        csgs = enumerate_csg(query.graph)
        old = _OldDPccp(context=_context(query, model, 1, old=True), csgs=csgs)
        new = DPccp(context=_context(query, model, 1, old=False), csgs=csgs)
        _assert_runs_match(new, old, model, 1)


# ----------------------------------------------------------------------
# Budget charging
# ----------------------------------------------------------------------


def _tripped(algorithm_cls, query: Query, budget: Budget, topk: int):
    """Run under ``budget``; what the budget and the counters say after."""
    algorithm = algorithm_cls(
        context=_context(
            query, "haas", topk, old=algorithm_cls is _OldDPccp, budget=budget
        )
    )
    try:
        algorithm.run()
        error = None
    except BudgetExceeded as exc:
        error = (exc.reason, str(exc))
    return (
        error,
        budget.expansions,
        budget.exhausted_reason,
        algorithm.stats.ccps_enumerated,
        algorithm.stats.ccps_considered,
    )


class TestBudgetCharging:
    @pytest.mark.parametrize("topk", [1, 3])
    def test_expansion_cap_trips_where_it_did(self, topk):
        query = QUERIES[0]
        pairs = len(enumerate_csg_cmp_pairs(query.graph))
        caps = (0, 1, 31, pairs // 2, pairs - 1, pairs, pairs + 1,
                pairs + pairs // 2, 2 * pairs - 1, 2 * pairs)
        for cap in caps:
            new = _tripped(DPccp, query, Budget(max_expansions=cap), topk)
            old = _tripped(_OldDPccp, query, Budget(max_expansions=cap), topk)
            assert new == old, cap
        # The cap below the pair count trips while enumerating ...
        error, expansions, _, enumerated, considered = _tripped(
            DPccp, query, Budget(max_expansions=pairs // 2), 1
        )
        assert error[0] == "expansions"
        assert (expansions, enumerated, considered) == (pairs // 2 + 1, pairs // 2, 0)
        # ... and twice the pair count never trips: one charge per pair
        # listed, one per pair swept.
        assert _tripped(DPccp, query, Budget(max_expansions=2 * pairs), 1)[0] is None

    def test_deadline_stops_enumeration_before_every_pair_is_listed(
        self, monkeypatch
    ):
        query = QueryGenerator(seed=5).generate("star", 10)
        graph = query.graph
        csgs = enumerate_csg(graph)
        pairs = len(enumerate_csg_cmp_pairs(graph, csgs))

        # Each connected set EnumerateCsg emits has its complements listed
        # and charged before the next one is emitted.
        listed = []
        emit_csgs = dpccp_module._emit_csgs

        def counting(graph, emit):
            def counted(subset):
                listed.append(subset)
                emit(subset)

            emit_csgs(graph, counted)

        monkeypatch.setattr(dpccp_module, "_emit_csgs", counting)
        ticks = [0.0]

        def clock() -> float:
            ticks[0] += 0.001  # every reading advances a millisecond
            return ticks[0]

        budget = Budget(deadline_seconds=0.004, clock=clock)
        algorithm = DPccp(_context(query, "haas", 1, old=False, budget=budget))
        with pytest.raises(BudgetExceeded) as caught:
            algorithm.run()
        assert caught.value.reason == "deadline"
        assert 0 < algorithm.stats.ccps_enumerated < pairs
        assert algorithm.stats.ccps_considered == 0
        # Listing stopped too: not every connected set's complements
        # were enumerated.
        assert 0 < len(listed) < len(csgs)

    def test_deadline_trips_while_connected_sets_are_listed(self, monkeypatch):
        # Star with the hub at vertex 0: EnumerateCsg emits all 2^(n-1)
        # sets that hold the hub from one level of one recursion call.
        # Listing is what costs time here (every neighborhood probe the
        # memo cannot answer advances the clock), so listing every set
        # first would outlast the deadline before the first charge could
        # see it.  The sets are counted on a copy of the graph, whose
        # neighborhood memo the run does not share.
        query = QueryGenerator(seed=5).generate("star", 16)
        csgs = len(enumerate_csg(QueryGenerator(seed=5).generate("star", 16).graph))
        ticks = [0.0]
        neighborhood = QueryGraph.neighborhood

        def slow_neighborhood(graph, subset, within=-1):
            ticks[0] += 0.001
            return neighborhood(graph, subset, within)

        monkeypatch.setattr(QueryGraph, "neighborhood", slow_neighborhood)
        budget = Budget(deadline_seconds=1.0, clock=lambda: ticks[0])
        algorithm = DPccp(_context(query, "haas", 1, old=False, budget=budget))
        with pytest.raises(BudgetExceeded) as caught:
            algorithm.run()
        assert caught.value.reason == "deadline"
        # About a thousand probes ran before the trip, far fewer than one
        # per connected set (the listing probes every set it emits).
        probes = round(ticks[0] / 0.001)
        assert probes < csgs // 4
        assert 0 < algorithm.stats.ccps_enumerated
