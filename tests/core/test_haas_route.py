"""The Haas route: APCBI or DPccp by predicted pruning yield.

Under Haas costs an unbudgeted single-best ``pruning="apcbi"`` request is
routed by GOO's bound: DPccp serves when more than ``HAAS_LIVE_SHARE`` of
the connected classes of size ``n - 1`` and ``n - 2`` are live.  DPccp
runs in the numbering APCBI would have used, so routing changes the
label and the wall clock, never the plan: every test here is
deterministic and compares plans by ``float.hex`` and
``plan_fingerprint``, not timings.
"""

import random

import pytest

from repro.baselines.dpccp import DPccp
from repro.context.context import OptimizationContext
from repro.context.plancache import PlanCache
from repro.core import optimizer as optimizer_module
from repro.core.advancements import AdvancementConfig
from repro.core.optimizer import (
    HAAS_LIVE_SHARE,
    Optimizer,
    optimize_topk,
    run_dpccp,
)
from repro.core.plangen import PlanGeneratorBase
from repro.cost.cout import CoutCostModel
from repro.graph import bitset
from repro.graph.generators import random_cyclic_graph, star_graph
from repro.heuristics.goo import GreedyOperatorOrdering
from repro.plans.join_tree import JoinNode, plan_fingerprint
from repro.query import Query
from repro.resilience.budget import Budget
from repro.telemetry import MetricRegistry, Telemetry, Tracer
from repro.workload.generator import QueryGenerator

FAMILIES = ("chain", "star", "cycle", "clique", "acyclic", "cyclic")

CONFIGS = {
    "default": AdvancementConfig.all_on(),
    "renumber_off": AdvancementConfig.all_but("renumber_graph"),
}


def _ordinary(graph, seed, family):
    """``graph`` with ordinary foreign-key statistics.

    The generator's own stars get pruning-disabled statistics (every
    join order costs the same); these stars and trees get the statistics
    of every other family.
    """
    catalog = QueryGenerator(seed=seed)._catalog(
        graph, random.Random(seed), "fk"
    )
    return Query(graph=graph, catalog=catalog, family=family, seed=seed)


def _queries():
    """Seeded queries of every family, ordinary stars, sparse trees."""
    queries = []
    for seed in (1, 2):
        generator = QueryGenerator(seed=seed)
        for family in FAMILIES:
            for n in (7, 9):
                queries.append((f"{family}-{n}@{seed}", generator.generate(family, n)))
        # Sparse shapes at n >= 16, where routing has the most to gain.
        generator = QueryGenerator(seed=seed)
        for family in ("chain", "cycle", "acyclic"):
            for n in (16, 18):
                queries.append((f"{family}-{n}@{seed}", generator.generate(family, n)))
    for seed in (1, 2, 3):
        for n in (7, 9):
            queries.append(
                (f"star-{n}-ordinary@{seed}", _ordinary(star_graph(n), seed, "star"))
            )
    for seed in (1, 2):
        for n in (10, 12, 14):
            extra = 1 + (n + seed) % 3
            graph = random_cyclic_graph(
                n, extra_edges=extra, rng=random.Random(100 * seed + n)
            )
            queries.append(
                (f"tree+{extra}-{n}@{seed}", _ordinary(graph, seed, "cyclic"))
            )
    return queries


QUERIES = _queries()


def _relabeled(query):
    mapping = list(range(query.n_relations))
    random.Random(query.n_relations).shuffle(mapping)
    return query.relabel(mapping)


def _cases():
    for name, query in QUERIES:
        yield pytest.param(query, id=name)
        yield pytest.param(_relabeled(query), id=f"{name}-relabeled")


def _traced():
    return Telemetry(registry=MetricRegistry(), tracer=Tracer())


def _selected_events(telemetry):
    return [
        event
        for span in telemetry.tracer.finished_spans()
        for event in span.events
        if event["name"] == "algorithm_selected"
    ]


def _same_plan(left, right):
    return left.cost.hex() == right.cost.hex() and plan_fingerprint(
        left.plan
    ) == plan_fingerprint(right.plan)


@pytest.fixture
def runs(monkeypatch):
    """Counts GOO runs and the algorithms that enumerated."""
    counts = {"goo": 0, "dpccp": 0, "topdown": 0}

    def counting(owner, attribute, key):
        original = getattr(owner, attribute)

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, attribute, wrapper)

    counting(GreedyOperatorOrdering, "build", "goo")
    counting(DPccp, "run", "dpccp")
    counting(PlanGeneratorBase, "run", "topdown")
    return counts


class TestPlanIdentity:
    @pytest.mark.parametrize("config", sorted(CONFIGS))
    @pytest.mark.parametrize("query", _cases())
    def test_routed_plan_is_apcbis_plan(self, query, config):
        routed = Optimizer(config=CONFIGS[config]).optimize(query)
        pinned = Optimizer(config=CONFIGS[config], auto_route=False).optimize(
            query
        )
        assert pinned.pruning == "apcbi"
        assert _same_plan(routed, pinned)

    def test_the_set_exercises_both_choices(self):
        choices = {Optimizer().optimize(query).pruning for _, query in QUERIES}
        assert choices == {"apcbi", "dpccp"}


class TestDecision:
    @pytest.mark.parametrize("query", _cases())
    def test_label_names_the_algorithm_that_ran(self, query, runs):
        result = Optimizer().optimize(query)
        if result.pruning == "dpccp":
            assert (runs["dpccp"], runs["topdown"]) == (1, 0)
            assert result.label == "DPccp"
        else:
            assert result.pruning == "apcbi"
            assert (runs["dpccp"], runs["topdown"]) == (0, 1)
            assert result.label == "TDMcC_APCBI"

    @pytest.mark.parametrize("config", sorted(CONFIGS))
    @pytest.mark.parametrize("query", _cases())
    def test_goo_runs_once_per_routed_request(self, query, config, runs):
        Optimizer(config=CONFIGS[config]).optimize(query)
        assert runs["goo"] == 1

    @pytest.mark.parametrize("name, query", QUERIES, ids=[n for n, _ in QUERIES])
    def test_relabelings_get_the_same_decision(self, name, query):
        decisions = {
            Optimizer().optimize(variant).pruning
            for variant in (query, _relabeled(query), _relabeled(_relabeled(query)))
        }
        assert len(decisions) == 1

    @pytest.mark.parametrize("name, query", QUERIES, ids=[n for n, _ in QUERIES])
    def test_event_records_the_prediction_and_the_work(self, name, query):
        telemetry = _traced()
        result = Optimizer(telemetry=telemetry).optimize(query)
        (event,) = _selected_events(telemetry)
        goo = GreedyOperatorOrdering().build(
            query, OptimizationContext.for_query(query).builder
        )
        assert event["candidates"] == ("apcbi", "dpccp")
        assert event["upper_bound"].hex() == goo.cost.hex()
        assert 0.0 <= event["live_share"] <= 1.0
        assert event["choice"] == result.pruning
        assert (event["choice"] == "dpccp") == (
            event["live_share"] > HAAS_LIVE_SHARE
        )
        assert event["ccps_considered"] == result.stats.ccps_considered


class TestRoutingIsTraced:
    """The router's work runs inside the ``enumerate`` span it is timed in."""

    QUERY = QueryGenerator(seed=4).generate("clique", 7)

    @staticmethod
    def _spans_seen(monkeypatch, owner, attribute, tracer):
        seen = []
        original = getattr(owner, attribute)

        def wrapper(*args, **kwargs):
            current = tracer.current()
            seen.append(None if current is None else current.name)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, attribute, wrapper)
        return seen

    def test_haas_route_heuristic_and_sampling(self, monkeypatch):
        telemetry = _traced()
        goo = self._spans_seen(
            monkeypatch, GreedyOperatorOrdering, "build", telemetry.tracer
        )
        sampled = self._spans_seen(
            monkeypatch, optimizer_module, "_live_share", telemetry.tracer
        )
        Optimizer(telemetry=telemetry).optimize(self.QUERY)
        assert goo == ["enumerate"]
        assert sampled == ["enumerate"]

    def test_cout_route_connected_set_pass(self, monkeypatch):
        telemetry = _traced()
        csgs = self._spans_seen(
            monkeypatch, optimizer_module, "enumerate_csg", telemetry.tracer
        )
        Optimizer(cost_model_factory=CoutCostModel, telemetry=telemetry).optimize(
            self.QUERY
        )
        assert csgs == ["enumerate"]


class TestLiveShare:
    @pytest.mark.parametrize("name, query", QUERIES, ids=[n for n, _ in QUERIES])
    def test_samples_the_connected_classes_nearest_the_root(self, name, query):
        context = OptimizationContext.for_query(query)
        graph = query.graph
        root = graph.all_vertices
        nearest = [
            vertex_set
            for vertex_set in range(1, root)
            if bitset.bit_count(vertex_set) >= query.n_relations - 2
            and vertex_set != root
            and graph.is_connected(vertex_set)
        ]
        bound = run_dpccp(query).cost
        live = [
            vertex_set
            for vertex_set in nearest
            if context.provider.stats(vertex_set).pages <= bound
        ]
        share, sampled = optimizer_module._live_share(context, bound)
        assert sampled == len(nearest)
        assert share == len(live) / len(nearest)

    @pytest.mark.parametrize("name, query", QUERIES, ids=[n for n, _ in QUERIES])
    def test_sampling_grows_no_statistics_memo(self, name, query):
        # The run the route picks may never price these classes.
        context = OptimizationContext.for_query(query)
        memoized = context.provider.cache_size()
        optimizer_module._live_share(context, run_dpccp(query).cost)
        assert context.provider.cache_size() == memoized

    @pytest.mark.parametrize("name, query", QUERIES, ids=[n for n, _ in QUERIES])
    def test_dead_classes_are_in_no_optimal_plan(self, name, query):
        # A class whose pages exceed GOO's cost cannot be a join input
        # of any plan at most that expensive, the optimum included.
        context = OptimizationContext.for_query(query)
        bound = GreedyOperatorOrdering().build(query, context.builder).cost
        plan = run_dpccp(query).plan
        stack = [plan]
        while stack:
            node = stack.pop()
            if isinstance(node, JoinNode):
                for child in (node.left, node.right):
                    assert context.provider.stats(child.vertex_set).pages <= bound
                    stack.append(child)


class TestNeverRouted:
    QUERY = QueryGenerator(seed=4).generate("clique", 7)

    def test_the_probe_query_is_routed_to_dpccp(self):
        assert Optimizer().optimize(self.QUERY).pruning == "dpccp"

    def test_budgeted_runs(self):
        telemetry = _traced()
        result = Optimizer(telemetry=telemetry).optimize(
            self.QUERY, budget=Budget(max_expansions=10**9)
        )
        assert result.pruning == "apcbi"
        assert _selected_events(telemetry) == []

    def test_ranked_retention(self):
        telemetry = _traced()
        result = optimize_topk(self.QUERY, k=3, telemetry=telemetry)
        assert result.pruning == "apcbi"
        assert len(result.ranked) == 3
        assert _selected_events(telemetry) == []

    @pytest.mark.parametrize(
        "pruning", ["none", "acb", "pcb", "apcb", "apcbi_opt"]
    )
    def test_other_prunings(self, pruning):
        telemetry = _traced()
        result = Optimizer(pruning=pruning, telemetry=telemetry).optimize(
            self.QUERY
        )
        assert result.pruning == pruning
        assert _selected_events(telemetry) == []

    def test_routing_off(self, runs):
        telemetry = _traced()
        result = Optimizer(telemetry=telemetry, auto_route=False).optimize(
            self.QUERY
        )
        assert result.pruning == "apcbi"
        assert _selected_events(telemetry) == []
        assert runs["goo"] == 1

    def test_cout_takes_its_own_route(self):
        telemetry = _traced()
        Optimizer(
            cost_model_factory=CoutCostModel, telemetry=telemetry
        ).optimize(self.QUERY)
        (event,) = _selected_events(telemetry)
        assert event["candidates"] == ("dpconv", "dpccp")

    def test_a_cache_hit_selects_nothing(self, runs):
        telemetry = _traced()
        optimizer = Optimizer(plan_cache=PlanCache(), telemetry=telemetry)
        cold = optimizer.optimize(self.QUERY)
        assert len(_selected_events(telemetry)) == 1
        warm = optimizer.optimize(_relabeled(self.QUERY))
        assert warm.stats.plan_cache_hits == 1
        assert len(_selected_events(telemetry)) == 1
        assert runs["goo"] == 1
        assert (warm.enumerator, warm.pruning) == (cold.enumerator, cold.pruning)
