"""The Haas route: APCBI or DPccp by predicted pruning yield.

Under Haas costs an unbudgeted single-best ``pruning="apcbi"`` request is
routed by GOO's bound: DPccp serves when more than ``HAAS_LIVE_SHARE`` of
the connected classes of size ``n - 1`` and ``n - 2`` are live, or when
fewer are but the graph has at most ``HAAS_CSG_CAP`` connected sets.
DPccp runs in the caller's numbering and breaks ties under the labels of
the numbering APCBI would have used, so routing changes the label and
the wall clock, never the plan: every test here is deterministic and
compares plans by ``float.hex`` and ``plan_fingerprint``, not timings.

The route used to run DPccp on a context relabeled into APCBI's
numbering and relabel the plan back.  That path lives on here, and only
here, as the oracle for the labelled run.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from perfbench.workloads import WORKLOADS, make_pool
from repro.baselines.dpccp import DPccp, enumerate_csg
from repro.context.context import OptimizationContext
from repro.context.plancache import PlanCache
from repro.core import routing as routing_module
from repro.core.advancements import AdvancementConfig
from repro.core.optimizer import (
    HAAS_CSG_CAP,
    HAAS_LIVE_SHARE,
    Optimizer,
    optimize_topk,
    run_dpccp,
)
from repro.core.plangen import PlanGeneratorBase
from repro.cost.cout import CoutCostModel
from repro.graph import bitset
from repro.graph.generators import random_cyclic_graph, star_graph
from repro.graph.renumber import invert_mapping, remap_bitset
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


def _pool_acyclic_12(run_seed):
    """The ``cold_haas`` pool's acyclic-12 as a run at ``run_seed`` sees it."""
    pool = make_pool(WORKLOADS["cold_haas"], run_seed)
    (query,) = [
        query
        for query in pool.queries
        if query.family == "acyclic" and query.n_relations == 12
    ]
    return query


def _enumspeed_acyclic_19():
    """enumspeed's Haas acyclic-19: the fourth draw of its generator."""
    generator = QueryGenerator(seed=20120403)
    for family, n in (("clique", 10), ("star", 12), ("cyclic", 13)):
        generator.generate(family, n)
    return generator.generate("acyclic", 19)


#: Low-live-share queries on each side of the cap, with the choice each
#: gets: the pool's acyclic-12 (live share 0.23, 417 connected sets)
#: and enumspeed's acyclic-19 (0.19, 4,083).
NAMED = [
    *(
        pytest.param(_pool_acyclic_12(seed), "dpccp", id=f"pool-acyclic-12@{seed}")
        for seed in (20120411, 3, 7)
    ),
    pytest.param(_enumspeed_acyclic_19(), "apcbi", id="enumspeed-acyclic-19"),
]


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
        predicted = event["predicted"]
        assert event["route"] == "haas"
        assert event["candidates"] == ("apcbi", "dpccp")
        assert predicted["upper_bound"].hex() == goo.cost.hex()
        assert 0.0 <= predicted["live_share"] <= 1.0
        assert event["choice"] == result.pruning
        if predicted["live_share"] > HAAS_LIVE_SHARE:
            # The share alone decides: nothing is listed.
            assert predicted["connected_sets"] is None
            assert not predicted["stopped_at_cap"]
            assert event["choice"] == "dpccp"
        elif predicted["stopped_at_cap"]:
            assert len(enumerate_csg(query.graph)) > HAAS_CSG_CAP
            assert predicted["connected_sets"] == HAAS_CSG_CAP + 1
            assert event["choice"] == "apcbi"
        else:
            assert predicted["connected_sets"] == len(enumerate_csg(query.graph))
            assert predicted["connected_sets"] <= HAAS_CSG_CAP
            assert event["choice"] == "dpccp"
        assert event["actual"]["ccps_considered"] == result.stats.ccps_considered


class TestNamedQueries:
    """The queries the cap was placed between, under three relabelings."""

    @pytest.mark.parametrize("query, choice", NAMED)
    def test_choice_and_plan(self, query, choice):
        for variant in (query, _relabeled(query), _relabeled(_relabeled(query))):
            routed = Optimizer().optimize(variant)
            pinned = Optimizer(auto_route=False).optimize(variant)
            assert routed.pruning == choice
            assert _same_plan(routed, pinned)
            assert routed.plan.sexpr() == pinned.plan.sexpr()

    @pytest.mark.parametrize("query, choice", NAMED)
    def test_listing_reuses_its_connected_sets(self, query, choice, monkeypatch):
        # A routed DPccp takes the router's list instead of listing again.
        handed = []
        original = DPccp.__init__

        def recording(self, *args, **kwargs):
            handed.append(kwargs.get("csgs"))
            original(self, *args, **kwargs)

        monkeypatch.setattr(DPccp, "__init__", recording)
        Optimizer().optimize(query)
        if choice == "dpccp":
            assert handed == [enumerate_csg(query.graph)]
        else:
            assert handed == []


#: Largest drawn size per family; the rest go up to 13.
_MAX_RELATIONS = {"clique": 10}

#: Counters that do not depend on the order the ccps are swept in.
#: ``operator_pricings`` (the I/O bound skips a ccp against the incumbent
#: of the moment) and ``plan_improvements`` do.
_ORDER_FREE_COUNTERS = (
    "ccps_enumerated",
    "ccps_considered",
    "trees_created",
    "plan_classes_built",
)


@st.composite
def _labelled_queries(draw):
    family = draw(st.sampled_from(FAMILIES))
    low = 3 if family in ("cycle", "cyclic") else 2
    n = draw(st.integers(low, _MAX_RELATIONS.get(family, 13)))
    scheme = draw(st.sampled_from(("fk", "random")))
    seed = draw(st.integers(0, 2**31 - 1))
    query = QueryGenerator(seed=seed).generate(family, n, scheme)
    return query, draw(st.permutations(range(n)))


def _relabeled_dpccp(query, mapping):
    """The former routed path: DPccp on a context relabeled by ``mapping``,
    its plan relabeled back into the caller's numbering."""
    context = OptimizationContext.for_query(query).relabeled(mapping)
    algorithm = DPccp(context=context)
    plan = algorithm.run().relabel(invert_mapping(mapping))
    return algorithm, plan


class TestLabelledDPccpMatchesRelabeledRun:
    @settings(max_examples=150, deadline=None)
    @given(_labelled_queries())
    def test_plan_class_costs_and_counters(self, drawn):
        query, mapping = drawn
        labelled = DPccp(context=OptimizationContext.for_query(query), labels=mapping)
        plan = labelled.run()
        oracle, oracle_plan = _relabeled_dpccp(query, mapping)
        assert plan.sexpr() == oracle_plan.sexpr()
        assert plan.cost.hex() == oracle_plan.cost.hex()
        assert plan_fingerprint(plan) == plan_fingerprint(oracle_plan)
        assert {
            remap_bitset(vertex_set, mapping): cost.hex()
            for vertex_set, cost in labelled.optimal_class_costs().items()
        } == {
            vertex_set: cost.hex()
            for vertex_set, cost in oracle.optimal_class_costs().items()
        }
        for name in _ORDER_FREE_COUNTERS:
            assert getattr(labelled.stats, name) == getattr(oracle.stats, name)
        for run in (labelled, oracle):
            stats = run.stats
            assert stats.plan_classes_built <= stats.operator_pricings
            assert stats.operator_pricings <= stats.ccps_considered

    def test_a_routed_dpccp_relabels_nothing(self, monkeypatch):
        relabeled = []
        original = OptimizationContext.relabeled

        def recording(self, mapping):
            relabeled.append(mapping)
            return original(self, mapping)

        monkeypatch.setattr(OptimizationContext, "relabeled", recording)
        routed = 0
        for _, query in QUERIES:
            relabeled.clear()
            if Optimizer().optimize(query).pruning == "dpccp":
                routed += 1
                assert relabeled == []
        assert routed > 0

    def test_one_provider_holds_every_statistics_object(self):
        # GOO and DPccp price on the caller's provider; the span counts it.
        telemetry = _traced()
        query = QUERIES[0][1]
        context = OptimizationContext.for_query(query, telemetry=telemetry)
        result = Optimizer(telemetry=telemetry).optimize(query, context=context)
        assert result.pruning == "dpccp"
        (span,) = [
            span
            for span in telemetry.tracer.finished_spans()
            if span.name == "enumerate"
        ]
        assert span.attrs["stats_classes"] == context.provider.cache_size()

    def test_labels_apply_to_single_best_runs_only(self):
        query = QueryGenerator(seed=4).generate("clique", 5)
        context = OptimizationContext.for_query(query, topk=2)
        with pytest.raises(ValueError):
            DPccp(context=context, labels=list(range(5)))


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
            monkeypatch, routing_module, "_live_share", telemetry.tracer
        )
        Optimizer(telemetry=telemetry).optimize(self.QUERY)
        assert goo == ["enumerate"]
        assert sampled == ["enumerate"]

    def test_cout_route_connected_set_pass(self, monkeypatch):
        telemetry = _traced()
        csgs = self._spans_seen(
            monkeypatch, routing_module, "enumerate_csg", telemetry.tracer
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
        share, sampled = routing_module._live_share(context, bound)
        assert sampled == len(nearest)
        assert share == len(live) / len(nearest)

    @pytest.mark.parametrize("name, query", QUERIES, ids=[n for n, _ in QUERIES])
    def test_sampling_grows_no_statistics_memo(self, name, query):
        # The run the route picks may never price these classes.
        context = OptimizationContext.for_query(query)
        memoized = context.provider.cache_size()
        routing_module._live_share(context, run_dpccp(query).cost)
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
