"""Tests for the DPconv subset-convolution fast path.

The contract under test is *bit-exactness*: inside its eligibility
envelope (``C_out``-shaped cost model, ``topk == 1``) DPconv must return
the same optimal cost as DPccp down to the last ulp, refuse everything
outside the envelope, and the :class:`Optimizer` facade must only ever
engage it when that envelope holds.
"""

import contextlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines import dpccp as dpccp_module
from repro.baselines import dpconv as dpconv_module
from repro.baselines.dpconv import DPconv, _MAX_RELATIONS, eligible
from repro.catalog.catalog import Catalog
from repro.catalog.relation import RelationStats
from repro.context.context import OptimizationContext
from repro.core import routing as routing_module
from repro.core.optimizer import (
    Optimizer,
    optimize_topk,
    run_dpccp,
    run_dpconv,
)
from repro.cost.cout import CoutCostModel
from repro.cost.haas import HaasCostModel
from repro.errors import BudgetExceeded, OptimizationError
from repro.graph import bitset
from repro.graph.query_graph import QueryGraph
from repro.plans.validation import validate_plan
from repro.query import Query
from repro.resilience.budget import Budget
from repro.telemetry import MetricRegistry, Telemetry, Tracer
from repro.workload.generator import QueryGenerator
from tests.conftest import small_queries

FAMILIES = ("chain", "star", "cycle", "clique", "acyclic", "cyclic")
TREE_FAMILIES = ("chain", "star", "acyclic")


@contextlib.contextmanager
def _counted_csg_passes():
    """Counts every connected-set listing, wherever it is looked up:
    each EnumerateCsg pass, and each listing of a tree's sets as subtree
    products (a graph with a cycle gets none)."""
    calls = []
    enumerate_csg = dpccp_module.enumerate_csg
    subtree_products = dpconv_module._subtree_products

    def counting_enumerate(graph, *cap):
        calls.append(graph)
        return enumerate_csg(graph, *cap)

    def counting_products(graph, edges):
        calls.append(graph)
        return subtree_products(graph, edges)

    with pytest.MonkeyPatch.context() as patch:
        for module in (dpccp_module, dpconv_module, routing_module):
            patch.setattr(module, "enumerate_csg", counting_enumerate)
        patch.setattr(dpconv_module, "_subtree_products", counting_products)
        yield calls


@pytest.fixture
def csg_passes():
    with _counted_csg_passes() as calls:
        yield calls


def _traced():
    return Telemetry(registry=MetricRegistry(), tracer=Tracer())


def _selected_events(telemetry):
    return [
        event
        for span in telemetry.tracer.finished_spans()
        for event in span.events
        if event["name"] == "algorithm_selected"
    ]


class TestBitExactness:
    @given(small_queries())
    @settings(max_examples=40, deadline=None)
    def test_cost_bit_identical_to_dpccp_under_cout(self, query):
        reference = run_dpccp(query, cost_model_factory=CoutCostModel)
        fast = run_dpconv(query)
        assert fast.cost.hex() == reference.cost.hex()

    @given(small_queries())
    @settings(max_examples=20, deadline=None)
    def test_plans_validate(self, query):
        result = run_dpconv(query)
        validate_plan(result.plan, query)

    def test_single_relation_query(self):
        query = QueryGenerator(seed=7).generate("chain", 1)
        result = run_dpconv(query)
        assert result.plan.vertex_set == query.graph.all_vertices
        assert result.cost == pytest.approx(0.0)

    def test_counts_the_full_convolution_work(self):
        # On a clique every subset is connected, so the sweep's per-class
        # split count is exact: sum over layers of C(n, s) * (2^(s-1)-1).
        query = QueryGenerator(seed=11).generate("clique", 6)
        result = run_dpconv(query)
        import math

        expected = sum(
            math.comb(6, s) * (2 ** (s - 1) - 1) for s in range(2, 7)
        )
        assert result.stats.ccps_enumerated == expected
        assert result.stats.plan_classes_built == 2**6 - 1 - 6


@st.composite
def _tree_queries(draw):
    """Queries on trees (chain, star, acyclic), relabeled by a drawn map."""
    family = draw(st.sampled_from(TREE_FAMILIES))
    n = draw(st.integers(2, 14))
    seed = draw(st.integers(0, 2**31 - 1))
    scheme = draw(st.sampled_from(("fk", "random")))
    mapping = draw(st.permutations(range(n)))
    return QueryGenerator(seed=seed).generate(family, n, scheme).relabel(mapping)


def _swept_run(query, lattice):
    """Run DPconv on ``query``; returns its plan, tables and stats.

    ``lattice`` forces the lattice sweep, the oracle, even on a tree.
    """
    context = OptimizationContext.for_query(query, cost_model=CoutCostModel)
    dpconv = DPconv(context)
    sweep = dpconv._lattice_sweep if lattice else dpconv._sweep
    tables = []

    def recorded():
        tables.append(sweep())
        return tables[0]

    dpconv._sweep = recorded
    plan = dpconv.run()
    return plan, tables[0], context.stats


class TestTreeSweep:
    @given(_tree_queries())
    @settings(max_examples=40, deadline=None)
    def test_the_tree_sweep_matches_the_lattice(self, query):
        assert dpconv_module.tree_edges(query.graph) is not None
        plan, (dp, split), stats = _swept_run(query, lattice=False)
        want_plan, (want_dp, want_split), want_stats = _swept_run(
            query, lattice=True
        )
        csgs = dpccp_module.enumerate_csg(query.graph)
        for vertex_set in csgs:
            assert dp[vertex_set].hex() == want_dp[vertex_set].hex()
            if bitset.bit_count(vertex_set) > 1:
                assert split[vertex_set] == want_split[vertex_set]
        assert plan.sexpr() == want_plan.sexpr()
        assert plan.cost.hex() == want_plan.cost.hex()
        assert stats.plan_classes_built == want_stats.plan_classes_built
        # The tree sweep counts exactly the inner edges it probes.
        assert stats.ccps_considered == stats.ccps_enumerated == sum(
            bitset.bit_count(vertex_set) - 1 for vertex_set in csgs
        )

    def test_a_disconnected_graph_with_n_minus_1_edges_has_no_plan(self):
        # A triangle plus an isolated vertex: three edges on four
        # vertices, but no tree.  A Query refuses a disconnected graph,
        # so the run is built on the triangle plus a pendant edge to R3
        # and then handed the triangle alone.
        triangle = [(0, 1), (0, 2), (1, 2)]
        query = Query(
            graph=QueryGraph(4, triangle + [(2, 3)]),
            catalog=Catalog(
                [RelationStats(cardinality=10 * (i + 1)) for i in range(4)],
                {edge: 0.1 for edge in triangle + [(2, 3)]},
            ),
        )
        graph = QueryGraph(4, triangle)
        assert dpconv_module.tree_edges(graph) is None
        csgs = dpccp_module.enumerate_csg(graph)
        assert dpconv_module.sweep_layout(graph)[3] == sum(
            2 ** (bitset.bit_count(vertex_set) - 1) - 1 for vertex_set in csgs
        )
        dpconv = DPconv(
            OptimizationContext.for_query(query, cost_model=CoutCostModel)
        )
        dpconv._graph = graph
        with pytest.raises(OptimizationError, match="no plan"):
            dpconv.run()

    @pytest.mark.parametrize("family, n", [("star", 9), ("acyclic", 10)])
    def test_a_budget_trips_at_the_lattices_class_count(self, family, n):
        query = QueryGenerator(seed=6).generate(family, n)
        classes = run_dpconv(query).stats.plan_classes_built
        for lattice in (False, True):
            with pytest.MonkeyPatch.context() as patch:
                if lattice:
                    patch.setattr(DPconv, "_sweep", DPconv._lattice_sweep)
                budget = Budget(max_expansions=classes - 1)
                with pytest.raises(BudgetExceeded):
                    run_dpconv(query, budget=budget)
                assert budget.expansions == classes
                budget = Budget(max_expansions=classes)
                run_dpconv(query, budget=budget)
                assert budget.expansions == classes


class TestEligibility:
    def _context(self, query, cost_model=None, topk=1):
        return OptimizationContext.for_query(
            query, cost_model=cost_model or CoutCostModel(), topk=topk
        )

    def test_cout_topk1_is_eligible(self):
        query = QueryGenerator(seed=3).generate("star", 6)
        assert eligible(self._context(query))

    def test_haas_model_is_not_eligible(self):
        query = QueryGenerator(seed=3).generate("star", 6)
        context = self._context(query, cost_model=HaasCostModel())
        assert not eligible(context)
        with pytest.raises(OptimizationError, match="cout_shaped"):
            DPconv(context=context)

    def test_ranked_retention_is_not_eligible(self):
        query = QueryGenerator(seed=3).generate("star", 6)
        context = self._context(query, topk=3)
        assert not eligible(context)
        with pytest.raises(OptimizationError, match="topk"):
            DPconv(context=context)

    def test_oversized_query_is_not_eligible(self):
        query = QueryGenerator(seed=3).generate("chain", _MAX_RELATIONS + 1)
        context = self._context(query)
        assert not eligible(context)
        with pytest.raises(OptimizationError, match="dense"):
            DPconv(context=context)

    def test_budget_exhaustion_raises(self):
        query = QueryGenerator(seed=5).generate("clique", 8)
        budget = Budget(max_expansions=10)
        budget.start()
        with pytest.raises(BudgetExceeded):
            DPconv(
                OptimizationContext.for_query(query, CoutCostModel(), budget=budget)
            ).run()


class TestFacadeRouting:
    def test_explicit_dpconv_runs_the_fast_path(self):
        query = QueryGenerator(seed=9).generate("cycle", 7)
        result = Optimizer(
            pruning="dpconv", cost_model_factory=CoutCostModel
        ).optimize(query)
        assert result.pruning == "dpconv"
        assert result.enumerator == "dpconv"
        assert result.label == "DPconv"

    def test_explicit_dpconv_falls_back_honestly_under_haas(self):
        query = QueryGenerator(seed=9).generate("cycle", 7)
        result = Optimizer(pruning="dpconv").optimize(query)
        assert result.pruning == "dpccp"
        reference = run_dpccp(query)
        assert result.cost.hex() == reference.cost.hex()

    def test_fallback_emits_a_telemetry_event(self):
        telemetry = _traced()
        query = QueryGenerator(seed=9).generate("cycle", 7)
        Optimizer(pruning="dpconv", telemetry=telemetry).optimize(query)
        events = [
            event
            for span in telemetry.tracer.finished_spans()
            for event in span.events
            if event["name"] == "dpconv_fallback"
        ]
        assert events, "fallback must be observable in the trace"

    @pytest.mark.parametrize("family, n", [("cycle", 24), ("cycle", 20)])
    def test_sparse_cout_queries_route_to_dpccp(self, family, n):
        # DPconv's lattice would probe about 2^n splits on these non-tree
        # graphs; DPccp's csg-cmp pairs grow polynomially.
        telemetry = _traced()
        query = QueryGenerator(seed=2).generate(family, n)
        result = Optimizer(
            cost_model_factory=CoutCostModel, telemetry=telemetry
        ).optimize(query)
        assert result.pruning == result.enumerator == "dpccp"
        assert result.label == "DPccp"
        # Routed, not a fallback: no dpconv_fallback event.
        names = [
            event["name"]
            for span in telemetry.tracer.finished_spans()
            for event in span.events
        ]
        assert names == ["algorithm_selected"]
        reference = run_dpccp(query, cost_model_factory=CoutCostModel)
        assert result.cost.hex() == reference.cost.hex()

    @pytest.mark.parametrize("family, n", [("chain", 24), ("acyclic", 16)])
    def test_tree_cout_queries_route_to_dpconv(self, family, n):
        # On a tree DPconv probes only each connected set's inner edges,
        # at most n - 1 < DPCCP_WORK_PER_CSG per set.
        telemetry = _traced()
        query = QueryGenerator(seed=2).generate(family, n)
        result = Optimizer(
            cost_model_factory=CoutCostModel, telemetry=telemetry
        ).optimize(query)
        assert result.pruning == result.enumerator == "dpconv"
        (event,) = _selected_events(telemetry)
        assert event["predicted"]["dpconv"] == result.stats.ccps_considered
        reference = run_dpccp(query, cost_model_factory=CoutCostModel)
        assert result.cost.hex() == reference.cost.hex()

    @pytest.mark.parametrize("family, n", [("clique", 8), ("star", 9)])
    def test_dense_cout_queries_route_to_dpconv(self, family, n):
        query = QueryGenerator(seed=2).generate(family, n)
        result = Optimizer(cost_model_factory=CoutCostModel).optimize(query)
        assert result.pruning == result.enumerator == "dpconv"

    def test_auto_fast_path_matches_the_requested_algorithm(self):
        query = QueryGenerator(seed=2).generate("clique", 7)
        auto = Optimizer(cost_model_factory=CoutCostModel).optimize(query)
        exact = Optimizer(
            cost_model_factory=CoutCostModel, auto_route=False
        ).optimize(query)
        assert auto.pruning == "dpconv"
        assert auto.cost.hex() == exact.cost.hex()

    def test_auto_fast_path_respects_opt_out(self, csg_passes):
        query = QueryGenerator(seed=2).generate("clique", 7)
        result = Optimizer(
            cost_model_factory=CoutCostModel, auto_route=False
        ).optimize(query)
        assert result.pruning == "apcbi"
        assert csg_passes == []

    def test_auto_fast_path_stays_off_under_a_budget(self, csg_passes):
        # DPconv has weak partial-plan salvage; anytime runs must keep
        # the algorithm the caller configured, and predict nothing.
        query = QueryGenerator(seed=2).generate("clique", 7)
        result = Optimizer(cost_model_factory=CoutCostModel).optimize(
            query, budget=Budget(max_expansions=10**9)
        )
        assert result.pruning == "apcbi"
        assert csg_passes == []

    @pytest.mark.parametrize("family, n", [("chain", 16), ("clique", 7)])
    def test_a_routed_run_enumerates_connected_sets_once(
        self, csg_passes, family, n
    ):
        query = QueryGenerator(seed=2).generate(family, n)
        result = Optimizer(cost_model_factory=CoutCostModel).optimize(query)
        assert result.pruning in ("dpconv", "dpccp")
        assert csg_passes == [query.graph]

    @pytest.mark.parametrize("family, n", [("chain", 14), ("star", 10)])
    def test_a_routed_tree_is_rooted_and_laid_out_once(self, family, n):
        query = QueryGenerator(seed=2).generate(family, n)
        calls = {"roots": 0, "bit_counts": 0}
        tree_edges = dpconv_module.tree_edges
        bit_count = bitset.bit_count

        def counting_edges(graph):
            calls["roots"] += 1
            return tree_edges(graph)

        def counting_bits(value):
            calls["bit_counts"] += 1
            return bit_count(value)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(dpconv_module, "tree_edges", counting_edges)
            patch.setattr(bitset, "bit_count", counting_bits)
            result = Optimizer(cost_model_factory=CoutCostModel).optimize(query)
        assert result.pruning == "dpconv"
        csgs = dpccp_module.enumerate_csg(query.graph)
        assert calls == {"roots": 1, "bit_counts": len(csgs)}

    @pytest.mark.parametrize(
        "family, n, choice",
        [
            ("clique", 8, "dpconv"),
            # Trees: DPconv probes each set's inner edges, under
            # DPCCP_WORK_PER_CSG per set whatever their size.
            ("chain", 16, "dpconv"),
            ("acyclic", 14, "dpconv"),
            ("star", 12, "dpconv"),
            # cold_cout pool shapes with cycles, over DPCCP_WORK_PER_CSG
            # (split probes per connected set: 199 and 114).
            ("cycle", 12, "dpccp"),
            ("cyclic", 12, "dpccp"),
        ],
    )
    def test_algorithm_selected_event_records_the_prediction(
        self, family, n, choice
    ):
        telemetry = _traced()
        query = QueryGenerator(seed=4).generate(family, n)
        result = Optimizer(
            cost_model_factory=CoutCostModel, telemetry=telemetry
        ).optimize(query)
        (event,) = _selected_events(telemetry)
        assert event["candidates"] == ("dpconv", "dpccp")
        assert event["choice"] == result.pruning == choice
        assert event["route"] == "cout"
        predicted = event["predicted"]
        assert predicted[choice] == min(predicted.values())
        actual = event["actual"]["ccps_considered"]
        assert actual == result.stats.ccps_considered
        if choice == "dpconv":
            # DPconv's prediction is exact: its split probes, to the unit.
            assert predicted["dpconv"] == actual

    @given(st.sampled_from(FAMILIES), st.integers(3, 10), st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_convolution_work_counts_every_split_probe(self, family, n, seed):
        query = QueryGenerator(seed=seed).generate(family, n)
        context = OptimizationContext.for_query(query, cost_model=CoutCostModel)
        layout = dpconv_module.sweep_layout(query.graph)
        DPconv(context=context, layout=layout).run()
        assert layout[3] == context.stats.ccps_considered

    @given(
        st.sampled_from(FAMILIES),
        st.integers(3, 12),
        st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_routed_cost_is_dpccps_cost(self, family, n, seed):
        if family in ("clique", "cyclic"):
            n = min(n, 9)  # keep the DPccp reference run cheap
        query = QueryGenerator(seed=seed).generate(family, n)
        routed = Optimizer(cost_model_factory=CoutCostModel).optimize(query)
        reference = run_dpccp(query, cost_model_factory=CoutCostModel)
        assert routed.pruning in ("dpconv", "dpccp")
        assert routed.cost.hex() == reference.cost.hex()

    @given(
        st.sampled_from(FAMILIES),
        st.integers(3, 13),
        st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_a_route_to_dpccp_returns_dpccps_plan(self, family, n, seed):
        if family in ("clique", "cyclic", "star"):
            n = min(n, 10)  # keep the DPccp reference run cheap
        query = QueryGenerator(seed=seed).generate(family, n)
        routed = Optimizer(cost_model_factory=CoutCostModel).optimize(query)
        if routed.pruning == "dpccp":
            reference = run_dpccp(query, cost_model_factory=CoutCostModel)
            assert routed.plan.sexpr() == reference.plan.sexpr()

    @given(
        st.sampled_from(["chain", "star", "cycle"]),
        st.integers(3, 9),
        st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=25, deadline=None)
    def test_auto_never_engages_for_non_cout_models(self, family, n, seed):
        query = QueryGenerator(seed=seed).generate(family, n)
        with _counted_csg_passes() as passes:
            result = Optimizer(pruning="apcb").optimize(query)
        assert result.pruning == "apcb"
        assert passes == []

    @given(st.integers(2, 4), st.integers(0, 2**31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_auto_never_engages_for_ranked_retention(self, k, seed):
        query = QueryGenerator(seed=seed).generate("chain", 12)
        with _counted_csg_passes() as passes:
            result = optimize_topk(
                query, k=k, cost_model_factory=CoutCostModel
            )
        assert result.pruning == "apcbi"
        assert len(result.ranked) >= 1
        assert passes == []

    def test_unknown_pruning_still_rejected(self):
        from repro.errors import UnknownAlgorithmError

        with pytest.raises(UnknownAlgorithmError):
            Optimizer(pruning="dpconvv")
