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
from repro.plans.validation import validate_plan
from repro.resilience.budget import Budget
from repro.telemetry import MetricRegistry, Telemetry, Tracer
from repro.workload.generator import QueryGenerator
from tests.conftest import small_queries

FAMILIES = ("chain", "star", "cycle", "clique", "acyclic", "cyclic")


@contextlib.contextmanager
def _counted_csg_passes():
    """Counts every connected-set enumeration, wherever it is looked up."""
    calls = []
    original = dpccp_module.enumerate_csg

    def counting(graph, *cap):
        calls.append(graph)
        return original(graph, *cap)

    with pytest.MonkeyPatch.context() as patch:
        for module in (dpccp_module, dpconv_module, routing_module):
            patch.setattr(module, "enumerate_csg", counting)
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

    @pytest.mark.parametrize("family, n", [("chain", 24), ("cycle", 20)])
    def test_sparse_cout_queries_route_to_dpccp(self, family, n):
        # DPconv would probe about 2^n splits here; DPccp's csg-cmp
        # pairs grow polynomially.
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

    @pytest.mark.parametrize(
        "family, n, choice",
        [
            ("clique", 8, "dpconv"),
            ("chain", 16, "dpccp"),
            # cold_cout pool shapes on either side of DPCCP_WORK_PER_CSG
            # (split probes per connected set: 199, 330, 114 and 85).
            ("cycle", 12, "dpccp"),
            ("acyclic", 14, "dpccp"),
            ("cyclic", 12, "dpccp"),
            ("star", 12, "dpconv"),
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
        csgs = list(dpccp_module.enumerate_csg(query.graph))
        DPconv(context=context, csgs=csgs).run()
        assert dpconv_module.convolution_work(csgs) == (
            context.stats.ccps_considered
        )

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
