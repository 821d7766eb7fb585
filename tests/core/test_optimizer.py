"""Tests for the optimizer facade."""

import pytest

from repro.core.advancements import AdvancementConfig
from repro.core.optimizer import (
    Optimizer,
    algorithm_label,
    optimize,
    run_dpccp,
    run_dpconv,
)
from repro.cost.cout import CoutCostModel
from repro.errors import BudgetExceeded, UnknownAlgorithmError
from repro.resilience.budget import Budget
from repro.telemetry import MetricRegistry, Telemetry, Tracer
from repro.workload.generator import QueryGenerator


class TestValidation:
    def test_unknown_enumerator_rejected(self):
        with pytest.raises(UnknownAlgorithmError):
            Optimizer(enumerator="mincut_psychic")

    def test_unknown_pruning_rejected(self):
        with pytest.raises(UnknownAlgorithmError):
            Optimizer(pruning="clairvoyance")


class TestLabels:
    def test_paper_names(self):
        assert algorithm_label("mincut_conservative", "apcbi") == "TDMcC_APCBI"
        assert algorithm_label("mincut_lazy", "none") == "TDMcL"
        assert algorithm_label("mincut_branch", "apcbi_opt") == "TDMcB_APCBI_Opt"

    def test_unknown_pruning_label_rejected(self):
        with pytest.raises(UnknownAlgorithmError):
            algorithm_label("mincut_lazy", "bogus")

    def test_result_label(self, small_query):
        result = optimize(small_query, pruning="apcb")
        assert result.label == "TDMcC_APCB"

    def test_dpccp_label(self, small_query):
        assert run_dpccp(small_query).label == "DPccp"


class TestResultEnvelope:
    def test_fields(self, small_query):
        result = optimize(small_query)
        assert result.plan.vertex_set == small_query.graph.all_vertices
        assert result.cost == result.plan.cost
        assert result.elapsed > 0
        assert result.memo_entries >= small_query.n_relations
        assert result.query is small_query
        assert result.enumerator == "mincut_conservative"
        assert result.pruning == "apcbi"

    def test_explain_renders_plan(self, small_query):
        text = optimize(small_query).explain()
        assert "Scan" in text and "Join" in text


class TestRenumberingPath:
    def test_plan_relabeled_back_to_original_indices(self, cyclic_query):
        result = optimize(
            cyclic_query,
            pruning="apcbi",
            config=AdvancementConfig.all_on(),
        )
        assert sorted(result.plan.relation_indices()) == list(
            range(cyclic_query.n_relations)
        )

    def test_renumber_skipped_for_tiny_queries(self, generator):
        query = generator.generate("chain", 2)
        result = optimize(query, pruning="apcbi")
        assert result.plan.vertex_set == 0b11

    def test_renumber_off_still_optimal(self, cyclic_query):
        with_remap = optimize(cyclic_query, pruning="apcbi")
        without = optimize(
            cyclic_query,
            pruning="apcbi",
            config=AdvancementConfig.all_but("renumber_graph"),
        )
        assert with_remap.cost == pytest.approx(without.cost)


class TestApcbiOpt:
    def test_matches_apcbi_cost(self, cyclic_query):
        apcbi = optimize(cyclic_query, pruning="apcbi")
        opt = optimize(cyclic_query, pruning="apcbi_opt")
        assert opt.cost == pytest.approx(apcbi.cost)

    def test_oracle_time_excluded_from_elapsed(self, cyclic_query):
        """APCBI_Opt's elapsed must not include the DPccp pre-pass; as a
        proxy, it should stay within a small factor of plain APCBI."""
        apcbi = optimize(cyclic_query, pruning="apcbi")
        opt = optimize(cyclic_query, pruning="apcbi_opt")
        assert opt.elapsed < 20 * max(apcbi.elapsed, 1e-4)


class TestCostModelInjection:
    def test_cout_factory(self, small_query):
        # dpconv_auto off keeps the run on the top-down generator the
        # injected model must reach.
        result = Optimizer(
            cost_model_factory=CoutCostModel, dpconv_auto=False
        ).optimize(small_query)
        baseline = run_dpccp(small_query, cost_model_factory=CoutCostModel)
        assert result.pruning == "apcbi"
        assert result.cost == pytest.approx(baseline.cost)


class TestOptimizerReuse:
    def test_one_optimizer_many_queries(self, generator):
        optimizer = Optimizer(pruning="apcbi")
        for family in ("chain", "cycle", "acyclic"):
            query = generator.generate(family, 6)
            baseline = run_dpccp(query)
            assert optimizer.optimize(query).cost == pytest.approx(baseline.cost)


class TestBaselineSalvage:
    """The baseline entry points enrich BudgetExceeded like the facade."""

    @pytest.mark.parametrize("run", [run_dpccp, run_dpconv])
    def test_exhausted_budget_reports_the_memo(self, run):
        query = QueryGenerator(seed=3).generate("clique", 10)
        factory = CoutCostModel if run is run_dpconv else None
        kwargs = {"cost_model_factory": factory} if factory else {}
        with pytest.raises(BudgetExceeded) as caught:
            run(query, budget=Budget(max_expansions=200), **kwargs)
        # The leaves are registered before the first budget check.
        assert caught.value.memo_entries == query.n_relations
        assert caught.value.partial_plan is None
        assert caught.value.partial_ranked == ()


_SPAN_KEYS = {
    "enumerator",
    "pruning",
    "relations",
    "ccps_enumerated",
    "operator_pricings",
    "plan_classes_built",
    "stats_classes",
}

_ALGORITHMS = {
    **{
        pruning: lambda query, telemetry, pruning=pruning: Optimizer(
            pruning=pruning, telemetry=telemetry
        ).optimize(query)
        for pruning in ("none", "acb", "pcb", "apcb", "apcbi", "apcbi_opt")
    },
    "dpconv": lambda query, telemetry: Optimizer(
        pruning="dpconv", cost_model_factory=CoutCostModel, telemetry=telemetry
    ).optimize(query),
    "dpconv_fallback": lambda query, telemetry: Optimizer(
        pruning="dpconv", telemetry=telemetry
    ).optimize(query),
    "run_dpccp": lambda query, telemetry: run_dpccp(query, telemetry=telemetry),
    "run_dpconv": lambda query, telemetry: run_dpconv(
        query, telemetry=telemetry
    ),
}


class TestEnumerateSpan:
    """Every algorithm records one ``enumerate`` span with the same keys."""

    @pytest.mark.parametrize("name", sorted(_ALGORITHMS))
    def test_one_span_with_the_shared_keys(self, name):
        telemetry = Telemetry(registry=MetricRegistry(), tracer=Tracer())
        query = QueryGenerator(seed=5).generate("cycle", 7)
        result = _ALGORITHMS[name](query, telemetry)
        spans = [
            span
            for span in telemetry.tracer.finished_spans()
            if span.name == "enumerate"
        ]
        assert len(spans) == 1
        attrs = spans[0].attrs
        assert _SPAN_KEYS <= set(attrs)
        assert attrs["enumerator"] == result.enumerator
        assert attrs["pruning"] == result.pruning
        assert attrs["relations"] == query.n_relations
        assert attrs["ccps_enumerated"] == result.stats.ccps_enumerated
        assert attrs["plan_classes_built"] > 0
        # Every run prices at least the leaves and one class per join.
        assert attrs["stats_classes"] >= 2 * query.n_relations - 1

    @pytest.mark.parametrize("name", ["dpconv", "run_dpccp", "apcbi"])
    def test_span_counts_are_the_run_counters(self, name):
        """DPconv and flat DPccp register only the winning plan's classes
        in their memotable; the span reports every class the run built."""
        telemetry = Telemetry(registry=MetricRegistry(), tracer=Tracer())
        query = QueryGenerator(seed=5).generate("clique", 8)
        result = _ALGORITHMS[name](query, telemetry)
        (span,) = [
            span
            for span in telemetry.tracer.finished_spans()
            if span.name == "enumerate"
        ]
        stats = result.stats
        assert span.attrs["plan_classes_built"] == stats.plan_classes_built
        assert span.attrs["operator_pricings"] == stats.operator_pricings
        if name != "apcbi":
            # A clique's every subset is connected.
            assert stats.plan_classes_built == 2**8 - 1 - 8

    @pytest.mark.parametrize("family", ["chain", "star", "clique", "cycle"])
    def test_dpconv_builds_stats_only_for_the_winning_tree(self, family):
        """The sweep prices from the factor table; only the 2n-1 classes
        the reconstruction builds (leaves included) get stats objects."""
        telemetry = Telemetry(registry=MetricRegistry(), tracer=Tracer())
        query = QueryGenerator(seed=5).generate(family, 10)
        run_dpconv(query, telemetry=telemetry)
        (span,) = [
            span
            for span in telemetry.tracer.finished_spans()
            if span.name == "enumerate"
        ]
        assert span.attrs["stats_classes"] == 2 * query.n_relations - 1
