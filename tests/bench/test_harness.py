"""Tests for the measurement harness."""

import pytest

from repro.bench.harness import (
    CHART_ALGORITHMS,
    PAPER_ALGORITHMS,
    AlgorithmSpec,
    FailureCounts,
    NormedSummary,
    run_query_matrix,
    run_workload,
)
from repro.resilience import Budget
from repro.workload.generator import QueryGenerator

FAST = (
    AlgorithmSpec("mincut_conservative", "none"),
    AlgorithmSpec("mincut_conservative", "apcbi"),
)


class TestSpecs:
    def test_paper_matrix_has_fifteen_combinations(self):
        assert len(PAPER_ALGORITHMS) == 15

    def test_chart_subset_matches_section_vc(self):
        labels = [spec.label for spec in CHART_ALGORITHMS]
        assert labels == [
            "TDMcL", "TDMcL_APCB", "TDMcB_APCB", "TDMcB_APCBI", "TDMcC_APCBI",
        ]

    def test_display_override(self):
        spec = AlgorithmSpec("mincut_lazy", "apcb", display="custom")
        assert spec.label == "custom"


class TestNormedSummary:
    def test_of_values(self):
        summary = NormedSummary.of([1.0, 3.0, 2.0])
        assert summary.minimum == 1.0
        assert summary.maximum == 3.0
        assert summary.average == 2.0
        assert summary.count == 3

    def test_of_empty(self):
        summary = NormedSummary.of([])
        assert summary.count == 0
        assert summary.average != summary.average  # NaN


class TestRunQueryMatrix:
    def test_measures_all_algorithms(self, small_query):
        measurement = run_query_matrix(small_query, FAST)
        assert set(measurement.normed_times) == {spec.label for spec in FAST}
        assert all(v > 0 for v in measurement.normed_times.values())
        assert measurement.dpccp_classes > 0

    def test_success_counters_normalized(self, small_query):
        measurement = run_query_matrix(small_query, FAST)
        # Unpruned top-down builds exactly DPccp's classes.
        assert measurement.normed_success["TDMcC"] == pytest.approx(1.0)
        assert measurement.normed_success["TDMcC_APCBI"] <= 1.0 + 1e-9

    def test_config_override_flows_through(self, small_query):
        from repro.core.advancements import AdvancementConfig

        spec = AlgorithmSpec(
            "mincut_conservative",
            "apcbi",
            config=AdvancementConfig.all_off(),
            display="bare",
        )
        measurement = run_query_matrix(small_query, [spec])
        assert "bare" in measurement.normed_times


class TestRunWorkload:
    @pytest.fixture
    def workload(self):
        generator = QueryGenerator(seed=3)
        return [generator.generate("acyclic", n) for n in (5, 5, 6, 6)]

    def test_summaries(self, workload):
        measurement = run_workload(workload, FAST)
        summary = measurement.normed_time_summary("TDMcC_APCBI")
        assert summary.count == 4
        assert summary.minimum <= summary.average <= summary.maximum

    def test_by_size_buckets(self, workload):
        measurement = run_workload(workload, FAST)
        by_size = measurement.by_size("TDMcC")
        assert set(by_size) == {5, 6}

    def test_dpccp_by_size(self, workload):
        measurement = run_workload(workload, FAST)
        assert set(measurement.dpccp_by_size()) == {5, 6}

    def test_normed_times_series(self, workload):
        measurement = run_workload(workload, FAST)
        assert len(measurement.normed_times("TDMcC")) == 4


class TestFailureCounts:
    def test_tally_categorizes_by_prefix(self):
        counts = FailureCounts.tally(
            ["timeout", "error: boom", "degraded: ikkbz", "skipped: x", "weird"]
        )
        assert counts.timeouts == 1
        assert counts.errors == 2  # unknown categories count as errors
        assert counts.degraded == 1
        assert counts.skipped == 1
        assert counts.total == 5


class TestBudgetedMatrix:
    def test_unbudgeted_measurement_has_no_failures(self, small_query):
        measurement = run_query_matrix(small_query, FAST)
        assert measurement.ok
        assert measurement.failures == {}

    def test_impossible_budget_records_timeouts_not_raises(self, small_query):
        measurement = run_query_matrix(
            small_query, FAST, budget_factory=lambda: Budget(max_expansions=1)
        )
        # Even the DPccp baseline cannot finish; algorithms are skipped.
        assert measurement.failures["DPccp"].startswith("timeout")
        for spec in FAST:
            assert measurement.failures[spec.label].startswith("skipped")
        assert measurement.dpccp_seconds != measurement.dpccp_seconds  # NaN

    def test_failed_baseline_excluded_from_summaries(self, small_query):
        workload_measurement = run_workload(
            [small_query], FAST, budget_factory=lambda: Budget(max_expansions=1)
        )
        assert workload_measurement.dpccp_summary().count == 0
        assert workload_measurement.dpccp_by_size() == {}
        assert workload_measurement.n_failed_queries == 1

    def test_algorithm_timeout_recorded_per_label(self):
        # DPccp finishes a clique-9 in far fewer expansions than unpruned
        # top-down enumeration, so a cap between the two isolates the
        # failure to the algorithm under test.
        query = QueryGenerator(seed=11).generate("clique", 9)
        spec = AlgorithmSpec("mincut_lazy", "none")
        measurement = run_query_matrix(
            query, [spec], budget_factory=lambda: Budget(max_expansions=23_000)
        )
        assert "DPccp" not in measurement.failures
        assert measurement.failures[spec.label] == "timeout"
        assert spec.label not in measurement.normed_times

class TestFailureCountsServiceTaxonomy:
    """retries / breaker_trips are recovery counters (ISSUE satellite)."""

    def test_recovery_counters_do_not_inflate_total(self):
        counts = FailureCounts(
            timeouts=1, errors=2, degraded=3, skipped=4,
            retries=50, breaker_trips=6,
        )
        assert counts.total == 10

    def test_as_dict_reports_the_full_taxonomy(self):
        counts = FailureCounts(timeouts=1, retries=2, breaker_trips=3)
        payload = counts.as_dict()
        assert payload == {
            "timeouts": 1,
            "errors": 0,
            "degraded": 0,
            "skipped": 0,
            "retries": 2,
            "breaker_trips": 3,
            "total_failed": 1,
        }

    def test_tally_leaves_recovery_counters_zero(self):
        counts = FailureCounts.tally(["timeout: x", "error: y"])
        assert counts.retries == 0
        assert counts.breaker_trips == 0
