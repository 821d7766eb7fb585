"""Tests for the measurement harness."""

import json

import pytest

from repro.bench.harness import (
    CHART_ALGORITHMS,
    PAPER_ALGORITHMS,
    AlgorithmSpec,
    FailureCounts,
    NormedSummary,
    load_checkpoint,
    run_query_matrix,
    run_workload,
)
from repro.context import PlanCache
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

    def test_check_costs_can_be_disabled(self, small_query):
        measurement = run_query_matrix(small_query, FAST, check_costs=False)
        assert set(measurement.normed_times) == {spec.label for spec in FAST}

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

    def test_progress_callback(self, workload):
        seen = []
        run_workload(workload, FAST, progress=lambda i, n: seen.append((i, n)))
        assert seen == [(1, 4), (2, 4), (3, 4), (4, 4)]

    def test_normed_times_series(self, workload):
        measurement = run_workload(workload, FAST)
        assert len(measurement.normed_times("TDMcC")) == 4


class TestHarnessPlanCache:
    def test_matrix_reuses_the_cache_across_repeats(self):
        query = QueryGenerator(seed=7).generate("cycle", 6)
        specs = [AlgorithmSpec("mincut_conservative", "apcbi")]
        cache = PlanCache()
        first = run_query_matrix(query, specs, plan_cache=cache)
        second = run_query_matrix(query, specs, plan_cache=cache)
        assert not first.failures and not second.failures
        # One DPccp-verified entry per config; the repeat hit it.
        assert cache.misses == 1
        assert cache.hits == 1

    def test_workload_passes_the_cache_through(self):
        generator = QueryGenerator(seed=9)
        queries = [generator.generate("chain", 5)] * 2
        specs = [AlgorithmSpec("mincut_conservative", "pcb")]
        cache = PlanCache()
        measurement = run_workload(queries, specs, plan_cache=cache)
        assert len(measurement.measurements) == 2
        assert cache.hits == 1

    def test_without_a_cache_nothing_changes(self):
        query = QueryGenerator(seed=7).generate("chain", 5)
        specs = [AlgorithmSpec("mincut_conservative", "apcbi")]
        measurement = run_query_matrix(query, specs)
        assert not measurement.failures


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

    def test_resilient_mode_records_degradation_with_a_time(self):
        query = QueryGenerator(seed=11).generate("clique", 9)
        spec = AlgorithmSpec("mincut_lazy", "none")
        measurement = run_query_matrix(
            query,
            [spec],
            budget_factory=lambda: Budget(max_expansions=23_000),
            resilient=True,
        )
        assert measurement.failures[spec.label].startswith("degraded: ")
        assert measurement.normed_times[spec.label] > 0

    def test_resilient_exact_path_matches_plain(self, small_query):
        plain = run_query_matrix(small_query, FAST)
        resilient = run_query_matrix(small_query, FAST, resilient=True)
        assert resilient.ok
        assert set(resilient.normed_times) == set(plain.normed_times)


class TestCheckpointing:
    @pytest.fixture
    def workload(self):
        generator = QueryGenerator(seed=3)
        return [generator.generate("acyclic", n) for n in (5, 5, 6)]

    def test_checkpoint_written_one_line_per_query(self, workload, tmp_path):
        path = tmp_path / "ckpt.jsonl"
        run_workload(workload, FAST, checkpoint_path=path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 3
        records = [json.loads(line) for line in lines]
        assert [record["index"] for record in records] == [0, 1, 2]
        assert records[0]["query"] == workload[0].describe()

    def test_resume_reuses_completed_measurements(self, workload, tmp_path):
        path = tmp_path / "ckpt.jsonl"
        first = run_workload(workload, FAST, checkpoint_path=path)
        second = run_workload(workload, FAST, checkpoint_path=path)
        # Wall-clock timings are never bit-identical across runs, so equal
        # floats prove the measurement was loaded, not recomputed.
        for a, b in zip(first.measurements, second.measurements):
            assert a.dpccp_seconds == b.dpccp_seconds
            assert a.normed_times == b.normed_times

    def test_truncated_tail_is_recomputed(self, workload, tmp_path):
        path = tmp_path / "ckpt.jsonl"
        first = run_workload(workload, FAST, checkpoint_path=path)
        content = path.read_text()
        path.write_text(content[: content.rfind("{")])  # kill mid-write
        assert len(load_checkpoint(path)) == 2
        second = run_workload(workload, FAST, checkpoint_path=path)
        assert len(second.measurements) == 3
        # Intact prefix reused, final measurement freshly computed.
        assert (
            second.measurements[0].dpccp_seconds
            == first.measurements[0].dpccp_seconds
        )
        summary = second.normed_time_summary("TDMcC_APCBI")
        assert summary.count == 3

    def test_stale_records_are_ignored(self, workload, tmp_path):
        path = tmp_path / "ckpt.jsonl"
        path.write_text(
            json.dumps(
                {
                    "index": 0,
                    "query": "someone-else's query",
                    "dpccp_seconds": 123.0,
                    "dpccp_classes": 1,
                }
            )
            + "\n"
        )
        measurement = run_workload(workload, FAST, checkpoint_path=path)
        assert measurement.measurements[0].dpccp_seconds != 123.0

    def test_resume_repairs_the_truncated_checkpoint(self, workload, tmp_path):
        path = tmp_path / "ckpt.jsonl"
        run_workload(workload, FAST, checkpoint_path=path)
        content = path.read_text()
        path.write_text(content[: content.rfind("{")])
        run_workload(workload, FAST, checkpoint_path=path)
        # The recomputed record must not concatenate onto the broken tail:
        # a third run loads every record.
        assert len(load_checkpoint(path)) == 3

    def test_missing_checkpoint_file_is_fine(self, tmp_path):
        assert load_checkpoint(tmp_path / "absent.jsonl") == {}


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
