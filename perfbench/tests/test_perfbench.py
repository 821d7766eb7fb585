"""Checks of the benchmark itself; run with ``pytest perfbench/tests``."""

from __future__ import annotations

import json
import subprocess
import sys
import threading
import time
from concurrent.futures import Future

import pytest

from perfbench import ROOT, load_benchmark
from perfbench import runner
from perfbench.compare import compare, verdict
from perfbench.workloads import SMOKE, WORKLOADS, request_pass

SEED = 7


def _smoke_cli(trace: int):
    """Run every smoke workload through the command line."""
    completed = subprocess.run(
        [sys.executable, "-m", "perfbench", "--smoke", "--seed", str(SEED),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    return completed.stdout.splitlines()


@pytest.mark.parametrize("trace", [0, 1])
def test_every_benchmark_metric_is_printed_with_its_unit(trace):
    lines = _smoke_cli(trace)
    printed = {}
    for line in lines[:-1]:
        workload, name, value, unit = line.split(" ")
        float(value)
        printed[(workload, name)] = unit
    benchmark = load_benchmark()
    assert [spec["name"] for spec in benchmark["workloads"]] == list(WORKLOADS) == list(SMOKE)
    specs = benchmark["end_to_end"] + (benchmark["per_layer"] if trace else [])
    for workload in SMOKE:
        for spec in specs:
            assert printed.get((workload, spec["name"])) == spec["unit"], (workload, spec)
    summary = json.loads(lines[-1])
    assert summary["correct"] and summary["failed"] == 0


def test_single_workload_result_line_follows_the_contract():
    completed = subprocess.run(
        [sys.executable, "-m", "perfbench", "--smoke", "--workload", "cold_haas",
         "--seed", str(SEED), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    names = [spec["name"] for spec in load_benchmark()["end_to_end"]]
    assert list(result["metrics"]) == names


def test_wrong_reference_cost_counts_as_failed(monkeypatch):
    genuine = runner.reference_costs

    def off_by_one(pool, variants, cost_model):
        costs = genuine(pool, variants, cost_model)
        first = min(costs)
        costs[first] += 1.0
        return costs

    monkeypatch.setattr(runner, "reference_costs", off_by_one)
    result = runner.run_workload(SMOKE["cold_haas"], SEED, 0.0, trace=False)
    assert not result.correct
    assert result.failed == 1
    assert result.metric("failed_frac").value == pytest.approx(1 / result.attempted)
    (mismatch,) = result.mismatches
    assert mismatch["served"] + 1.0 == mismatch["reference"]


@pytest.mark.parametrize("workload", sorted(SMOKE))
def test_counts_repeat_exactly_for_one_seed(workload):
    def counts():
        result = runner.run_workload(SMOKE[workload], SEED, 0.0, trace=True)
        return {
            metric.name: metric.value
            for metric in result.metrics
            if metric.name.startswith(("core.", "cost."))
            and not metric.name.endswith(("_ms", "_share"))
        }

    first = counts()
    assert "cost.join_cost_calls" in first and "core.ccps_enumerated" in first
    assert counts() == first


@pytest.mark.parametrize("workload", ["hot_repeat", "sharded_spill"])
def test_zipf_passes_hold_the_same_requests_for_every_seed(workload):
    spec = WORKLOADS[workload]
    per_query = 1 + spec.relabelings
    passes = [request_pass(spec, seed) for seed in (SEED, SEED + 1)]
    assert passes[0] != passes[1]
    queries = [sorted(variant // per_query for variant in requests) for requests in passes]
    assert queries[0] == queries[1]
    assert len(queries[0]) == spec.pass_size
    assert queries[0].count(0) > queries[0].count(1) > queries[0].count(len(spec.shapes) - 1)


class _Request:
    def __init__(self, position, variant, latency):
        self.position, self.variant, self.latency = position, variant, latency


def test_best_latency_is_per_variant_or_per_position():
    # Two passes of [variant 0, variant 1, variant 0].
    records = [
        _Request(0, 0, 5.0), _Request(1, 1, 2.0), _Request(2, 0, 3.0),
        _Request(0, 0, 4.0), _Request(1, 1, 6.0), _Request(2, 0, 9.0),
    ]
    assert runner.best_latencies(records, stateful=False) == [3.0, 2.0, 3.0] * 2
    assert runner.best_latencies(records, stateful=True) == [4.0, 2.0, 3.0] * 2


def test_handoff_counts_nothing_when_the_callback_runs_late():
    # A future wakes result() before it runs its done-callbacks; a slow
    # first callback holds the stamping one back past the caller's wake-up.
    future = Future()
    release = threading.Event()
    ready = [0.0]
    future.add_done_callback(lambda _: release.wait(5.0))
    future.add_done_callback(lambda _: ready.__setitem__(0, time.perf_counter()))
    setter = threading.Thread(target=future.set_result, args=("response",))
    setter.start()
    future.result(timeout=5.0)
    done = time.perf_counter()
    try:
        assert ready[0] == 0.0
        assert runner._handoff(ready[0], done) == 0.0
    finally:
        release.set()
        setter.join()
    assert runner._handoff(ready[0], done) == 0.0  # stamped after the wake-up
    assert runner._handoff(done - 0.002, done) == pytest.approx(0.002)


def test_verdicts():
    assert verdict([10, 10.2, 9.9], [10.1, 9.8, 10.0], "lower", 0.1) == "within"
    assert verdict([10, 10.2, 9.9], [12, 12.1, 11.9], "lower", 0.1) == "worse"
    assert verdict([10, 10.2, 9.9], [12, 12.1, 11.9], "higher", 0.1) == "better"
    assert verdict([5, 10, 15], [6, 11, 14], "lower", 0.1) == "unresolved"
    # Wide spread, every B run beyond every A run, but by less than the bound.
    assert verdict([9, 10, 11], [11.2, 11.5, 14], "lower", 0.2) == "unresolved"
    assert verdict([9, 10, 11], [4, 5, 6.5], "lower", 0.2) == "better"


def test_floor_absorbs_small_absolute_changes():
    a, b = [0.0006, 0.0008, 0.0010], [0.0009, 0.0012, 0.0015]
    assert verdict(a, b, "lower", 0.25) == "unresolved"
    assert verdict(a, b, "lower", 0.25, floor=0.05) == "within"
    assert verdict([1.0, 1.0, 1.0], [1.3, 1.3, 1.3], "lower", 0.25, floor=0.05) == "worse"


def test_compare_refuses_reports_of_different_lengths(tmp_path):
    paths = []
    for index, seconds in enumerate((20, 10)):
        path = tmp_path / f"{index}.json"
        path.write_text(json.dumps({"seconds": seconds, "smoke": False, "workloads": {}}))
        paths.append(str(path))
    with pytest.raises(ValueError, match="different lengths"):
        compare(paths[:1], paths[1:], load_benchmark())
