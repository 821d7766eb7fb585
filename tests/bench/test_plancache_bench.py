"""The repeated-workload plan-cache checks, as the tiered cache bench's
warm-started Zipf replay runs them: relabelings of the pool (numbering
shuffled) must be served from cache with bit-identical costs."""

import json

import pytest

from repro.bench.plancache_tiered import main, run_zipfian_replay

# Small enough for a unit test, big enough that every family appears.
TINY_SHAPES = (("chain", 5), ("star", 5), ("cycle", 6), ("chain", 8))
REQUESTS = 24


@pytest.fixture(autouse=True)
def no_speedup_gate(monkeypatch):
    # Tiny queries enumerate in microseconds, so the first-request speedup
    # is noise here; timing stays out of the unit assertions.
    monkeypatch.setattr("repro.bench.plancache_tiered.REQUIRED_SPEEDUP", 0.0)


class TestRunPlancacheBenchmark:
    def test_repeated_half_hits_every_time(self, tmp_path):
        report = run_zipfian_replay(
            str(tmp_path), shapes=TINY_SHAPES, requests=REQUESTS
        )
        warm = report["warm"]
        # Every relabeled request is served from L1 or L2.
        assert warm["hit_rate"] == 1.0
        assert warm["l1_hits"] + warm["l2_hits"] == REQUESTS
        assert report["violations"] == []

    def test_warm_results_are_cache_served_and_cost_identical(self, tmp_path):
        report = run_zipfian_replay(
            str(tmp_path), shapes=TINY_SHAPES, requests=REQUESTS
        )
        # No relabeled request reaches the enumerator.
        assert report["warm"]["enumerated"] == 0
        # The warm queries are permutations of the cold ones — same
        # optimal cost, bit for bit (hex strings, so plain equality is
        # exact and no-float-cost-eq does not apply).
        assert len(report["warm_costs"]) == report["distinct_queries"]
        assert report["warm_costs"] == report["cold_costs"]

    def test_cli_writes_the_report(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "BENCH_plancache_tiered.json"
        monkeypatch.setattr(
            "repro.bench.plancache_tiered.DEFAULT_POOL_SHAPES", TINY_SHAPES
        )
        monkeypatch.setattr(
            "repro.bench.plancache_tiered.DEFAULT_LOG_SIZES", (4, 16)
        )
        assert main(["--out", str(out), "--requests", str(REQUESTS)]) == 0
        report = json.loads(out.read_text(encoding="utf-8"))
        assert report["zipfian_replay"]["warm"]["hit_rate"] == 1.0
        assert (
            "hit rate 100% on relabeled queries" in capsys.readouterr().out
        )
