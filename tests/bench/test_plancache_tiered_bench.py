"""The tiered (L1 + durable L2) plan-cache benchmark."""

import json

import pytest

from repro.bench.plancache_tiered import (
    main,
    run_admission_sweep,
    run_recovery_curve,
    run_zipfian_replay,
)

# Small enough for a unit test, varied enough that admission discriminates.
TINY_SHAPES = (("chain", 5), ("star", 5), ("cycle", 6), ("chain", 8))


@pytest.fixture(autouse=True)
def no_speedup_gate(monkeypatch):
    # Tiny queries enumerate in microseconds, so the first-request speedup
    # is noise here; timing stays out of the unit assertions.
    monkeypatch.setattr("repro.bench.plancache_tiered.REQUIRED_SPEEDUP", 0.0)


class TestZipfianReplay:
    def test_warm_start_is_bit_identical_and_never_enumerates(self, tmp_path):
        report = run_zipfian_replay(
            str(tmp_path), shapes=TINY_SHAPES, requests=24
        )
        assert report["violations"] == []
        assert report["entries_persisted"] == len(TINY_SHAPES)
        assert report["warm_entries"] == len(TINY_SHAPES)
        assert report["warm"]["enumerated"] == 0
        assert report["warm"]["l2_hits"] == len(TINY_SHAPES)
        # Zipf trace: repeats dominate, so the cold half already hits L1.
        assert report["cold"]["hit_rate"] > 0.5

    def test_first_request_speedup_gate_fails_the_replay(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(
            "repro.bench.plancache_tiered.REQUIRED_SPEEDUP", float("inf")
        )
        report = run_zipfian_replay(
            str(tmp_path), shapes=TINY_SHAPES, requests=24
        )
        assert report["first_request_speedup"] > 0
        assert report["required_speedup"] == float("inf")
        [violation] = report["violations"]
        assert violation.startswith("first-request speedup")

    def test_trace_is_seed_deterministic(self, tmp_path):
        first = run_zipfian_replay(
            str(tmp_path / "a"), shapes=TINY_SHAPES, requests=24
        )
        second = run_zipfian_replay(
            str(tmp_path / "b"), shapes=TINY_SHAPES, requests=24
        )
        assert first["cold_costs"] == second["cold_costs"]
        assert first["cold"]["hit_rate"] == second["cold"]["hit_rate"]


class TestAdmissionSweep:
    def test_persisted_entries_shrink_monotonically(self, tmp_path):
        report = run_admission_sweep(str(tmp_path), shapes=TINY_SHAPES)
        assert report["violations"] == []
        persisted = [point["persisted"] for point in report["points"]]
        assert persisted[0] == len(TINY_SHAPES)
        assert persisted[-1] == 0
        assert persisted == sorted(persisted, reverse=True)
        sizes = [point["bytes"] for point in report["points"]]
        assert sizes == sorted(sizes, reverse=True)


class TestRecoveryCurve:
    def test_every_log_size_replays_fully(self, tmp_path):
        report = run_recovery_curve(str(tmp_path), sizes=(4, 16))
        assert report["violations"] == []
        assert [point["entries"] for point in report["points"]] == [4, 16]
        assert all(point["seconds"] >= 0 for point in report["points"])
        assert (
            report["points"][1]["bytes"] > report["points"][0]["bytes"]
        )


class TestMain:
    def test_cli_writes_the_report_and_exits_clean(
        self, tmp_path, monkeypatch, capsys
    ):
        out = tmp_path / "BENCH_plancache_tiered.json"
        monkeypatch.setattr(
            "repro.bench.plancache_tiered.DEFAULT_POOL_SHAPES", TINY_SHAPES
        )
        monkeypatch.setattr(
            "repro.bench.plancache_tiered.DEFAULT_LOG_SIZES", (4, 16)
        )
        assert main(["--out", str(out), "--requests", "24"]) == 0
        report = json.loads(out.read_text(encoding="utf-8"))
        assert report["violations"] == []
        assert "tiered cache:" in capsys.readouterr().out
