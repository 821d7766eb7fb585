"""Chaos soak: seeded schedules, whole-run assertions, replay determinism."""

import json
import threading
from concurrent.futures import Future

import pytest

from repro.service import soak
from repro.service.soak import (
    ChaosPlant,
    SoakReport,
    Target,
    build_query_pool,
    main,
    run_soak,
)
from repro.service.server import OptimizeRequest
from repro.workload.generator import QueryGenerator


@pytest.fixture
def request_zero():
    query = QueryGenerator(seed=9).generate("chain", 5)
    return OptimizeRequest(query=query, request_id=0, seed=424242)


class TestChaosPlant:
    def test_schedule_is_deterministic(self, request_zero):
        def schedule():
            plant = ChaosPlant(seed=3, rate=0.5)
            return [
                repr(plant(request_zero, attempt)) for attempt in range(16)
            ]

        assert schedule() == schedule()

    def test_rate_zero_never_poisons(self, request_zero):
        plant = ChaosPlant(seed=3, rate=0.0)
        assert all(plant(request_zero, a) is None for a in range(32))

    def test_rate_one_always_poisons(self, request_zero):
        plant = ChaosPlant(seed=3, rate=1.0)
        assert all(plant(request_zero, a) is not None for a in range(8))

    def test_distinct_attempts_draw_fresh_coins(self, request_zero):
        # A poisoned first attempt does not force a poisoned second one.
        plant = ChaosPlant(seed=0, rate=0.5)
        decisions = {plant(request_zero, a) is None for a in range(64)}
        assert decisions == {True, False}

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            ChaosPlant(rate=1.5)

    def test_scheduled_counts_survive_concurrent_calls(self, request_zero):
        # Workers call the plant concurrently; rate=1.0 schedules one
        # fault per call, so the per-kind tallies must sum exactly.
        plant = ChaosPlant(seed=3, rate=1.0)
        per_thread, threads = 50, 4

        def schedule(base):
            for offset in range(per_thread):
                request = OptimizeRequest(
                    query=request_zero.query,
                    request_id=base + offset,
                    seed=base + offset,
                )
                plant(request, 0)

        workers = [
            threading.Thread(target=schedule, args=(index * per_thread,))
            for index in range(threads)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        assert sum(plant.scheduled.values()) == per_thread * threads

    def test_armed_attempt_reports_injections(self, request_zero, monkeypatch):
        from repro.cost.haas import HaasCostModel
        from repro.cost.statistics import StatisticsProvider
        from repro.errors import InjectedFaultError

        monkeypatch.setattr(soak, "CHAOS_KINDS", ("raise",))
        plant = ChaosPlant(seed=3, rate=1.0)
        attempt = plant(request_zero, 0)
        assert attempt is not None and attempt.kind == "raise"
        factory = attempt.cost_model_factory(HaasCostModel)
        provider = StatisticsProvider(request_zero.query)
        left, right = provider.stats(0b01), provider.stats(0b10)
        with attempt:
            model = factory()
            with pytest.raises(InjectedFaultError):
                for _ in range(32):  # fire past the seeded warm-up
                    model.join_cost(left, right)
        assert sum(attempt.injected.values()) >= 1


class TestQueryPool:
    def test_pool_is_deterministic(self):
        first = [key for key, _ in build_query_pool(seed=5, pool_size=6)]
        second = [key for key, _ in build_query_pool(seed=5, pool_size=6)]
        assert first == second

    def test_pool_mixes_families(self):
        pool = build_query_pool(seed=5, pool_size=6)
        families = {key.split("-")[0] for key, _ in pool}
        assert families == {"chain", "star", "clique"}

    def test_pool_respects_size_bounds(self):
        pool = build_query_pool(
            seed=5, pool_size=4, min_relations=4, max_relations=5
        )
        for _, query in pool:
            assert 4 <= query.graph.n_vertices <= 5

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            build_query_pool(seed=0, pool_size=0)
        with pytest.raises(ValueError):
            build_query_pool(seed=0, min_relations=9, max_relations=5)


class TestRunSoak:
    def soak(self, **overrides):
        settings = dict(
            seconds=30.0,
            seed=7,
            rate=0.3,
            workers=2,
            pool_size=6,
            min_relations=4,
            max_relations=6,
            max_requests=18,
        )
        settings.update(overrides)
        return run_soak(**settings)

    def test_short_soak_passes_every_assertion(self):
        report = self.soak()
        assert report.passed, report.violations
        assert report.accepted == report.submitted - report.rejected
        assert report.completed == report.accepted
        assert report.failed == 0
        assert report.timeouts == 0
        assert report.invalid_plans == 0
        assert report.replay_mismatches == 0
        assert report.unhandled_worker_errors == 0

    def test_chaos_actually_fired(self):
        report = self.soak(rate=0.8, max_requests=12)
        assert report.passed, report.violations
        assert report.injected_faults > 0
        assert sum(report.scheduled_chaos.values()) > 0

    def test_single_worker_run_is_fully_reproducible(self):
        first = self.soak(workers=1, max_requests=10)
        second = self.soak(workers=1, max_requests=10)
        assert first.passed and second.passed
        assert first.breaker_trace == second.breaker_trace
        assert first.rung_histogram == second.rung_histogram
        assert first.scheduled_chaos == second.scheduled_chaos
        assert first.retries == second.retries

    def test_report_serializes_to_json(self):
        report = self.soak(max_requests=6, replay=False)
        payload = json.loads(json.dumps(report.as_dict()))
        assert payload["passed"] is True
        assert "failures" in payload
        assert payload["failures"]["retries"] == report.retries
        assert payload["failures"]["breaker_trips"] == report.breaker_trips

    def test_violations_flip_passed(self):
        report = SoakReport(seconds=1.0, seed=0, rate=0.0, workers=1)
        assert report.passed
        report.violations.append("synthetic")
        assert not report.passed
        assert report.as_dict()["passed"] is False

    def test_describe_prints_the_count_and_last_five_transitions(self):
        trace = [f"shard-{i % 2}: closed -> open @{i}" for i in range(200)]
        report = SoakReport(
            seconds=1.0, seed=0, rate=0.0, workers=1, breaker_trace=trace
        )
        described = report.describe()
        assert "breaker trace: 200 transition(s), last 5 shown" in described
        shown = [line.strip() for line in described.splitlines() if "->" in line]
        assert shown == trace[-5:]
        # The JSON report keeps every transition.
        assert report.as_dict()["breaker_trace"] == trace

    def test_traced_soak_replays_with_zero_mismatches(self, tmp_path):
        # Telemetry determinism under chaos + concurrency: an armed soak
        # must still replay bit-identically against the disarmed
        # single-threaded baseline, and the trace tree must contain the
        # full request -> attempt -> ladder_rung -> enumerate hierarchy.
        from repro.telemetry import Telemetry, Tracer, TraceSink

        trace_path = tmp_path / "soak_trace.jsonl"
        sink = TraceSink(trace_path)
        telemetry = Telemetry(tracer=Tracer(sink=sink))
        report = self.soak(max_requests=10, telemetry=telemetry)
        sink.close()
        assert report.passed, report.violations
        assert report.replay_mismatches == 0
        assert report.span_summary  # per-rung latency tables present
        roots = [
            json.loads(line)
            for line in trace_path.read_text().splitlines()
        ]
        assert roots and all(root["name"] == "request" for root in roots)
        names = set()
        for root in roots:
            stack = [root]
            while stack:
                node = stack.pop()
                names.add(node["name"])
                stack.extend(node.get("children", []))
        assert {"request", "attempt", "ladder_rung", "enumerate"} <= names


class _SilentAndFailingTarget(Target):
    """A fake target: request 0 never resolves, request 1 raises."""

    def __init__(self):
        self.futures = [Future(), Future()]
        self.futures[1].set_exception(RuntimeError("shard exploded"))

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return False

    def submit(self, query, priority):
        return self.futures.pop(0)


class TestLossContract:
    def test_unresolved_and_raising_futures_fail_the_run(self):
        # Neither a hung future nor a raising one may hang or crash the
        # soak: they are counted as lost and failed, and the run fails.
        report = run_soak(
            seconds=30.0,
            pool_size=2,
            min_relations=4,
            max_relations=4,
            max_requests=2,
            resolve_timeout=0.2,
            target=_SilentAndFailingTarget(),
        )
        assert report.lost == 1
        assert report.failed == 1
        assert report.passed is False
        assert any("lost" in violation for violation in report.violations)


class TestMain:
    @pytest.mark.parametrize("shards", ("0", "2"))
    def test_cli_smoke_passes_and_writes_json(self, tmp_path, capsys, shards):
        out = tmp_path / "soak.json"
        code = main(
            [
                "--shards", shards,
                "--seconds", "30",
                "--seed", "7",
                "--rate", "0.3",
                "--workers", "2",
                "--pool", "4",
                "--min-relations", "4",
                "--max-relations", "5",
                "--max-requests", "8",
                "--json", str(out),
                "--quiet",
            ]
        )
        assert code == 0
        assert "soak PASSED" in capsys.readouterr().out
        payload = json.loads(out.read_text())
        assert payload["passed"] is True
        assert payload["config"]["shards"] == int(shards)

    def test_kill_shards_without_shards_is_an_error(self, capsys):
        assert main(["--kill-shards", "2"]) == 2
        assert "requires --shards" in capsys.readouterr().err

    def test_store_flags_without_shards_are_an_error(self, capsys):
        assert main(["--store-dir", "/tmp/x"]) == 2
        assert "require --shards" in capsys.readouterr().err
        assert main(["--kill-during-write"]) == 2
        assert "require --shards" in capsys.readouterr().err


class TestRunShardedSoak:
    def sharded(self, **overrides):
        settings = dict(
            seconds=60.0,
            seed=7,
            rate=0.2,
            shards=2,
            workers=2,
            pool_size=4,
            min_relations=4,
            max_relations=5,
            max_requests=24,
        )
        settings.update(overrides)
        return run_soak(**settings)

    def test_short_sharded_soak_passes(self):
        report = self.sharded()
        assert report.passed, report.violations
        assert report.completed == report.accepted
        assert report.lost == 0
        assert report.replay_checked > 0
        assert report.replay_mismatches == 0
        assert report.cluster is not None
        # Work actually spread over real shard processes.
        served_by_shards = {
            key: count
            for key, count in report.shard_histogram.items()
            if key != "fallback"
        }
        assert sum(served_by_shards.values()) > 0

    def test_kill_shards_mode_meets_the_loss_contract(self):
        report = self.sharded(kill_shards=2, max_requests=36)
        assert report.passed, report.violations
        assert len(report.kills) == 2
        assert report.lost == 0
        assert report.failed == 0
        assert report.replay_mismatches == 0
        # The deaths must be visible in supervision telemetry.
        assert report.respawns >= 1 or report.fallback_served >= 1
        assert report.cluster["respawns"] == report.respawns

    def test_sharded_report_serializes_to_json(self):
        report = self.sharded(max_requests=6, replay=False)
        payload = json.loads(json.dumps(report.as_dict()))
        assert payload["passed"] is True
        assert payload["config"]["shards"] == 2
        assert "resilience" in payload and "kills" in payload
        assert "sharded soak PASSED" in report.describe()

    def test_store_dir_records_a_store_section(self, tmp_path):
        report = self.sharded(store_dir=str(tmp_path), max_requests=16)
        assert report.passed, report.violations
        assert report.store is not None
        assert report.store["corrupt_replays"] == 0
        assert report.store["warm_mismatches"] == 0
        assert sorted(report.store["fail_open"]) == sorted(
            ["raise", "torn", "bitflip", "stale_epoch"]
        )
        assert all(
            cert["certified"] for cert in report.store["fail_open"].values()
        )
        assert "store" in json.dumps(report.as_dict())
        assert "store      :" in report.describe()

    def test_kill_during_write_chaos_meets_the_contract(self, tmp_path):
        report = self.sharded(
            kill_shards=2,
            kill_during_write=True,
            store_dir=str(tmp_path),
            max_requests=36,
        )
        assert report.passed, report.violations
        assert len(report.kills) == 2
        assert report.lost == 0
        assert report.store["kill_during_write"] is True
        # The crash-safety contract: whatever instant the SIGKILLs
        # landed, every surviving segment replays without corruption
        # and warm hits are bit-identical to cold optimization.
        assert report.store["corrupt_replays"] == 0
        assert report.store["warm_mismatches"] == 0

    def test_store_checks_report_their_progress(self, tmp_path):
        # The store summary line the CLI prints without --quiet.
        lines = []
        report = SoakReport(seconds=1.0, seed=0, rate=0.0, workers=1)
        pool = build_query_pool(seed=0, pool_size=1, max_relations=5)
        soak._verify_store(report, str(tmp_path), pool, False, lines.append)
        assert report.store["entries"] == 0
        assert lines == [
            "store: 0 entries recovered from 0 file(s), 0 corrupt replays, "
            "0 warm L2 hits"
        ]

    def test_kill_during_write_requires_a_store_dir(self):
        with pytest.raises(ValueError, match="store_dir"):
            self.sharded(kill_shards=2, kill_during_write=True)
