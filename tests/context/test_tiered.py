"""TieredPlanCache: warm hits, admission, breaker fail-open, telemetry."""

import os
from contextlib import nullcontext

import pytest

from repro.context import (
    AdmissionPolicy,
    DurableStore,
    TieredPlanCache,
)
from repro.core.optimizer import Optimizer
from repro.errors import StoreEpochError, StoreError
from repro.resilience.faults import STORE_FAULT_KINDS, StoreFaultInjector
from repro.service.breaker import CircuitBreaker, ManualClock
from repro.telemetry import MetricRegistry, Telemetry
from repro.workload.generator import QueryGenerator


@pytest.fixture
def query():
    return QueryGenerator(seed=5).generate("chain", 6)


@pytest.fixture
def queries():
    generator = QueryGenerator(seed=6)
    return [
        generator.generate(family, n)
        for family, n in (("chain", 5), ("star", 5), ("cycle", 6))
    ]


class TestTieredLifecycle:
    def test_cold_put_persists_and_same_process_hits_l1(self, tmp_path, query):
        cache = TieredPlanCache.open(str(tmp_path / "seg.rpl"))
        optimizer = Optimizer(plan_cache=cache)
        cold = optimizer.optimize(query)
        warm = optimizer.optimize(query)
        assert warm.plan.sexpr() == cold.plan.sexpr()
        assert warm.cost.hex() == cold.cost.hex()
        assert cache.store.appended == 1
        assert cache.l2_hits == 0  # same process: L1 answered
        cache.close()

    def test_restart_warms_from_the_segment(self, tmp_path, query):
        path = str(tmp_path / "seg.rpl")
        first = TieredPlanCache.open(path)
        cold = Optimizer(plan_cache=first).optimize(query)
        first.close()

        # "Restart": a brand-new cache over the same file.
        second = TieredPlanCache.open(path)
        assert len(second) == 0  # L1 empty — nothing in process memory
        warm = Optimizer(plan_cache=second).optimize(query)
        assert second.l2_hits == 1
        assert warm.memo_entries == 0  # enumeration skipped entirely
        assert warm.plan.sexpr() == cold.plan.sexpr()
        assert warm.cost.hex() == cold.cost.hex()
        # The hit was promoted to L1: next lookup never touches L2.
        again = Optimizer(plan_cache=second).optimize(query)
        assert second.l2_hits == 1
        assert again.plan.sexpr() == cold.plan.sexpr()
        second.close()

    def test_warm_start_from_shared_snapshot(self, tmp_path, queries):
        snapshot_path = str(tmp_path / "snapshot.rpl")
        writer = TieredPlanCache.open(snapshot_path)
        for query in queries:
            Optimizer(plan_cache=writer).optimize(query)
        writer.close()

        shard = TieredPlanCache.open(
            str(tmp_path / "shard-0.rpl"),
            snapshot_paths=(snapshot_path, str(tmp_path / "missing.rpl")),
        )
        for query in queries:
            result = Optimizer(plan_cache=shard).optimize(query)
            assert result.memo_entries == 0
        assert shard.l2_hits == len(queries)
        assert shard.store.appended == 0  # snapshot hits are not re-persisted
        shard.close()

    def test_admission_policy_keeps_cheap_entries_l1_only(
        self, tmp_path, query
    ):
        cache = TieredPlanCache.open(
            str(tmp_path / "seg.rpl"),
            admission=AdmissionPolicy(min_expansions=10**9),
        )
        optimizer = Optimizer(plan_cache=cache)
        optimizer.optimize(query)
        assert cache.store.appended == 0
        assert cache.admission_skips == 1
        # Still a perfectly good L1 entry.
        warm = optimizer.optimize(query)
        assert warm.memo_entries == 0
        cache.close()

    def test_snapshot_exposes_the_l2_section(self, tmp_path, query):
        cache = TieredPlanCache.open(str(tmp_path / "seg.rpl"))
        Optimizer(plan_cache=cache).optimize(query)
        snapshot = cache.snapshot()
        l2 = snapshot["l2"]
        assert l2["warm_entries"] == 1
        assert l2["breaker"]["state"] == "closed"
        assert l2["store"]["appended"] == 1
        assert l2["store"]["recovery"]["created"] is True
        cache.close()

    def test_open_on_an_unwritable_path_fails_open(self, tmp_path, query):
        target = tmp_path / "not-a-dir" / "seg.rpl"
        cache = TieredPlanCache.open(str(target))  # parent doesn't exist
        assert cache.store is None
        assert cache.store_errors >= 1
        result = Optimizer(plan_cache=cache).optimize(query)
        warm = Optimizer(plan_cache=cache).optimize(query)
        assert warm.plan.sexpr() == result.plan.sexpr()
        cache.close()


def _breaker(clock):
    return CircuitBreaker(
        "plan_store", failure_threshold=1, cooldown_seconds=10.0, clock=clock
    )


class TestFailOpen:
    """Injected store faults may cost durability, never plan choice."""

    @pytest.mark.parametrize("kind", STORE_FAULT_KINDS)
    def test_armed_fault_is_bit_identical_to_disarmed(
        self, tmp_path, queries, kind
    ):
        disarmed_plans = []
        cache = TieredPlanCache.open(
            str(tmp_path / f"disarmed-{kind}.rpl"),
            fault_injector=StoreFaultInjector(seed=3, rate=1.0, kind=kind),
        )
        for query in queries:
            result = Optimizer(plan_cache=cache).optimize(query)
            disarmed_plans.append((result.plan.sexpr(), result.cost.hex()))
        assert cache.store_errors == 0  # disarmed wrapper is a no-op
        cache.close()

        injector = StoreFaultInjector(seed=3, rate=1.0, kind=kind)
        cache = TieredPlanCache.open(
            str(tmp_path / f"armed-{kind}.rpl"), fault_injector=injector
        )
        with injector:
            armed_plans = []
            for query in queries:
                result = Optimizer(plan_cache=cache).optimize(query)
                armed_plans.append((result.plan.sexpr(), result.cost.hex()))
        assert armed_plans == disarmed_plans
        assert injector.total_injected >= 1
        if kind != "bitflip":  # bitflip appends "succeed" (corrupt on disk)
            assert cache.store_errors >= 1
        cache.close()

    def test_bitflip_lands_on_disk_and_is_quarantined_at_reopen(
        self, tmp_path, query
    ):
        path = str(tmp_path / "seg.rpl")
        injector = StoreFaultInjector(seed=11, rate=1.0, kind="bitflip")
        cache = TieredPlanCache.open(path, fault_injector=injector)
        with injector:
            Optimizer(plan_cache=cache).optimize(query)
        assert injector.total_injected == 1
        cache.close()

        reopened = DurableStore(path)
        assert reopened.report.quarantined_records == 1
        assert reopened.records == {}
        assert os.path.exists(path + ".quarantine")
        reopened.close()

    def test_breaker_opens_after_threshold_and_skips_appends(
        self, tmp_path, queries
    ):
        injector = StoreFaultInjector(seed=1, rate=1.0, kind="raise")
        cache = TieredPlanCache.open(
            str(tmp_path / "seg.rpl"),
            fault_injector=injector,
            breaker=CircuitBreaker(
                "plan_store", failure_threshold=1, cooldown_seconds=3600.0
            ),
        )
        with injector:
            for query in queries:
                Optimizer(plan_cache=cache).optimize(query)
        # First put fails (store poisoned + breaker opens); the rest are
        # skipped without touching the store at all.
        assert cache.store_errors == 1
        assert cache.fail_open_skips == len(queries) - 1
        assert cache.breaker_state == "open"
        assert cache.store.poisoned
        cache.close()

    def test_breaker_recloses_after_cooldown_and_success(self, tmp_path, query):
        clock = ManualClock()
        breaker = _breaker(clock)
        cache = TieredPlanCache.open(str(tmp_path / "seg.rpl"), breaker=breaker)
        assert cache.snapshot()["l2"]["breaker"]["component"] == "plan_store"
        assert breaker.allow()
        breaker.record_failure()
        assert cache.breaker_state == "open" and not breaker.allow()
        clock.advance(11.0)
        assert cache.breaker_state == "half_open"
        Optimizer(plan_cache=cache).optimize(query)  # the probe's put
        assert cache.breaker_state == "closed"
        assert cache.store.appended == 1
        cache.close()

    @pytest.mark.parametrize("error", (StoreError, RuntimeError))
    def test_failed_probe_reopens_and_a_later_probe_is_admitted(
        self, tmp_path, queries, error
    ):
        clock = ManualClock()
        breaker = _breaker(clock)
        cache = TieredPlanCache.open(str(tmp_path / "seg.rpl"), breaker=breaker)
        breaker.record_failure()
        clock.advance(11.0)
        append = cache.store.append

        def failing_append(key, entry):
            raise error("probe append failed")

        cache.store.append = failing_append
        # A store error fails open; any other error propagates.
        escapes = (
            pytest.raises(RuntimeError) if error is RuntimeError else nullcontext()
        )
        with escapes:
            Optimizer(plan_cache=cache).optimize(queries[0])
        assert cache.breaker_state == "open"
        cache.store.append = append
        clock.advance(11.0)
        Optimizer(plan_cache=cache).optimize(queries[1])
        assert cache.breaker_state == "closed"
        assert cache.store.appended == 1
        cache.close()

    def test_store_fault_counters_reach_telemetry(self, tmp_path, query):
        telemetry = Telemetry(registry=MetricRegistry(enabled=True))
        injector = StoreFaultInjector(seed=2, rate=1.0, kind="raise")
        cache = TieredPlanCache.open(
            str(tmp_path / "seg.rpl"),
            fault_injector=injector,
            telemetry=telemetry,
        )
        with injector:
            Optimizer(plan_cache=cache).optimize(query)
        names = set(telemetry.registry.snapshot())
        assert "repro_cache_store_errors_total" in names
        assert "repro_cache_store_warm_entries_total" in names
        cache.close()

    def test_stale_epoch_fault_raises_injected_epoch_error(self, tmp_path):
        injector = StoreFaultInjector(seed=4, rate=1.0, kind="stale_epoch")
        store = DurableStore(
            str(tmp_path / "seg.rpl"), fault_injector=injector
        )
        from repro.context import CachedPlan, fingerprint
        from repro.core.optimizer import run_dpccp

        query = QueryGenerator(seed=5).generate("chain", 5)
        fp = fingerprint(query)
        entry = CachedPlan(
            run_dpccp(query).plan.relabel(fp.mapping), fp.payload
        )
        with injector:
            with pytest.raises(StoreEpochError):
                store.append(fp.key, entry)
        assert store.poisoned
        store.close()
