"""OptimizationService end-to-end: serving, shedding, retrying, breaking."""

import threading
from concurrent.futures import CancelledError

import pytest

from repro.context.plancache import PlanCache
from repro.errors import ServiceOverloadError, ServiceShutdownError
from repro.plans.validation import check_finite, validate_plan
from repro.resilience.budget import Budget
from repro.resilience.faults import FaultInjector
from repro.resilience.optimizer import ResilientOptimizer
from repro.service.breaker import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    BreakerBoard,
    ManualClock,
)
from repro.service.retry import RetryPolicy
from repro.service.server import OptimizationService
from repro.service.soak import ChaosAttempt
from repro.workload.generator import QueryGenerator


@pytest.fixture
def query():
    return QueryGenerator(seed=11).generate("chain", 6)


@pytest.fixture
def star():
    return QueryGenerator(seed=12).generate("star", 6)


def make_service(**overrides):
    settings = dict(
        workers=2,
        retry_policy=RetryPolicy(base_delay=0.001, max_delay=0.01),
    )
    settings.update(overrides)
    return OptimizationService(**settings)


class StallingChaos:
    """A chaos hook that parks the worker until released (never injects).

    ``started`` lets tests wait until a worker is actually parked, so
    backlog-shape assertions (priority order, queue depth) are race-free.
    """

    def __init__(self):
        self.release = threading.Event()
        self.started = threading.Event()

    def __call__(self, request, attempt):
        self.started.set()
        self.release.wait(timeout=10.0)
        return None


class PoisonFirstAttempts:
    """Poison the first ``n`` attempts of every request with one fault kind."""

    def __init__(self, n=1, kind="raise"):
        self.n = n
        self.kind = kind

    def __call__(self, request, attempt):
        if attempt >= self.n:
            return None
        injector = FaultInjector(seed=request.seed + attempt, rate=1.0)
        return ChaosAttempt(injector, self.kind)


class TestServing:
    def test_returns_a_validated_exact_plan(self, query):
        with make_service() as service:
            response = service.optimize(query)
        assert response.ok
        assert response.status == "ok"
        assert response.rung == "exact"
        assert not response.degraded
        assert response.attempts == 1
        assert response.retries == 0
        validate_plan(response.plan, query)
        check_finite(response.plan)

    def test_plan_matches_direct_optimizer_bit_for_bit(self, query):
        direct = ResilientOptimizer().optimize(query)
        with make_service() as service:
            response = service.optimize(query)
        assert response.plan.sexpr() == direct.plan.sexpr()
        got = repr(response.cost)
        want = repr(direct.cost)
        assert got == want

    def test_many_concurrent_requests_all_complete(self, query, star):
        queries = [query, star] * 10
        with make_service(workers=4) as service:
            futures = [service.submit(q) for q in queries]
            responses = [future.result() for future in futures]
        assert all(response.ok for response in responses)
        for q, response in zip(queries, responses):
            validate_plan(response.plan, q)

    def test_request_ids_and_seeds_are_distinct(self, query):
        with make_service() as service:
            first = service.submit(query)
            second = service.submit(query)
            ids = {first.result().request_id, second.result().request_id}
        assert len(ids) == 2

    def test_derived_seed_is_deterministic(self):
        a = OptimizationService(seed=5)
        b = OptimizationService(seed=5)
        assert a._derive_seed(17) == b._derive_seed(17)
        assert a._derive_seed(17) != a._derive_seed(18)

    def test_shared_plan_cache_hits_on_repeats(self, query):
        cache = PlanCache(16)
        with make_service(workers=2, plan_cache=cache) as service:
            first = service.optimize(query)
            second = service.optimize(query)
        assert first.ok and second.ok
        assert cache.hits >= 1
        assert second.plan.sexpr() == first.plan.sexpr()


class TestAdmissionControl:
    def test_overload_sheds_with_queue_depth(self, query):
        chaos = StallingChaos()
        service = make_service(workers=1, queue_capacity=2, chaos=chaos)
        with service:
            futures = [service.submit(query)]
            assert chaos.started.wait(timeout=10.0)
            # The worker is parked on request 0; the queue holds 2 more;
            # the next submission must shed deterministically.
            futures.append(service.submit(query))
            futures.append(service.submit(query))
            with pytest.raises(ServiceOverloadError) as caught:
                service.submit(query)
            assert caught.value.capacity == 2
            assert caught.value.queue_depth == 2
            chaos.release.set()
            for future in futures:
                assert future.result().ok
        assert service.rejected >= 1

    def test_submit_after_shutdown_raises(self, query):
        service = make_service()
        service.start()
        service.shutdown()
        with pytest.raises(ServiceShutdownError):
            service.submit(query)

    def test_priority_orders_the_backlog(self, query):
        chaos = StallingChaos()
        order = []
        service = make_service(workers=1, queue_capacity=8, chaos=chaos)
        with service:
            blocker = service.submit(query, priority=0)
            assert chaos.started.wait(timeout=10.0)
            low = service.submit(query, priority=1)
            high = service.submit(query, priority=9)
            for future in (blocker, low, high):
                future.add_done_callback(
                    lambda f: order.append(f.result().request_id)
                )
            chaos.release.set()
            high_id = high.result().request_id
            low_id = low.result().request_id
            blocker.result()
        assert order.index(high_id) < order.index(low_id)


class TestDeadlines:
    def test_deadline_expired_in_queue_is_shed_as_timeout(self, query):
        chaos = StallingChaos()
        service = make_service(workers=1, chaos=chaos)
        with service:
            blocker = service.submit(query)
            assert chaos.started.wait(timeout=10.0)
            doomed = service.submit(query, deadline_seconds=0.001)
            # Let the deadline lapse while the worker is parked.
            blocker_release = threading.Timer(0.1, chaos.release.set)
            blocker_release.start()
            response = doomed.result()
            blocker.result()
        assert response.status == "timeout"
        assert "queue" in response.error
        assert response.attempts == 0

    def test_generous_deadline_still_serves(self, query):
        with make_service() as service:
            response = service.optimize(query, deadline_seconds=60.0)
        assert response.ok


class TestShutdownSemantics:
    def test_draining_shutdown_finishes_backlog(self, query):
        service = make_service(workers=1)
        with service:
            futures = [service.submit(query) for _ in range(6)]
        # Context exit drains; every future must be resolved by now.
        assert all(future.done() for future in futures)
        assert all(future.result().ok for future in futures)

    def test_non_draining_shutdown_fails_pending(self, query):
        chaos = StallingChaos()
        service = make_service(workers=1, queue_capacity=8, chaos=chaos)
        service.start()
        blocker = service.submit(query)
        assert chaos.started.wait(timeout=10.0)
        pending = [service.submit(query) for _ in range(3)]
        chaos.release.set()
        service.shutdown(drain=False)
        assert blocker.result().ok  # in-flight work still finishes
        for future in pending:
            if future.exception() is not None:
                assert isinstance(future.exception(), ServiceShutdownError)

    def test_cancelled_queued_future_does_not_kill_the_worker(self, query):
        # Cancelling a still-queued future must not crash the worker that
        # later dequeues it (set_result on a cancelled future raises
        # InvalidStateError); the ticket is skipped and counted.
        chaos = StallingChaos()
        with make_service(workers=1, chaos=chaos) as service:
            blocker = service.submit(query)
            assert chaos.started.wait(timeout=10.0)
            doomed = service.submit(query)
            assert doomed.cancel()  # still queued: cancel succeeds
            chaos.release.set()
            assert blocker.result().ok
            follow_up = service.optimize(query)  # the worker still answers
            assert follow_up.ok
            health = service.healthz()
            assert health.workers_alive == 1
            assert health.unhandled_worker_errors == 0
            assert health.cancelled == 1
        with pytest.raises(CancelledError):
            doomed.result()

    def test_non_draining_shutdown_survives_cancelled_pending(self, query):
        chaos = StallingChaos()
        service = make_service(workers=1, queue_capacity=8, chaos=chaos)
        service.start()
        blocker = service.submit(query)
        assert chaos.started.wait(timeout=10.0)
        pending = [service.submit(query) for _ in range(3)]
        assert pending[1].cancel()
        # The worker is still parked: the bounded join times out, the
        # cancelled ticket is skipped (no InvalidStateError aborting the
        # sequence), and the state honestly stays "draining".
        assert service.shutdown(drain=False, timeout=0.05) is False
        assert service.healthz().status == "draining"
        for future in (pending[0], pending[2]):
            assert isinstance(future.exception(), ServiceShutdownError)
        assert pending[1].cancelled()
        # A second shutdown after the worker unparks really stops.
        chaos.release.set()
        assert service.shutdown(drain=False, timeout=10.0) is True
        assert service.healthz().status == "stopped"
        assert blocker.result().ok

    def test_restart_is_rejected(self, query):
        service = make_service()
        service.start()
        service.shutdown()
        with pytest.raises(ServiceShutdownError):
            service.start()


class TestRetries:
    def test_injected_fault_is_retried_to_an_exact_plan(self, query):
        direct = ResilientOptimizer().optimize(query)
        chaos = PoisonFirstAttempts(n=1, kind="raise")
        with make_service(workers=1, chaos=chaos) as service:
            response = service.optimize(query)
        assert response.ok
        assert response.rung == "exact"
        assert response.retries >= 1
        assert response.attempts >= 2
        assert sum(response.injected.values()) >= 1
        # The retried plan is the fault-free plan, bit for bit.
        assert response.plan.sexpr() == direct.plan.sexpr()
        got = repr(response.cost)
        want = repr(direct.cost)
        assert got == want

    def test_nan_poisoning_is_retried_not_cached(self, query):
        cache = PlanCache(16)
        chaos = PoisonFirstAttempts(n=1, kind="nan")
        with make_service(workers=1, chaos=chaos, plan_cache=cache) as service:
            response = service.optimize(query)
        assert response.ok
        check_finite(response.plan)

    def test_catalog_fault_is_retried(self, query):
        chaos = PoisonFirstAttempts(n=1, kind="catalog")
        with make_service(workers=1, chaos=chaos) as service:
            response = service.optimize(query)
        assert response.ok
        validate_plan(response.plan, query)

    def test_exhausted_retries_fall_back_to_best_degraded(self, query):
        # Every attempt is poisoned; the ladder's degraded rescue is kept.
        chaos = PoisonFirstAttempts(n=99, kind="raise")
        with make_service(
            workers=1,
            chaos=chaos,
            retry_policy=RetryPolicy(
                max_attempts=2, base_delay=0.001, max_delay=0.01
            ),
            breakers=BreakerBoard(failure_threshold=50),
        ) as service:
            response = service.optimize(query)
        assert response.ok
        assert response.degraded
        assert response.rung != "exact"
        validate_plan(response.plan, query)

    def test_organic_degradation_is_not_retried(self, query):
        # A hopeless expansion budget degrades without injected faults —
        # a permanent condition the service accepts on the first attempt.
        with make_service(
            workers=1,
            budget_factory=lambda: Budget(max_expansions=1),
        ) as service:
            response = service.optimize(query)
        assert response.ok
        assert response.degraded
        assert response.retries == 0
        assert response.attempts == 1


class TestBreakers:
    def test_repeated_faults_trip_the_cost_model_breaker(self, query):
        # Virtual time: the 30s cooldown elapses in the wait loop's
        # clock.sleep, not in real time.
        clock = ManualClock()
        chaos = PoisonFirstAttempts(n=99, kind="raise")
        board = BreakerBoard(
            failure_threshold=2, cooldown_seconds=30.0, clock=clock
        )
        with make_service(
            workers=1,
            chaos=chaos,
            breakers=board,
            clock=clock,
            sleep=clock.sleep,
            retry_policy=RetryPolicy(
                max_attempts=3, base_delay=0.001, max_delay=0.01
            ),
        ) as service:
            service.optimize(query)
        assert board.breaker("cost_model").trips >= 1
        trace = board.breaker("cost_model").trace()
        assert any("closed -> open" in line for line in trace)

    def test_breaker_recovery_full_cycle(self, query):
        # Poison exactly the first two attempts of request 0 with a
        # threshold-2 breaker: trip, wait out the cooldown, probe with the
        # clean third attempt, close.  Virtual time keeps it instant.
        clock = ManualClock()
        board = BreakerBoard(
            failure_threshold=2, cooldown_seconds=0.05, clock=clock
        )
        chaos = PoisonFirstAttempts(n=2, kind="raise")
        with make_service(
            workers=1,
            chaos=chaos,
            breakers=board,
            clock=clock,
            sleep=clock.sleep,
            retry_policy=RetryPolicy(
                max_attempts=5, base_delay=0.01, max_delay=0.1, jitter=0.0
            ),
        ) as service:
            response = service.optimize(query)
        assert response.ok
        assert response.rung == "exact"
        trace = board.breaker("cost_model").trace()
        assert trace == [
            "cost_model@2: closed -> open",
            "cost_model@2: open -> half_open",
            "cost_model@3: half_open -> closed",
        ]
        assert board.breaker("cost_model").state == CLOSED

    def test_wait_limit_fails_open_never_starves_the_request(self, query):
        # A breaker stuck open (huge cooldown) cannot starve a request:
        # past breaker_wait_limit the attempt proceeds ungated.  A no-op
        # sleep skips the cooldown-length waits without wall-clock cost.
        board = BreakerBoard(failure_threshold=1, cooldown_seconds=3600.0)
        board.breaker("cost_model").record_failure()
        assert board.breaker("cost_model").state == OPEN
        with make_service(
            workers=1,
            breakers=board,
            breaker_wait_limit=3,
            sleep=lambda seconds: None,
            retry_policy=RetryPolicy(base_delay=0.001, max_delay=0.01),
        ) as service:
            response = service.optimize(query)
        assert response.ok
        assert response.rung == "exact"
        assert response.breaker_waits == 4  # limit + the bypassing check
        validate_plan(response.plan, query)

    def test_gate_refusal_releases_half_open_probe_slots(self):
        # cost_model is half-open (one probe slot) while catalog is still
        # open: gating admits the cost_model probe, then catalog refuses.
        # The consumed slot must be handed back, or every later gate pays
        # the full fail-open backstop against a probe-starved breaker.
        clock = ManualClock()
        board = BreakerBoard(
            failure_threshold=1, cooldown_seconds=0.05, clock=clock
        )
        service = make_service(breakers=board, clock=clock, sleep=clock.sleep)
        cost = board.breaker("cost_model")
        catalog = board.breaker("catalog")
        cost.record_failure()  # opens at t=0
        clock.advance(0.05)  # cost_model cooldown elapses -> half-open
        catalog.record_failure()  # opens at t=0.05, still in cooldown
        refusal = service._gate_breakers()
        assert refusal is not None
        assert refusal.component == "catalog"
        assert cost.state == HALF_OPEN
        assert cost.allow()  # the probe slot came back, not leaked

    def test_open_breaker_waits_do_not_consume_attempts(self, query):
        clock = ManualClock()
        board = BreakerBoard(
            failure_threshold=1, cooldown_seconds=0.05, clock=clock
        )
        # Trip the breaker before the request ever runs.
        board.breaker("cost_model").record_failure()
        assert board.breaker("cost_model").state == OPEN
        with make_service(
            workers=1,
            breakers=board,
            clock=clock,
            sleep=clock.sleep,
        ) as service:
            response = service.optimize(query)
        assert response.ok
        assert response.breaker_waits >= 1
        assert response.attempts == 1  # waiting burned no attempts


class TestHealth:
    def test_healthz_reflects_served_requests(self, query):
        with make_service(workers=2, plan_cache=PlanCache(8)) as service:
            for _ in range(3):
                assert service.optimize(query).ok
            health = service.healthz()
            assert health.status == "ok"
            assert health.healthy
            assert health.workers_alive == 2
            assert health.completed == 3
            assert health.rung_histogram.get("exact") == 3
            assert set(health.breakers) == {"catalog", "cost_model"}
            assert health.plan_cache is not None
        stopped = service.healthz()
        assert stopped.status == "stopped"
        assert not stopped.healthy

    def test_healthz_reports_degraded_while_serving_with_open_breakers(
        self, query
    ):
        clock = ManualClock()
        board = BreakerBoard(
            failure_threshold=1, cooldown_seconds=60.0, clock=clock
        )
        board.breaker("cost_model").record_failure()
        assert board.breaker("cost_model").state == OPEN
        with make_service(workers=1, breakers=board, clock=clock) as service:
            health = service.healthz()
            # Serving with an open breaker is degraded, not unhealthy-dead:
            # requests still complete via retries and the fail-open backstop.
            assert health.status == "degraded"
            assert not health.healthy
            assert "serving degraded" in health.describe()
        assert service.healthz().status == "stopped"

    def test_describe_renders_unhandled_worker_errors(self, query):
        def exploding_chaos(request, attempt):
            raise RuntimeError("chaos hook bug")

        with make_service(workers=1, chaos=exploding_chaos) as service:
            service.optimize(query)
            described = service.healthz().describe()
        assert "1 unhandled error(s)" in described

    def test_healthz_serializes(self, query):
        import json

        with make_service() as service:
            service.optimize(query)
            payload = json.dumps(service.healthz().as_dict())
        assert "rung_histogram" in payload

    def test_unhandled_worker_error_is_counted_not_fatal(self, query):
        def exploding_chaos(request, attempt):
            raise RuntimeError("chaos hook bug")

        with make_service(workers=1, chaos=exploding_chaos) as service:
            response = service.optimize(query)
            health = service.healthz()
            assert response.status == "failed"
            assert "unhandled" in response.error
            assert health.unhandled_worker_errors == 1
            assert health.workers_alive == 1  # the worker survived
            # The pool still serves follow-up work (hook fails again, but
            # the worker loop keeps answering).
            follow_up = service.optimize(query)
            assert follow_up.status == "failed"


class TestTopK:
    """Ranked serving: topk requests, breaker-suspect rank-2 fallback."""

    def test_topk_request_fills_ranked_costs(self, query):
        from repro.telemetry import MetricRegistry, Telemetry

        registry = MetricRegistry(enabled=True)
        with make_service(
            telemetry=Telemetry(registry=registry)
        ) as service:
            response = service.optimize(query, topk=3)
        assert response.ok
        assert response.rank == 1
        assert len(response.ranked_costs) > 1
        assert list(response.ranked_costs) == sorted(response.ranked_costs)
        assert response.cost == response.ranked_costs[0]
        validate_plan(response.plan, query)
        served = registry.counter(
            "repro_topk_requests_total",
            labels={"served": str(len(response.ranked_costs))},
        )
        assert served.value == 1

    def test_single_best_request_is_unchanged(self, query):
        with make_service() as service:
            response = service.optimize(query)
        assert response.rank == 1
        assert response.ranked_costs == ()

    def test_topk_must_be_positive(self, query):
        with make_service() as service:
            with pytest.raises(ValueError):
                service.optimize(query, topk=0)

    def test_open_cost_model_breaker_serves_rank_two(self, query):
        from repro.telemetry import MetricRegistry, Telemetry

        registry = MetricRegistry(enabled=True)
        # Stuck-open breaker (huge cooldown): past breaker_wait_limit the
        # attempt proceeds ungated, so the request is served while the
        # cost model is still suspect at response time.
        board = BreakerBoard(failure_threshold=1, cooldown_seconds=3600.0)
        board.breaker("cost_model").record_failure()
        assert board.breaker("cost_model").state == OPEN
        with make_service(
            workers=1,
            breakers=board,
            breaker_wait_limit=3,
            sleep=lambda seconds: None,
            telemetry=Telemetry(registry=registry),
        ) as service:
            response = service.optimize(query, topk=3)
        assert response.ok
        assert response.rank == 2
        assert response.cost == response.ranked_costs[1]
        assert response.cost >= response.ranked_costs[0]
        validate_plan(response.plan, query)
        assert registry.counter("repro_topk_fallback_total").value == 1

    def test_closed_breaker_never_triggers_the_fallback(self, query):
        from repro.telemetry import MetricRegistry, Telemetry

        registry = MetricRegistry(enabled=True)
        with make_service(
            telemetry=Telemetry(registry=registry)
        ) as service:
            response = service.optimize(query, topk=3)
        assert response.rank == 1
        assert registry.counter("repro_topk_fallback_total").value == 0


class TestDurableWarmStart:
    """A ``TieredPlanCache`` handed in as ``plan_cache=`` gives the service
    an L2 tier that survives a restart."""

    def test_restarted_service_serves_warm_from_the_store(
        self, tmp_path, query
    ):
        from repro.context.store import TieredPlanCache

        path = str(tmp_path / "service.rpl")
        cache = TieredPlanCache.open(path)
        try:
            with make_service(plan_cache=cache) as service:
                cold = service.optimize(query)
        finally:
            cache.close()
        assert cold.ok

        # "Restart": a fresh service over a cache reopened on the segment.
        cache = TieredPlanCache.open(path)
        try:
            with make_service(plan_cache=cache) as service:
                warm = service.optimize(query)
        finally:
            cache.close()
        assert warm.ok
        assert cache.l2_hits == 1
        assert warm.plan.sexpr() == cold.plan.sexpr()
        assert repr(warm.cost) == repr(cold.cost)
