"""The fault-tolerant concurrent optimization service.

:class:`OptimizationService` turns the single-shot
:class:`~repro.resilience.ResilientOptimizer` stack into a serving layer:
a pool of worker threads pulls :class:`OptimizeRequest` s from a bounded
priority :class:`~repro.service.queue.AdmissionQueue` and answers each
with an :class:`OptimizeResponse` carrying a **validated** plan plus the
full story of how it was obtained (attempts, retries, injected faults,
degradation rung, queue wait).

The request path layers four defences, outermost first:

1. **admission control** — a full queue sheds load deterministically
   (:class:`~repro.errors.ServiceOverloadError` at submit time, carrying
   the queue depth) instead of buffering unboundedly;
2. **circuit breakers** — per-component (cost model, catalog) state
   machines fast-fail attempts while a component is sick, so a poisoned
   dependency costs microseconds, not a full enumeration timeout per
   request;
3. **retries with seeded backoff** — transient failures (injected faults,
   lost statistics, open circuits) are retried with exponential backoff
   and per-request seeded jitter; permanent conditions (budget
   exhaustion) are *not* retried — they already produced the best
   validated plan the degradation ladder could buy;
4. **the degradation ladder** — every attempt runs through
   :class:`ResilientOptimizer`, so even the last retry returns a
   validated plan whenever one is constructible.

Determinism contract: a request's *plan* is a function of its query and
its seed only.  Concurrency, fault injection, breakers and backoff decide
*when* and *how often* attempts run — never which plan a successful
attempt returns — so a request stream replayed single-threaded with
chaos disarmed produces bit-identical plans (the chaos soak asserts
exactly this).
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Protocol

from repro.context.plancache import PlanCache
from repro.core.advancements import AdvancementConfig
from repro.cost.haas import HaasCostModel
from repro.cost.model import CostModel
from repro.errors import (
    CircuitOpenError,
    ReproError,
    ResilienceError,
    RetriesExhaustedError,
    ServiceShutdownError,
)
from repro.plans.join_tree import JoinTree
from repro.query import Query
from repro.resilience.budget import Budget
from repro.resilience.optimizer import ResilientOptimizer, ResilientResult
from repro.service.breaker import BreakerBoard
from repro.service.health import ServiceHealth
from repro.service.queue import DEFAULT_QUEUE_CAPACITY, AdmissionQueue
from repro.service.retry import RetryPolicy
from repro.telemetry import NULL_SPAN, Telemetry
from repro.telemetry.adapters import (
    publish_optimization_stats,
    publish_service_health,
)

__all__ = [
    "AttemptChaos",
    "BREAKER_COMPONENTS",
    "OptimizationService",
    "OptimizeRequest",
    "OptimizeResponse",
]

#: Components the service guards with circuit breakers.
BREAKER_COMPONENTS = ("cost_model", "catalog")


class AttemptChaos(Protocol):
    """What a chaos hook returns for one (request, attempt) pair.

    The service stays ignorant of *how* faults are injected; it only needs
    to wrap the attempt's cost-model factory and query, arm the faults for
    the duration of the attempt (context manager), and read which
    components actually faulted afterwards (:attr:`injected`).
    ``repro.service.soak`` implements this with a seeded
    :class:`~repro.resilience.FaultInjector` per attempt.
    """

    injected: Dict[str, int]

    def cost_model_factory(
        self, base: Callable[[], CostModel]
    ) -> Callable[[], CostModel]: ...

    def wrap_query(self, query: Query) -> Query: ...

    def __enter__(self) -> "AttemptChaos": ...

    def __exit__(self, exc_type, exc, tb) -> bool: ...


@dataclass(frozen=True)
class OptimizeRequest:
    """One unit of admission: a query plus serving metadata.

    ``priority`` orders the queue (higher first); ``deadline_seconds`` is
    the end-to-end allowance from submission — queue wait included — and
    also bounds each optimization attempt's budget.  ``seed`` drives every
    per-request random decision (retry jitter, chaos schedule); the
    service derives it deterministically from its own seed and the
    request id when the caller leaves it unset.  ``topk > 1`` asks the
    optimizer to retain that many ranked plans, enabling the
    breaker-suspect rank-2 fallback (see :meth:`OptimizationService.submit`).
    """

    query: Query
    request_id: int
    priority: int = 0
    deadline_seconds: Optional[float] = None
    seed: int = 0
    topk: int = 1

    def describe(self) -> str:
        return (
            f"request#{self.request_id}[{self.query.describe()}, "
            f"prio={self.priority}]"
        )


@dataclass
class OptimizeResponse:
    """The service's answer: a validated plan plus serving metadata."""

    request_id: int
    status: str  # "ok" | "failed" | "timeout"
    plan: Optional[JoinTree] = None
    cost: Optional[float] = None
    rung: str = ""
    degraded: bool = False
    attempts: int = 0
    retries: int = 0
    breaker_waits: int = 0
    queue_wait_seconds: float = 0.0
    service_seconds: float = 0.0
    #: Fault point -> injected fault count, summed over all attempts.
    injected: Dict[str, int] = field(default_factory=dict)
    error: Optional[str] = None
    result: Optional[ResilientResult] = None
    #: Shard that served the request (sharded deployments only); ``None``
    #: for single-process service responses and front-end fallbacks.
    shard: Optional[int] = None
    #: Rank of the served plan within the request's top-k stream (1-based).
    #: Always 1 unless the breaker-suspect fallback re-served rank 2.
    rank: int = 1
    #: Costs of every retained ranked plan (rank 1 first); empty for
    #: single-best requests.
    ranked_costs: tuple = ()

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def as_dict(self) -> Dict[str, object]:
        return {
            "request_id": self.request_id,
            "status": self.status,
            "cost": self.cost,
            "rung": self.rung,
            "degraded": self.degraded,
            "attempts": self.attempts,
            "retries": self.retries,
            "breaker_waits": self.breaker_waits,
            "queue_wait_seconds": self.queue_wait_seconds,
            "service_seconds": self.service_seconds,
            "injected": dict(self.injected),
            "error": self.error,
            "shard": self.shard,
            "rank": self.rank,
            "ranked_costs": list(self.ranked_costs),
        }


class _Ticket:
    """A queued request plus its completion future and admission stamp."""

    __slots__ = ("request", "future", "admitted_at")

    def __init__(self, request: OptimizeRequest, admitted_at: float):
        self.request = request
        self.future: "Future[OptimizeResponse]" = Future()
        self.admitted_at = admitted_at


class OptimizationService:
    """A thread-pool optimization service over the resilience stack.

    Parameters
    ----------
    enumerator / pruning / cost_model_factory / config / heuristic:
        The optimizer configuration, as for
        :class:`~repro.core.optimizer.Optimizer`.
    workers:
        Worker-thread count.
    queue_capacity:
        Admission bound; a full queue rejects (never blocks).
    retry_policy:
        Backoff schedule and attempt cap for transient failures.
    breakers:
        The per-component breaker board; defaults to one with stock
        settings on ``clock``.
    plan_cache:
        Shared cross-query cache (thread-safe), or ``None`` (the default)
        for no caching.  Chaos-armed attempts bypass it so injected faults
        can never poison it.  For a durable tier, pass a
        :class:`~repro.context.store.TieredPlanCache` from
        ``TieredPlanCache.open(path)``: it recovers its entries when it
        opens, so the first request already sees them; its store state
        shows up under ``plan_cache.l2`` in :meth:`healthz`.  The caller
        that opened it closes it.
    budget_factory:
        Default per-attempt budget for requests without a deadline.
    chaos:
        Optional hook ``(request, attempt) -> AttemptChaos | None`` used
        by the soak driver to poison individual attempts.
    seed:
        Root seed from which per-request seeds are derived.
    clock / sleep:
        Injectable monotonic clock and sleep (virtual-time tests use
        :class:`~repro.service.breaker.ManualClock` for both).
    breaker_wait_limit:
        Upper bound on breaker fast-fail waits per request; past it the
        attempt proceeds ungated (a liveness backstop — breakers shed
        load, they never starve a request out of an answer; waits do not
        consume retry attempts).
    telemetry:
        Optional :class:`~repro.telemetry.Telemetry` bundle.  Armed, each
        served request records a ``request`` span with per-attempt child
        spans (breaker refusals and trips become span events), response
        outcomes and latencies land in the metric registry, every
        completed response's optimizer counters are accumulated into it,
        and :meth:`healthz` embeds a registry snapshot.
    """

    def __init__(
        self,
        enumerator: str = "mincut_conservative",
        pruning: str = "apcbi",
        cost_model_factory: Callable[[], CostModel] = HaasCostModel,
        config: Optional[AdvancementConfig] = None,
        heuristic: str = "goo",
        workers: int = 4,
        queue_capacity: int = DEFAULT_QUEUE_CAPACITY,
        retry_policy: Optional[RetryPolicy] = None,
        breakers: Optional[BreakerBoard] = None,
        plan_cache: Optional[PlanCache] = None,
        budget_factory: Optional[Callable[[], Budget]] = None,
        chaos: Optional[
            Callable[[OptimizeRequest, int], Optional[AttemptChaos]]
        ] = None,
        seed: int = 0,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
        breaker_wait_limit: int = 64,
        telemetry: Optional[Telemetry] = None,
    ):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if breaker_wait_limit < 1:
            raise ValueError(
                f"breaker_wait_limit must be >= 1, got {breaker_wait_limit}"
            )
        self._optimizer_kwargs = dict(
            enumerator=enumerator,
            pruning=pruning,
            config=config,
            heuristic=heuristic,
            telemetry=telemetry,
        )
        self._telemetry = telemetry
        self._cost_model_factory = cost_model_factory
        self._queue: AdmissionQueue[_Ticket] = AdmissionQueue(queue_capacity)
        self._retry = retry_policy if retry_policy is not None else RetryPolicy()
        self._breakers = (
            breakers if breakers is not None else BreakerBoard(clock=clock)
        )
        self._plan_cache = plan_cache
        self._budget_factory = budget_factory
        self._chaos = chaos
        self.seed = seed
        self._clock = clock
        self._sleep = sleep
        self._breaker_wait_limit = breaker_wait_limit
        self._n_workers = workers
        self._threads: List[threading.Thread] = []
        self._state = "stopped"  # "stopped" | "running" | "draining"
        self._lock = threading.Lock()
        self._next_request_id = 0
        # Counters, all guarded by _lock.
        self.accepted = 0
        self.rejected = 0
        self.completed = 0
        self.failed = 0
        self.timeouts = 0
        self.cancelled = 0
        self.retries = 0
        self.unhandled_worker_errors = 0
        self.rung_histogram: Dict[str, int] = {}

    # -- lifecycle -----------------------------------------------------

    def start(self) -> "OptimizationService":
        with self._lock:
            # One-shot lifecycle: the admission queue's close is final, so
            # a shut-down service cannot be resurrected — build a new one.
            if self._state != "stopped" or self._threads:
                raise ServiceShutdownError(
                    f"cannot start a service in state {self._state!r}"
                    + ("; services are one-shot" if self._threads else "")
                )
            self._state = "running"
        for index in range(self._n_workers):
            thread = threading.Thread(
                target=self._worker_loop,
                name=f"repro-optimizer-{index}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)
        return self

    def shutdown(self, drain: bool = True, timeout: Optional[float] = None) -> bool:
        """Stop the service; ``True`` iff every worker actually exited.

        ``drain=True`` finishes every queued and in-flight request before
        the workers exit; ``drain=False`` fails pending (not-yet-started)
        requests with :class:`ServiceShutdownError` and only lets
        in-flight work finish.  ``timeout`` bounds the *total* wait across
        all worker joins; on ``False`` the service stays ``draining``
        (never falsely ``stopped``) and ``shutdown`` may be called again
        to keep waiting.
        """
        with self._lock:
            if self._state == "stopped":
                return True
            self._state = "draining"
        self._queue.close()
        if not drain:
            for ticket in self._queue.drain_pending():
                # A caller may have cancelled the future while it was
                # queued; claiming it first keeps one cancelled ticket
                # from aborting the whole shutdown sequence.
                if not ticket.future.set_running_or_notify_cancel():
                    with self._lock:
                        self.cancelled += 1
                    continue
                ticket.future.set_exception(
                    ServiceShutdownError(
                        f"{ticket.request.describe()} cancelled by "
                        "non-draining shutdown"
                    )
                )
        # Joins happen in real time whatever clock the breakers use, and
        # the deadline is shared: N workers never wait N * timeout.
        join_deadline = None if timeout is None else time.monotonic() + timeout
        for thread in self._threads:
            remaining = (
                None
                if join_deadline is None
                else max(0.0, join_deadline - time.monotonic())
            )
            thread.join(timeout=remaining)
        stopped = not any(thread.is_alive() for thread in self._threads)
        with self._lock:
            self._state = "stopped" if stopped else "draining"
        return stopped

    def __enter__(self) -> "OptimizationService":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.shutdown(drain=True)
        return False

    @property
    def running(self) -> bool:
        with self._lock:
            return self._state == "running"

    # -- admission -----------------------------------------------------

    def _derive_seed(self, request_id: int) -> int:
        # Distinct large odd multipliers keep per-request seeds spread out
        # and deterministic for a given (service seed, request id).
        return self.seed * 1_000_003 + request_id * 7_919 + 1

    def submit(
        self,
        query: Query,
        priority: int = 0,
        deadline_seconds: Optional[float] = None,
        seed: Optional[int] = None,
        topk: int = 1,
    ) -> "Future[OptimizeResponse]":
        """Admit a request; returns a future, or raises on shed/shutdown.

        ``topk > 1`` retains that many ranked plans per request and opts
        in to the breaker-suspect fallback: when the cost-model breaker is
        not closed at response time, the service re-serves rank 2 (the
        structurally different runner-up) instead of rank 1, on the theory
        that a suspect cost model's top pick is the plan most finely tuned
        to its possibly-poisoned numbers.  This is a deliberate, explicit
        deviation from the plan = f(query, seed) determinism contract —
        single-best requests (the default) are unaffected.

        Raises :class:`~repro.errors.ServiceOverloadError` (queue full,
        deterministic load shedding) or :class:`ServiceShutdownError`
        (service not running).
        """
        if topk < 1:
            raise ValueError(f"topk must be >= 1, got {topk}")
        with self._lock:
            if self._state != "running":
                raise ServiceShutdownError(
                    f"service is {self._state}; request rejected"
                )
            request_id = self._next_request_id
            self._next_request_id += 1
        request = OptimizeRequest(
            query=query,
            request_id=request_id,
            priority=priority,
            deadline_seconds=deadline_seconds,
            seed=seed if seed is not None else self._derive_seed(request_id),
            topk=topk,
        )
        ticket = _Ticket(request, admitted_at=self._clock())
        try:
            self._queue.put(ticket, priority=priority)
        except ReproError:
            with self._lock:
                self.rejected += 1
            raise
        with self._lock:
            self.accepted += 1
        return ticket.future

    def optimize(
        self,
        query: Query,
        priority: int = 0,
        deadline_seconds: Optional[float] = None,
        seed: Optional[int] = None,
        topk: int = 1,
    ) -> OptimizeResponse:
        """Synchronous convenience: submit and wait for the response."""
        return self.submit(
            query,
            priority=priority,
            deadline_seconds=deadline_seconds,
            seed=seed,
            topk=topk,
        ).result()

    # -- health --------------------------------------------------------

    def healthz(self) -> ServiceHealth:
        """A point-in-time health snapshot (see :class:`ServiceHealth`).

        A running service reports ``"ok"``, or ``"degraded"`` when it is
        still serving but with at least one breaker not closed (requests
        proceed under retries and, past ``breaker_wait_limit``, the
        fail-open backstop) — an open breaker is load-shedding, not an
        outage, and operators need to tell the two apart.
        """
        breaker_snapshot = self._breakers.snapshot()
        serving_degraded = any(
            entry.get("state") != "closed"
            for entry in breaker_snapshot.values()
        )
        with self._lock:
            state = self._state
            if state != "running":
                status = state
            elif serving_degraded:
                status = "degraded"
            else:
                status = "ok"
            health = ServiceHealth(
                status=status,
                queue=self._queue.snapshot(),
                workers_alive=sum(
                    1 for thread in self._threads if thread.is_alive()
                ),
                workers_total=self._n_workers,
                accepted=self.accepted,
                rejected=self.rejected,
                completed=self.completed,
                failed=self.failed,
                timeouts=self.timeouts,
                cancelled=self.cancelled,
                retries=self.retries,
                breaker_trips=self._breakers.total_trips,
                unhandled_worker_errors=self.unhandled_worker_errors,
                rung_histogram=dict(self.rung_histogram),
                breakers=breaker_snapshot,
                plan_cache=(
                    self._plan_cache.snapshot()
                    if self._plan_cache is not None
                    else None
                ),
            )
        # Registry work happens outside the service lock: publishing takes
        # per-metric locks and must never serialize the request path.
        if self._telemetry is not None:
            publish_service_health(self._telemetry.registry, health)
            health.metrics = self._telemetry.registry.snapshot()
        return health

    @property
    def breakers(self) -> BreakerBoard:
        return self._breakers

    @property
    def plan_cache(self) -> Optional[PlanCache]:
        return self._plan_cache

    @property
    def telemetry(self) -> Optional[Telemetry]:
        return self._telemetry

    # -- the worker loop ----------------------------------------------

    def _worker_loop(self) -> None:
        while True:
            ticket = self._queue.get(timeout=0.1)
            if ticket is None:
                if self._queue.closed and len(self._queue) == 0:
                    return
                continue
            # Claim the future before doing any work: a caller may have
            # cancelled it while it sat in the queue, and a cancelled
            # future rejects set_result (InvalidStateError would kill the
            # worker).  Claiming also pins the future RUNNING, so it can
            # no longer be cancelled mid-processing.
            if not ticket.future.set_running_or_notify_cancel():
                with self._lock:
                    self.cancelled += 1
                continue
            started = self._clock()
            queue_wait = started - ticket.admitted_at
            span = (
                NULL_SPAN
                if self._telemetry is None
                else self._telemetry.span(
                    "request",
                    request_id=ticket.request.request_id,
                    priority=ticket.request.priority,
                )
            )
            try:
                with span:
                    response = self._process(ticket, queue_wait)
                    span.set(
                        status=response.status,
                        rung=response.rung,
                        attempts=response.attempts,
                        retries=response.retries,
                        rank=response.rank,
                    )
            except Exception as error:  # the worker must never die
                with self._lock:
                    self.unhandled_worker_errors += 1
                response = OptimizeResponse(
                    request_id=ticket.request.request_id,
                    status="failed",
                    queue_wait_seconds=queue_wait,
                    error=f"unhandled {type(error).__name__}: {error}",
                )
            response.service_seconds = self._clock() - started
            self._account(response)
            ticket.future.set_result(response)

    def _account(self, response: OptimizeResponse) -> None:
        with self._lock:
            self.retries += response.retries
            if response.status == "ok":
                self.completed += 1
                rung = response.rung or "unknown"
                self.rung_histogram[rung] = self.rung_histogram.get(rung, 0) + 1
            elif response.status == "timeout":
                self.timeouts += 1
            else:
                self.failed += 1
        if self._telemetry is not None:
            self._publish_response(response)

    def _publish_response(self, response: OptimizeResponse) -> None:
        """Fold one response into the metric registry (no service lock held)."""
        registry = self._telemetry.registry
        registry.counter(
            "repro_service_responses_total",
            "Responses served, by terminal status.",
            labels={"status": response.status},
        ).inc()
        registry.histogram(
            "repro_service_request_seconds",
            "End-to-end service time per response (queue wait excluded).",
        ).observe(response.service_seconds)
        registry.histogram(
            "repro_service_queue_wait_seconds",
            "Admission-queue wait per response.",
        ).observe(response.queue_wait_seconds)
        if response.ok and response.result is not None:
            publish_optimization_stats(registry, response.result.stats)

    # -- one request, attempt by attempt -------------------------------

    def _deadline_at(self, ticket: _Ticket) -> Optional[float]:
        if ticket.request.deadline_seconds is None:
            return None
        return ticket.admitted_at + ticket.request.deadline_seconds

    def _attempt_budget(self, deadline_at: Optional[float]) -> Optional[Budget]:
        if deadline_at is not None:
            remaining = max(0.0, deadline_at - self._clock())
            return Budget(deadline_seconds=remaining, clock=self._clock)
        if self._budget_factory is not None:
            return self._budget_factory()
        return None

    def _gate_breakers(self) -> Optional[CircuitOpenError]:
        """Consult every component breaker; first refusal wins.

        All-or-nothing: admitting a half-open breaker consumes one of its
        bounded probe slots, so a refusal by a *later* component must hand
        back every slot already taken — the attempt is not going to run,
        and a leaked slot would refuse probes forever (half-open breakers
        only release slots when an outcome is recorded).
        """
        admitted = []
        for component in BREAKER_COMPONENTS:
            breaker = self._breakers.breaker(component)
            if not breaker.allow():
                for earlier in admitted:
                    earlier.release_probe()
                return CircuitOpenError(component, breaker.retry_after())
            admitted.append(breaker)
        return None

    def _record_outcome(self, injected: Dict[str, int]) -> None:
        """Feed the breakers: implicated components failed, the rest
        succeeded."""
        trips_before = self._breakers.total_trips
        for component in BREAKER_COMPONENTS:
            breaker = self._breakers.breaker(component)
            if injected.get(component):
                breaker.record_failure()
            else:
                breaker.record_success()
        if (
            self._telemetry is not None
            and self._breakers.total_trips > trips_before
        ):
            self._telemetry.event("breaker_trip", injected=dict(injected))

    def _process(self, ticket: _Ticket, queue_wait: float) -> OptimizeResponse:
        request = ticket.request
        response = OptimizeResponse(
            request_id=request.request_id,
            status="failed",
            queue_wait_seconds=queue_wait,
        )
        deadline_at = self._deadline_at(ticket)
        # A request that waited out its whole deadline in the queue is
        # shed without burning a worker on a doomed optimization.
        if deadline_at is not None and self._clock() >= deadline_at:
            response.status = "timeout"
            response.error = (
                f"deadline ({request.deadline_seconds * 1000:.0f} ms) "
                "expired in the admission queue"
            )
            return response
        rng = self._retry.rng_for(request.seed)
        best_degraded: Optional[ResilientResult] = None
        last_error: Optional[BaseException] = None

        for attempt in range(self._retry.max_attempts):
            if deadline_at is not None and self._clock() >= deadline_at:
                break

            # Layer 1: breakers fast-fail while a component is sick.  The
            # wait loop is bounded but does not consume retry attempts —
            # an open breaker is the *service* protecting a component, not
            # this request failing, and the cooldown guarantees progress.
            refusal = self._gate_breakers()
            while refusal is not None:
                response.breaker_waits += 1
                last_error = refusal
                if self._telemetry is not None:
                    self._telemetry.event(
                        "breaker_open",
                        component=refusal.component,
                        retry_after=refusal.retry_after,
                    )
                if response.breaker_waits > self._breaker_wait_limit:
                    # Liveness backstop: proceed ungated.  Breakers shed
                    # load off a sick component; they must never starve a
                    # request out of an answer — past the limit (e.g. many
                    # workers losing the half-open probe-slot race under
                    # sustained faults) the attempt runs anyway, and the
                    # retry/degradation layers still guarantee a plan.
                    refusal = None
                    break
                delay = max(self._retry.base_delay, refusal.retry_after)
                if deadline_at is not None:
                    remaining = deadline_at - self._clock()
                    if remaining <= 0:
                        break
                    delay = min(delay, remaining)
                self._sleep(delay)
                refusal = self._gate_breakers()
            if refusal is not None:  # deadline expired inside the wait loop
                break
            response.attempts += 1

            # Layer 2: one resilient attempt, possibly chaos-armed.
            chaos = self._chaos(request, attempt) if self._chaos else None
            factory = self._cost_model_factory
            query = request.query
            cache = self._plan_cache
            if chaos is not None:
                factory = chaos.cost_model_factory(factory)
                query = chaos.wrap_query(query)
                cache = None  # injected faults must never touch the cache
            optimizer = ResilientOptimizer(
                cost_model_factory=factory,
                plan_cache=cache,
                topk=request.topk,
                **self._optimizer_kwargs,
            )
            budget = self._attempt_budget(deadline_at)
            guard = chaos if chaos is not None else nullcontext()
            attempt_span = (
                NULL_SPAN
                if self._telemetry is None
                else self._telemetry.span(
                    "attempt",
                    number=attempt,
                    chaos_armed=chaos is not None,
                )
            )
            try:
                with attempt_span, guard:
                    result = optimizer.optimize(query, budget=budget)
            except ReproError as error:
                injected = dict(chaos.injected) if chaos is not None else {}
                self._merge_injected(response, injected)
                transient = bool(injected) or self._retry.is_transient(error)
                # Always record, even with nothing injected: the gate may
                # have admitted half-open probes, and only an outcome
                # releases those slots (no component implicated == every
                # component succeeded).
                self._record_outcome(injected)
                last_error = error
                if not transient:
                    response.error = f"{type(error).__name__}: {error}"
                    return response
                if not self._backoff(attempt, rng, deadline_at, error):
                    break
                response.retries += 1
                continue

            injected = dict(chaos.injected) if chaos is not None else {}
            self._merge_injected(response, injected)

            if result.degraded and injected:
                # The ladder rescued an injected failure — a *transient*
                # condition.  Keep the validated degraded plan as a
                # fallback, tell the breakers, and retry for exact.
                attempt_span.set(outcome="degraded_retry", rung=result.rung)
                self._record_outcome(injected)
                best_degraded = result
                last_error = ResilienceError(
                    f"degraded to {result.rung} under injected faults "
                    f"{injected}"
                )
                if not self._backoff(attempt, rng, deadline_at, last_error):
                    break
                response.retries += 1
                continue

            # Success: exact, or organically degraded (permanent cause —
            # retrying would just re-run the same budget into the ground).
            attempt_span.set(outcome="ok", rung=result.rung)
            self._record_outcome(injected)
            return self._fill_ok(response, result, request)

        if best_degraded is not None:
            return self._fill_ok(response, best_degraded, request)
        if deadline_at is not None and self._clock() >= deadline_at:
            response.status = "timeout"
            response.error = (
                f"deadline ({request.deadline_seconds * 1000:.0f} ms) "
                f"exceeded after {response.attempts} attempt(s)"
            )
            return response
        exhausted = RetriesExhaustedError(response.attempts, last_error)
        response.error = str(exhausted)
        return response

    @staticmethod
    def _merge_injected(
        response: OptimizeResponse, injected: Dict[str, int]
    ) -> None:
        for point, count in injected.items():
            response.injected[point] = response.injected.get(point, 0) + count

    def _fill_ok(
        self,
        response: OptimizeResponse,
        result: ResilientResult,
        request: OptimizeRequest,
    ) -> OptimizeResponse:
        response.status = "ok"
        response.plan = result.plan
        response.cost = result.cost
        response.rung = result.rung
        response.degraded = result.degraded
        response.result = result
        response.error = None
        if request.topk > 1:
            ranked = result.ranked
            response.ranked_costs = tuple(plan.cost for plan in ranked)
            if self._telemetry is not None:
                self._telemetry.registry.counter(
                    "repro_topk_requests_total",
                    "Requests served with topk > 1, by retained depth.",
                    labels={"served": str(len(ranked))},
                ).inc()
            # Breaker-suspect fallback: with the cost-model breaker not
            # closed, rank 1 — the plan most finely tuned to the suspect
            # model's numbers — is re-served as the structurally different
            # runner-up, when one was retained.  Opt-in via topk > 1 only;
            # a deliberate, documented deviation from plan = f(query, seed).
            suspect = (
                self._breakers.breaker("cost_model").state != "closed"
            )
            if suspect and len(ranked) > 1:
                response.plan = ranked[1]
                response.cost = ranked[1].cost
                response.rank = 2
                if self._telemetry is not None:
                    self._telemetry.registry.counter(
                        "repro_topk_fallback_total",
                        "Rank-2 plans served because the cost-model "
                        "breaker was open at response time.",
                    ).inc()
                    self._telemetry.event(
                        "topk_breaker_fallback",
                        request_id=request.request_id,
                        rank=2,
                    )
        return response

    def _backoff(
        self,
        attempt: int,
        rng,
        deadline_at: Optional[float],
        error: BaseException,
    ) -> bool:
        """Sleep before the next attempt; False when no attempt remains."""
        if attempt + 1 >= self._retry.max_attempts:
            return False
        delay = self._retry.delay(attempt + 1, rng)
        if isinstance(error, CircuitOpenError):
            # No point probing before the breaker can move to half-open.
            delay = max(delay, error.retry_after)
        if deadline_at is not None:
            remaining = deadline_at - self._clock()
            if remaining <= 0:
                return False
            delay = min(delay, remaining)
        self._sleep(delay)
        return True

    def __repr__(self) -> str:
        with self._lock:
            state = self._state
        # The queue repr takes the queue's own lock; format it outside
        # ours so the two locks are never nested.
        return (
            f"OptimizationService(workers={self._n_workers}, "
            f"queue={self._queue!r}, state={state})"
        )
