"""Chaos soak driver: ``python -m repro.service.soak``.

One driver, :func:`run_soak`, pushes a mixed chain/star/clique workload
through a :class:`Target` for N seconds: an in-process
:class:`~repro.service.OptimizationService` (``--shards 0``) or a
:class:`~repro.service.sharded.ShardedService` of N shard processes,
where ``--kill-shards K`` SIGKILLs a seeded-random live shard K times.
In both, a seeded :class:`ChaosPlant` poisons a fraction of attempts
(cost-model raise/NaN/Inf, catalog loss, latency) as a pure function of
``(seed, request seed, attempt)``, whatever the thread interleaving.

The run then asserts one contract: every accepted request resolved in
time (else it is *lost*) to a validated, finite plan; no worker died;
every exact plan is **bit-identical** (s-expression and cost ``repr``)
to a single-threaded, chaos-disarmed replay; and every scheduled kill
was delivered and shows in the cluster ``healthz()``.  With
``--store-dir`` / ``--kill-during-write`` the shards append to a durable
plan store (killed mid-append), and the run also asserts zero corrupt
replays after recovery, warm hits bit-identical to cold optimization,
and fail-open (armed = disarmed plans) for every store fault kind.

Exit status is 0 iff every assertion holds; the CI ``soak-smoke``,
``shard-chaos-smoke`` and ``cache-durability-smoke`` jobs key on it.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import random
import sys
import tempfile
import threading
import time
from collections import Counter, deque
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FuturesTimeoutError
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.bench.harness import FailureCounts
from repro.context.plancache import PlanCache
from repro.context.store import atomic_write_text
from repro.cost.model import CostModel
from repro.errors import ReproError, ServiceOverloadError
from repro.plans.join_tree import JoinTree
from repro.plans.validation import check_finite, validate_plan
from repro.query import Query
from repro.resilience.faults import FaultInjector
from repro.resilience.optimizer import ResilientOptimizer
from repro.service.server import (
    OptimizationService,
    OptimizeRequest,
    OptimizeResponse,
)
from repro.service.sharded.service import ShardedService
from repro.service.sharded.shard import shard_breakers, shard_retry_policy
from repro.telemetry import MetricRegistry, Telemetry, Tracer, TraceSink
from repro.telemetry.summary import summarize_spans
from repro.workload.generator import QueryGenerator

__all__ = [
    "ChaosPlant",
    "ChaosAttempt",
    "SoakRecord",
    "SoakReport",
    "Target",
    "build_query_pool",
    "run_soak",
    "main",
]

#: Fault kinds the plant draws from: the three cost-model corruption
#: modes, catalog statistics loss, and injected latency.
CHAOS_KINDS = ("raise", "nan", "inf", "catalog", "latency")

#: A ``latency`` attempt delays each call site it fires on by this long,
#: and fires on this share of call sites.
CHAOS_LATENCY_SECONDS = 0.002
CHAOS_LATENCY_RATE = 0.05


class ChaosAttempt:
    """One poisoned attempt: a seeded injector plus the chosen fault kind.

    Implements the :class:`~repro.service.server.AttemptChaos` protocol.
    """

    def __init__(self, injector: FaultInjector, kind: str):
        self._injector = injector
        self.kind = kind

    @property
    def injected(self) -> Dict[str, int]:
        return self._injector.injected

    def cost_model_factory(
        self, base: Callable[[], CostModel]
    ) -> Callable[[], CostModel]:
        if self.kind == "catalog":
            return base
        return self._injector.cost_model_factory(base, self.kind)

    def wrap_query(self, query: Query) -> Query:
        if self.kind == "catalog":
            return self._injector.query(query)
        return query

    def __enter__(self) -> "ChaosAttempt":
        self._injector.arm()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._injector.disarm()
        return False

    def __repr__(self) -> str:
        return f"ChaosAttempt(kind={self.kind!r}, {self._injector!r})"


class ChaosPlant:
    """Seeded per-attempt fault scheduler (the service's ``chaos`` hook).

    For every ``(request, attempt)`` pair one seeded draw decides whether
    the attempt is poisoned (probability ``rate``) and with which fault
    kind.  The decision depends only on the request's seed and the attempt
    number — never on wall time or thread identity — so a fixed service
    seed yields an identical fault schedule on every run.

    ``latency`` attempts fire sparsely (:data:`CHAOS_LATENCY_RATE` per
    call site) and delay rather than corrupt; the other kinds fire on every eligible
    call after a seeded warm-up, guaranteeing the attempt actually
    exercises the failure path.
    """

    def __init__(
        self,
        seed: int = 0,
        rate: float = 0.3,
        kinds: Sequence[str] = CHAOS_KINDS,
        sleep: Callable[[float], None] = time.sleep,
    ):
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1], got {rate}")
        unknown = set(kinds) - set(CHAOS_KINDS)
        if unknown:
            raise ValueError(f"unknown chaos kinds: {sorted(unknown)}")
        self.seed = seed
        self.rate = rate
        self.kinds = tuple(kinds)
        self._sleep = sleep
        #: kind -> number of poisoned attempts scheduled (diagnostics).
        #: Updated from every worker thread, hence the lock.
        self.scheduled: Dict[str, int] = {}
        self._scheduled_lock = threading.Lock()

    def __call__(
        self, request: OptimizeRequest, attempt: int
    ) -> Optional[ChaosAttempt]:
        rng = random.Random(
            request.seed * 2_654_435_761 + attempt * 40_503 + self.seed
        )
        if rng.random() >= self.rate:
            return None
        kind = self.kinds[rng.randrange(len(self.kinds))]
        with self._scheduled_lock:
            self.scheduled[kind] = self.scheduled.get(kind, 0) + 1
        injector = FaultInjector(
            seed=rng.randrange(2**31),
            rate=CHAOS_LATENCY_RATE if kind == "latency" else 1.0,
            after=rng.randrange(16),
            latency_seconds=CHAOS_LATENCY_SECONDS,
            sleep=self._sleep,
        )
        return ChaosAttempt(injector, kind)

    def __repr__(self) -> str:
        with self._scheduled_lock:
            scheduled = dict(self.scheduled)
        return (
            f"ChaosPlant(seed={self.seed}, rate={self.rate}, "
            f"kinds={self.kinds}, scheduled={scheduled})"
        )


# ---------------------------------------------------------------------------


def build_query_pool(
    seed: int,
    pool_size: int = 12,
    families: Sequence[str] = ("chain", "star", "clique"),
    min_relations: int = 5,
    max_relations: int = 9,
) -> List[Tuple[str, Query]]:
    """A deterministic mixed-family pool of queries, cycled by the soak."""
    if pool_size < 1:
        raise ValueError(f"pool_size must be >= 1, got {pool_size}")
    if min_relations > max_relations:
        raise ValueError("min_relations must be <= max_relations")
    rng = random.Random(seed)
    pool = []
    for index in range(pool_size):
        family = families[index % len(families)]
        n = rng.randint(min_relations, max_relations)
        qseed = rng.randrange(2**31)
        query = QueryGenerator(seed=qseed).generate(family, n)
        pool.append((f"{family}-{n}@{qseed}", query))
    return pool



@dataclass
class SoakRecord:
    """The compact per-request outcome the soak keeps (plans are validated
    and compared eagerly, then dropped, so memory stays flat)."""

    request_id: int
    pool_key: str
    #: A response status; ``"lost"`` / ``"failed"`` when the future never
    #: resolved / raised.
    status: str
    rung: str = ""
    degraded: bool = False
    attempts: int = 0
    retries: int = 0
    breaker_waits: int = 0
    injected: int = 0
    #: Who answered: a shard id, ``"fallback"`` when the response names no
    #: shard, ``""`` when nothing answered.
    served_by: str = ""
    plan_sexpr: str = ""
    cost_repr: str = ""
    valid: bool = False
    error: Optional[str] = None


#: Breaker transitions :meth:`SoakReport.describe` prints: the most recent
#: ones.  A chaos soak trips and re-closes breakers hundreds of times; the
#: full trace stays in the JSON report.
BREAKER_TRACE_TAIL = 5


@dataclass
class SoakReport:
    """Everything one soak run observed, JSON-ready.

    Sections a run does not produce stay ``None``: ``kills``, ``cluster``
    and ``store`` come from cluster runs (``store`` with a store
    directory only), ``breakers`` and ``plan_cache`` from in-process
    runs, ``span_summary`` from runs with a tracing-armed telemetry
    bundle.
    """

    seconds: float
    seed: int
    rate: float
    #: Worker threads per serving process (the service, or each shard).
    workers: int
    shards: int = 0
    kills_requested: int = 0
    submitted: int = 0
    accepted: int = 0
    rejected: int = 0
    completed: int = 0
    failed: int = 0
    timeouts: int = 0
    #: Accepted requests whose future never resolved.
    lost: int = 0
    invalid_plans: int = 0
    replay_checked: int = 0
    replay_mismatches: int = 0
    degraded_responses: int = 0
    unhandled_worker_errors: int = 0
    retries: int = 0
    breaker_trips: int = 0
    injected_faults: int = 0
    failovers: int = 0
    respawns: int = 0
    fallback_served: int = 0
    wire_errors: int = 0
    scheduled_chaos: Dict[str, int] = field(default_factory=dict)
    rung_histogram: Dict[str, int] = field(default_factory=dict)
    #: Responses per serving shard (``"fallback"`` = the front-end lane).
    shard_histogram: Dict[str, int] = field(default_factory=dict)
    breaker_trace: List[str] = field(default_factory=list)
    breakers: Optional[Dict[str, Dict[str, object]]] = None
    plan_cache: Optional[Dict[str, object]] = None
    #: One entry per SIGKILL delivered: elapsed seconds, shard id, pid.
    kills: Optional[List[Dict[str, object]]] = None
    cluster: Optional[Dict[str, object]] = None
    #: Durable-store verdicts: per-segment recovery, corrupt replays,
    #: warm-vs-cold bit-identity, per-fault-kind fail-open.
    store: Optional[Dict[str, object]] = None
    span_summary: Optional[Dict[str, Dict[str, Dict[str, float]]]] = None
    violations: List[str] = field(default_factory=list)

    #: JSON groups of scalar fields; the ``_SECTIONS`` are keys of their own.
    _GROUPS = {
        "config": (
            "seconds", "seed", "rate", "workers", "shards", "kills_requested",
        ),
        "requests": (
            "submitted", "accepted", "rejected", "completed", "failed",
            "timeouts", "lost",
        ),
        "validation": (
            "invalid_plans", "replay_checked", "replay_mismatches",
            "degraded_responses", "unhandled_worker_errors",
        ),
        "resilience": (
            "failovers", "respawns", "fallback_served", "wire_errors",
        ),
    }
    _SECTIONS = (
        "rung_histogram", "shard_histogram", "breaker_trace", "breakers",
        "plan_cache", "kills", "cluster", "store", "span_summary",
        "violations",
    )

    @property
    def passed(self) -> bool:
        return not self.violations

    def as_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {"passed": self.passed}
        for group, names in self._GROUPS.items():
            payload[group] = {name: getattr(self, name) for name in names}
        payload["failures"] = FailureCounts(
            timeouts=self.timeouts,
            errors=self.failed,
            degraded=self.degraded_responses,
            retries=self.retries,
            breaker_trips=self.breaker_trips,
        ).as_dict()
        payload["chaos"] = {
            "scheduled": dict(self.scheduled_chaos),
            "injected_faults": self.injected_faults,
        }
        payload.update((name, getattr(self, name)) for name in self._SECTIONS)
        return payload

    def describe(self) -> str:
        payload = self.as_dict()
        lines = [
            f"{'sharded soak' if self.shards else 'soak'} "
            f"{'PASSED' if self.passed else 'FAILED'}: {self.seconds:.0f}s, "
            f"seed={self.seed}, rate={self.rate}, workers={self.workers}, "
            f"shards={self.shards}, {len(self.kills or ())}/"
            f"{self.kills_requested} kills delivered",
        ]
        for group in ("requests", "validation", "resilience"):
            counts = ", ".join(
                f"{value} {name.replace('_', ' ')}"
                for name, value in payload[group].items()
            )
            lines.append(f"{group:<11}: {counts}")
        lines += [
            f"chaos      : {self.injected_faults} faults injected "
            f"({self.scheduled_chaos}), {self.retries} retries, "
            f"{self.breaker_trips} breaker trips",
            f"rungs      : {self.rung_histogram}",
            f"shards     : {self.shard_histogram}",
        ]
        store = self.store
        if store is not None:
            lines.append(
                f"store      : {store['entries']} entries recovered from "
                f"{len(store['segments'])} file(s), "
                f"{store['corrupt_replays']} corrupt replays, "
                f"{store['quarantined_records']} quarantined, "
                f"{store['warm_l2_hits']}/{store['warm_checked']} warm L2 "
                f"hits ({store['warm_mismatches']} mismatches), fail-open "
                f"certified for {len(store['fail_open'])} fault kind(s)"
            )
        lines.extend(
            f"  kill @{kill['elapsed']:.1f}s: shard {kill['shard']} "
            f"(pid {kill['pid']})"
            for kill in self.kills or ()
        )
        trace = self.breaker_trace
        if trace:
            tail = trace[-BREAKER_TRACE_TAIL:]
            lines.append(
                f"breaker trace: {len(trace)} transition(s), last {len(tail)} "
                "shown (the JSON report has all):"
            )
            lines.extend(f"  {entry}" for entry in tail)
        if self.violations:
            lines.append("violations:")
            lines.extend(f"  {entry}" for entry in self.violations)
        return "\n".join(lines)


# ---------------------------------------------------------------------------

#: A plan's bit-identity: its s-expression and the ``repr`` of its cost.
PlanBits = Tuple[str, str]


def _plan_bits(plan: JoinTree, cost: float) -> PlanBits:
    """The one key every soak bit-identity check compares."""
    return plan.sexpr(), repr(cost)


def _diverged(got: Dict, want: Dict) -> List:
    """The keys whose :data:`PlanBits` in ``got`` differ from ``want``."""
    # Bit-exact by design: repr strings, not floats — any epsilon would
    # hide a determinism regression.
    return [
        key
        for key, (sexpr, cost_repr) in got.items()
        if (sexpr, cost_repr) != want[key]  # repro: disable=no-float-cost-eq
    ]


def _replay(
    pool: Sequence[Tuple[str, Query]],
    optimizer: Optional[ResilientOptimizer] = None,
) -> Dict[str, PlanBits]:
    """The oracle: pool key -> plan bits, one query at a time.

    The default optimizer is single-threaded, chaos-disarmed and has no
    plan cache; :func:`_verify_store` passes ones over a store.
    """
    if optimizer is None:
        optimizer = ResilientOptimizer()
    bits: Dict[str, PlanBits] = {}
    for key, query in pool:
        result = optimizer.optimize(query)
        bits[key] = _plan_bits(result.plan, result.cost)
    return bits


def _validate_response(
    record: SoakRecord, response: OptimizeResponse, query: Query
) -> None:
    """Eagerly validate one response's plan against its clean query."""
    record.status = response.status
    record.rung = response.rung
    record.degraded = response.degraded
    record.attempts = response.attempts
    record.retries = response.retries
    record.breaker_waits = response.breaker_waits
    record.injected = sum(response.injected.values())
    shard = response.shard
    record.served_by = "fallback" if shard is None else str(shard)
    record.error = response.error
    if not response.ok:
        return
    try:
        check_finite(response.plan)
        validate_plan(response.plan, query)
    except Exception as error:  # record, never crash the soak
        record.valid = False
        record.error = f"invalid plan: {type(error).__name__}: {error}"
        return
    record.valid = True
    record.plan_sexpr, record.cost_repr = _plan_bits(
        response.plan, response.cost
    )


# ---------------------------------------------------------------------------


class Target:
    """What :func:`run_soak` drives: a serving system plus its own chaos.

    The driver enters the target, calls :meth:`tick` before every
    submission and once with ``final=True`` after the last, drains every
    future, calls :meth:`observe` while the target still runs and
    :meth:`verify` once it has stopped.  The defaults here serve through
    ``self.service`` (anything with ``start``, ``submit`` and context
    exit) and add no chaos or checks of their own; a test substitutes a
    fake by overriding them.
    """

    service = None

    def __enter__(self) -> "Target":
        self.service.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return self.service.__exit__(exc_type, exc, tb)

    def submit(self, query: Query, priority: int) -> "Future[OptimizeResponse]":
        """Admit one request; raise ``ServiceOverloadError`` to shed it."""
        return self.service.submit(query, priority=priority)

    def tick(self, final: bool = False) -> None:
        """Deliver the target's due chaos (all that is left if final)."""

    def observe(self, report: SoakReport, records: Sequence[SoakRecord]) -> None:
        """Fill the report's target sections from the running target."""

    def verify(self, report: SoakReport, pool: Sequence[Tuple[str, Query]]) -> None:
        """Append the checks that need the target stopped."""


class _ServiceTarget(Target):
    """The in-process target: one service, its attempts chaos-armed.

    ``config`` is the run's report, read for seed, rate and workers.
    """

    def __init__(
        self,
        config: SoakReport,
        queue_capacity: int,
        telemetry: Optional[Telemetry],
    ):
        self.plant = ChaosPlant(seed=config.seed, rate=config.rate)
        self.service = OptimizationService(
            workers=config.workers,
            queue_capacity=queue_capacity,
            retry_policy=shard_retry_policy(),
            breakers=shard_breakers(),
            plan_cache=PlanCache(256),
            chaos=self.plant,
            seed=config.seed,
            telemetry=telemetry,
        )

    def observe(self, report: SoakReport, records: Sequence[SoakRecord]) -> None:
        health = self.service.healthz()
        report.unhandled_worker_errors = health.unhandled_worker_errors
        report.breaker_trips = health.breaker_trips
        report.scheduled_chaos = dict(self.plant.scheduled)
        report.breaker_trace = self.service.breakers.trace()
        report.breakers = self.service.breakers.snapshot()
        report.plan_cache = health.plan_cache
        if health.workers_alive != health.workers_total:
            report.violations.append(
                f"only {health.workers_alive}/{health.workers_total} "
                "workers survived"
            )


class _ClusterTarget(Target):
    """The cluster target: a sharded service plus seeded shard kills.

    ``config`` is the run's report, read for seconds, seed, rate, shards,
    workers and kills.  The kills are spaced evenly over the run; each
    picks a seeded-random live shard, so a seed fixes the schedule
    (modulo which shards are alive when a kill falls due).  ``store_dir``
    gives every shard a durable store segment and has :meth:`verify` run
    :func:`_verify_store`; ``kill_during_write`` holds each kill until a
    shard has a record on disk, so the crash path is productive.
    """

    def __init__(
        self,
        config: SoakReport,
        queue_capacity: int,
        store_dir: Optional[str],
        kill_during_write: bool,
        progress: Optional[Callable[[str], None]],
        telemetry: Optional[Telemetry],
    ):
        kills = config.kills_requested
        if kill_during_write and store_dir is None:
            raise ValueError("kill_during_write requires store_dir")
        if kill_during_write and kills <= 0:
            raise ValueError("kill_during_write requires kill_shards > 0")
        if telemetry is None:
            # A registry puts the repro_shard_* series into the report's
            # cluster section.
            telemetry = Telemetry(registry=MetricRegistry(enabled=True))
        self.service = ShardedService(
            shards=config.shards,
            workers_per_shard=config.workers,
            shard_queue_capacity=queue_capacity,
            seed=config.seed,
            chaos_rate=config.rate,
            store_dir=store_dir,
            telemetry=telemetry,
        )
        self._store_dir = store_dir
        self._kill_during_write = kill_during_write
        self._progress = progress
        self._kill_rng = random.Random(config.seed * 9_176 + 4_242)
        self._kill_times = [
            (index + 1) * config.seconds / (kills + 1) for index in range(kills)
        ]
        self._kills: List[Dict[str, object]] = []
        # Built just before the run starts: the kill schedule's origin.
        self._started = time.perf_counter()

    def tick(self, final: bool = False) -> None:
        while self._kill_times and (
            final
            or time.perf_counter() - self._started >= self._kill_times[0]
        ):
            # Kill-during-write holds a kill until a shard has appended;
            # the final ones wait a moment for that, then go regardless.
            written = not self._kill_during_write or self._store_written(
                patience=5.0 if final else 0.0
            )
            if not (written or final):
                return
            self._kill_times.pop(0)
            self._kill_one()

    def _kill_one(self) -> None:
        """SIGKILL one seeded-random live shard (none alive: no kill)."""
        shards = self.service.healthz().shards
        victims = [status.shard_id for status in shards if status.alive]
        if not victims:
            return
        victim = victims[self._kill_rng.randrange(len(victims))]
        pid = self.service.kill_shard(victim)
        elapsed = time.perf_counter() - self._started
        self._kills.append({"elapsed": elapsed, "shard": victim, "pid": pid})
        if self._progress is not None:
            self._progress(f"{elapsed:.1f}s: SIGKILL shard {victim} (pid {pid})")

    def _store_written(self, patience: float) -> bool:
        """Whether a shard segment holds a decodeable record, polling for
        up to ``patience`` seconds (a kill before anything reached disk
        would leave recovery nothing to protect)."""
        from repro.context.store import DurableStore

        deadline = time.perf_counter() + patience
        pattern = os.path.join(self._store_dir, "shard-*.rpl")
        while True:
            for path in sorted(glob.glob(pattern)):
                try:
                    with DurableStore(path, writable=False, fsync=False) as seg:
                        if seg.report.entries_replayed:
                            return True
                except (ReproError, OSError):  # repro: disable=no-silent-fallback
                    continue  # mid-write segment poll; the next one retries
            if time.perf_counter() >= deadline:
                return False
            time.sleep(0.05)

    def observe(self, report: SoakReport, records: Sequence[SoakRecord]) -> None:
        health = self.service.healthz()
        # Kills delivered after the last request race the supervisor's
        # monitor tick; give it a moment to notice the deaths before
        # the snapshot, or the respawn count reads as a (false) miss.
        settle_deadline = time.perf_counter() + 5.0
        while (
            self._kills
            and not (health.respawns or health.fallback_served)
            and time.perf_counter() < settle_deadline
        ):
            time.sleep(0.05)
            health = self.service.healthz()
        report.kills = list(self._kills)
        report.failovers = health.failovers
        report.respawns = health.respawns
        report.fallback_served = health.fallback_served
        report.wire_errors = health.wire_errors
        served = Counter(r.served_by for r in records if r.served_by)
        report.shard_histogram = dict(sorted(served.items()))
        report.cluster = health.as_dict()

    def verify(self, report: SoakReport, pool: Sequence[Tuple[str, Query]]) -> None:
        if self._store_dir is not None:
            _verify_store(
                report, self._store_dir, pool, self._kill_during_write,
                self._progress,
            )


# ---------------------------------------------------------------------------


def run_soak(
    seconds: float = 30.0,
    seed: int = 7,
    rate: float = 0.3,
    shards: int = 0,
    workers: int = 4,
    queue_capacity: int = 64,
    pool_size: int = 12,
    families: Sequence[str] = ("chain", "star", "clique"),
    min_relations: int = 5,
    max_relations: int = 9,
    kill_shards: int = 0,
    store_dir: Optional[str] = None,
    kill_during_write: bool = False,
    replay: bool = True,
    max_requests: Optional[int] = None,
    resolve_timeout: float = 120.0,
    progress: Optional[Callable[[str], None]] = None,
    telemetry: Optional[Telemetry] = None,
    target: Optional[Target] = None,
) -> SoakReport:
    """Run the chaos soak and return its :class:`SoakReport`.

    ``shards=0`` soaks an in-process service of ``workers`` threads,
    ``shards=N`` N shard processes of ``workers`` threads each, which
    ``kill_shards``, ``store_dir`` and ``kill_during_write`` then apply
    to; ``target`` replaces the target these arguments would build.  A
    future unresolved after ``resolve_timeout`` counts as *lost*, one
    that raises as failed.  ``max_requests`` also bounds submissions
    (for fast tests).  ``telemetry`` arms the target's spans and metrics
    while the replay stays disarmed, so a passing soak also certifies
    that armed and disarmed optimization choose bit-identical plans.
    """
    pool = build_query_pool(
        seed,
        pool_size=pool_size,
        families=families,
        min_relations=min_relations,
        max_relations=max_relations,
    )
    queries = dict(pool)
    report = SoakReport(
        seconds=seconds,
        seed=seed,
        rate=rate,
        workers=workers,
        shards=shards,
        kills_requested=kill_shards,
    )
    if target is None and shards > 0:
        target = _ClusterTarget(
            report, queue_capacity, store_dir, kill_during_write, progress,
            telemetry,
        )
    elif target is None:
        target = _ServiceTarget(report, queue_capacity, telemetry)
    records: List[SoakRecord] = []
    pending: "deque[Tuple[SoakRecord, Future]]" = deque()

    def drain(block: bool) -> None:
        while pending:
            record, future = pending[0]
            if not block and not future.done():
                return
            pending.popleft()
            try:
                response = future.result(timeout=resolve_timeout)
            except FuturesTimeoutError:
                # The hard failure the contract exists to catch: an
                # accepted request nobody will ever answer.
                record.status = "lost"
                record.error = f"future unresolved after {resolve_timeout:.0f}s"
            except Exception as error:
                # Resolved, not lost — but still counted against the run.
                record.status = "failed"
                record.error = f"{type(error).__name__}: {error}"
            else:
                _validate_response(record, response, queries[record.pool_key])
            records.append(record)

    started = time.perf_counter()
    index = 0
    with target:
        while time.perf_counter() - started < seconds:
            if max_requests is not None and index >= max_requests:
                break
            target.tick()
            key, query = pool[index % len(pool)]
            report.submitted += 1
            try:
                future = target.submit(query, priority=index % 3)
            except ServiceOverloadError:
                report.rejected += 1
                drain(block=False)
                time.sleep(0.001)
            else:
                report.accepted += 1
                pending.append(
                    (SoakRecord(request_id=index, pool_key=key, status=""), future)
                )
            index += 1
            if len(pending) >= queue_capacity:
                drain(block=False)
            if progress is not None and index % 200 == 0:
                progress(
                    f"{time.perf_counter() - started:.0f}s: {index} "
                    f"submitted, {len(records)} completed"
                )
        # Short (--max-requests) runs still exercise every kill asked for.
        target.tick(final=True)
        drain(block=True)
        target.observe(report, records)

    # -- aggregate ------------------------------------------------------
    statuses = Counter(record.status for record in records)
    report.completed = statuses["ok"]
    report.failed = statuses["failed"]
    report.timeouts = statuses["timeout"]
    report.lost = statuses["lost"]
    report.invalid_plans = sum(
        1 for r in records if r.status == "ok" and not r.valid
    )
    report.degraded_responses = sum(1 for r in records if r.degraded)
    report.retries = sum(r.retries for r in records)
    report.injected_faults = sum(r.injected for r in records)
    report.rung_histogram = dict(Counter(r.rung for r in records if r.rung))
    if telemetry is not None and telemetry.tracer is not None:
        report.span_summary = summarize_spans(
            telemetry.tracer.finished_spans()
        )

    # -- replay: single-threaded, chaos disarmed, bit-identical ---------
    if replay:
        clean = _replay(pool)
        checked = [
            r for r in records if r.status == "ok" and r.valid and not r.degraded
        ]
        wrong = _diverged(
            {i: (r.plan_sexpr, r.cost_repr) for i, r in enumerate(checked)},
            {i: clean[r.pool_key] for i, r in enumerate(checked)},
        )
        report.replay_checked = len(checked)
        report.replay_mismatches = len(wrong)
        for i in wrong[:20]:
            record = checked[i]
            want_sexpr, want_cost = clean[record.pool_key]
            report.violations.append(
                f"replay mismatch for request#{record.request_id} "
                f"({record.pool_key}): got {record.plan_sexpr} "
                f"@ {record.cost_repr}, want {want_sexpr} @ {want_cost}"
            )

    _verdicts(report, records)
    target.verify(report, pool)
    return report


def _verdicts(report: SoakReport, records: Sequence[SoakRecord]) -> None:
    """Turn the aggregated counts into the run's violations."""
    kills = len(report.kills or ())
    for broken, violation in (
        (report.lost, f"{report.lost} accepted request(s) never resolved "
         "(lost)"),
        (report.failed, f"{report.failed} accepted request(s) failed "
         "without a plan"),
        (report.timeouts, f"{report.timeouts} accepted request(s) timed out"),
        (report.invalid_plans, f"{report.invalid_plans} returned plan(s) "
         "failed validation"),
        (report.unhandled_worker_errors, f"{report.unhandled_worker_errors} "
         "unhandled worker exception(s)"),
        (kills < report.kills_requested, f"only {kills}/"
         f"{report.kills_requested} scheduled shard kills were delivered"),
        (kills and not (report.respawns or report.fallback_served),
         "shards were killed but neither a respawn nor a fallback serve is "
         "visible in cluster healthz"),
    ):
        if broken:
            report.violations.append(violation)
    for record in records:
        if record.status == "failed" and len(report.violations) < 20:
            report.violations.append(
                f"  request#{record.request_id} ({record.pool_key}): "
                f"{record.error} after {record.attempts} attempt(s), "
                f"{record.breaker_waits} breaker wait(s)"
            )


def _verify_store(
    report: SoakReport,
    store_dir: str,
    pool: Sequence[Tuple[str, Query]],
    kill_during_write: bool,
    progress: Optional[Callable[[str], None]] = None,
) -> None:
    """Post-run durable-store contract checks (``--store-dir`` runs).

    * **zero corrupt replays** — every segment (and the snapshot, if
      present) re-opens through :class:`DurableStore` recovery (torn
      tails truncated, CRC mismatches quarantined), and every record
      recovery replays must decode: one that passes the CRC but fails
      decode escaped the frame check.
    * **warm hits bit-identical to cold** — a :class:`TieredPlanCache`
      warmed from the merged records serves every pool query with the
      plan bits a cache-less optimizer computes.
    * **fail-open certification** — per store fault kind, an optimizer
      over a fault-armed store chooses the plans it chooses disarmed.
    """
    from repro.context.store import DurableStore, TieredPlanCache, decode_entry
    from repro.resilience.faults import STORE_FAULT_KINDS, StoreFaultInjector

    paths = sorted(glob.glob(os.path.join(store_dir, "shard-*.rpl")))
    snapshot_path = os.path.join(store_dir, "snapshot.rpl")
    if os.path.exists(snapshot_path):
        paths.insert(0, snapshot_path)
    merged: Dict[str, Dict[str, object]] = {}
    segments: List[Dict[str, object]] = []
    corrupt: List[str] = []
    for path in paths:
        store = DurableStore(path, writable=False)
        undecodable = len(corrupt)
        for key, record in store.records.items():
            try:
                decode_entry(record)
            except ReproError as error:
                corrupt.append(
                    f"store segment {os.path.basename(path)} replayed a "
                    f"corrupt record for {key!r}: {error}"
                )
            else:
                merged[key] = record
        segments.append(
            {
                "path": os.path.basename(path),
                "entries": len(store.records),
                "undecodable": len(corrupt) - undecodable,
                "recovery": store.report.as_dict(),
            }
        )
        store.close()
    summary: Dict[str, object] = {
        "store_dir": store_dir,
        "kill_during_write": kill_during_write,
        "segments": segments,
        "entries": len(merged),
        "corrupt_replays": len(corrupt),
        "quarantined_records": sum(
            seg["recovery"]["quarantined_records"] for seg in segments
        ),
        "torn_tails": sum(1 for seg in segments if seg["recovery"]["torn_tail"]),
    }
    report.violations.extend(corrupt[: max(0, 40 - len(report.violations))])
    if corrupt:
        report.violations.append(
            f"{len(corrupt)} corrupt store record(s) survived recovery "
            "and would have been replayed"
        )
    if kill_during_write and not merged:
        report.violations.append(
            "kill-during-write soak recovered zero store entries: the "
            "crash-during-append path was never exercised"
        )

    # Warm-vs-cold bit-identity over the merged recovered state.  The
    # warm optimizer is built exactly as the serving tier builds its own
    # (ResilientOptimizer over the cache), so cache keys line up.
    warm_cache = TieredPlanCache(
        capacity=max(64, 2 * len(merged)), warm_records=merged
    )
    warm = _replay(pool, ResilientOptimizer(plan_cache=warm_cache))
    cold = _replay(pool)
    warm_mismatches = _diverged(warm, cold)
    for key in warm_mismatches:
        if len(report.violations) < 40:
            report.violations.append(
                f"warm store hit for pool query {key!r} is not "
                f"bit-identical to cold optimization: got "
                f"{' @ '.join(warm[key])}, want {' @ '.join(cold[key])}"
            )
    summary["warm_checked"] = len(pool)
    summary["warm_l2_hits"] = warm_cache.l2_hits
    summary["warm_mismatches"] = len(warm_mismatches)
    if warm_mismatches:
        report.violations.append(
            f"{len(warm_mismatches)} warm store hit(s) diverged from cold "
            "optimization"
        )
    if kill_during_write and merged and warm_cache.l2_hits == 0:
        report.violations.append(
            "recovered store entries never produced a warm L2 hit for "
            "the query pool: the warm-start path went unexercised"
        )
    warm_cache.close()

    # Fail-open certification: per fault kind, a fault-armed store must
    # not change plan choice relative to the identical disarmed setup.
    fail_open: Dict[str, Dict[str, object]] = {}
    cert_pool = list(pool)[:3]
    for offset, kind in enumerate(STORE_FAULT_KINDS):
        runs: Dict[bool, Dict[str, PlanBits]] = {}
        for armed in (False, True):
            label = "armed" if armed else "disarmed"
            path = os.path.join(store_dir, f".failopen-{kind}-{label}.rpl")
            injector = StoreFaultInjector(
                seed=report.seed * 131 + offset, rate=1.0, kind=kind
            )
            cache = TieredPlanCache.open(path, fault_injector=injector)
            if armed:
                injector.arm()
            runs[armed] = _replay(
                cert_pool, ResilientOptimizer(plan_cache=cache)
            )
            cache.close()
            injector.disarm()
            for leftover in (path, path + ".quarantine", path + ".stale"):
                if os.path.exists(leftover):
                    os.unlink(leftover)
        # ``injector`` is the armed run's.
        mismatches = len(_diverged(runs[True], runs[False]))
        if mismatches:
            report.violations.append(
                f"store fault kind {kind!r}: armed run produced "
                f"{mismatches} plan(s) not bit-identical to the "
                "disarmed run (fail-open broken)"
            )
        if injector.total_injected == 0:
            report.violations.append(
                f"store fault kind {kind!r}: armed injector never "
                "fired, certification is vacuous"
            )
        fail_open[kind] = {
            "injected": injector.total_injected,
            "mismatches": mismatches,
            "certified": mismatches == 0 and injector.total_injected > 0,
        }
    summary["fail_open"] = fail_open
    report.store = summary
    if progress is not None:
        progress(
            f"store: {len(merged)} entries recovered from {len(paths)} "
            f"file(s), {len(corrupt)} corrupt replays, "
            f"{summary['warm_l2_hits']} warm L2 hits"
        )


# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service.soak",
        description="Chaos soak for the optimization service, in-process "
        "or sharded: mixed workload, seeded fault injection, validation "
        "and replay determinism checks.",
    )
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--rate",
        type=float,
        default=0.3,
        help="probability an optimization attempt is poisoned",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=4,
        help="worker threads per serving process (the service, or each "
        "shard)",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=0,
        metavar="N",
        help="run against a ShardedService with N shard processes "
        "(0 = single-process service)",
    )
    parser.add_argument(
        "--kill-shards",
        type=int,
        default=0,
        metavar="K",
        help="SIGKILL K random live shards, evenly spaced over the run "
        "(requires --shards)",
    )
    parser.add_argument(
        "--store-dir",
        default=None,
        metavar="DIR",
        help="arm the durable L2 plan store: each shard appends to its "
        "own segment under DIR and the post-run store verification runs "
        "(requires --shards)",
    )
    parser.add_argument(
        "--kill-during-write",
        action="store_true",
        help="crash-safe cache soak: SIGKILL shards while they append to "
        "the durable store, then assert zero corrupt replays, warm hits "
        "bit-identical to cold, and per-fault-kind fail-open (implies "
        "--store-dir under a temp dir and --kill-shards N if unset; "
        "requires --shards)",
    )
    parser.add_argument("--queue", type=int, default=64, metavar="CAPACITY")
    parser.add_argument("--pool", type=int, default=12, metavar="QUERIES")
    parser.add_argument(
        "--families", default="chain,star,clique", metavar="F1,F2,..."
    )
    parser.add_argument("--min-relations", type=int, default=5)
    parser.add_argument("--max-relations", type=int, default=9)
    parser.add_argument(
        "--max-requests",
        type=int,
        default=None,
        help="additional cap on submissions (for quick smoke runs)",
    )
    parser.add_argument(
        "--no-replay",
        action="store_true",
        help="skip the single-threaded bit-identical replay check",
    )
    parser.add_argument(
        "--json", type=Path, default=None, metavar="PATH",
        help="also write the full report as JSON",
    )
    parser.add_argument(
        "--trace", default=None, metavar="PATH",
        help="arm telemetry and write per-request span trees as JSONL",
    )
    parser.add_argument("--quiet", action="store_true")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.kill_shards and not args.shards:
        print("--kill-shards requires --shards N", file=sys.stderr)
        return 2
    if (args.store_dir or args.kill_during_write) and not args.shards:
        print(
            "--store-dir/--kill-during-write require --shards N",
            file=sys.stderr,
        )
        return 2
    progress = None if args.quiet else lambda line: print(line, flush=True)
    store_dir = args.store_dir
    if args.kill_during_write:
        if args.kill_shards == 0:
            args.kill_shards = args.shards
        if store_dir is None:
            store_dir = tempfile.mkdtemp(prefix="repro-soak-store-")
            if progress is not None:
                progress(f"store dir (temp): {store_dir}")
    telemetry = None
    sink = None
    if args.trace is not None:
        sink = TraceSink(args.trace)
        telemetry = Telemetry(tracer=Tracer(sink=sink))
    report = run_soak(
        seconds=args.seconds,
        seed=args.seed,
        rate=args.rate,
        shards=args.shards,
        workers=args.workers,
        queue_capacity=args.queue,
        pool_size=args.pool,
        families=tuple(args.families.split(",")),
        min_relations=args.min_relations,
        max_relations=args.max_relations,
        kill_shards=args.kill_shards,
        store_dir=store_dir,
        kill_during_write=args.kill_during_write,
        replay=not args.no_replay,
        max_requests=args.max_requests,
        progress=progress,
        telemetry=telemetry,
    )
    if sink is not None:
        sink.close()
        print(f"wrote {sink.written} trace(s) to {sink.path}", flush=True)
    if args.json is not None:
        atomic_write_text(str(args.json), json.dumps(report.as_dict(), indent=2))
    print(report.describe())
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
