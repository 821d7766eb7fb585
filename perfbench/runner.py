"""Run one workload: set up, replay the pass, check every answer.

The loop is closed with one caller: the benchmark's main thread submits a
request through the service's public ``submit`` and waits for its
response before it sends the next, as a query-engine session waiting for
its plan does.  Every request carries a fresh :class:`~repro.query.Query`
object (an identity relabel), so memos that live on a query's graph cannot
make a repeat of a cold query cheaper than its first run.

A run replays the workload's pass (``workloads.request_pass``) for
``--seconds``, each pass against a service set up afresh, so every pass
starts from the same state and does the same work.  ``setup_s`` is the
median of the run's set-ups.

Latencies are reported as *best* latencies: each request counts with the
lowest latency that any request doing the same work reached in the run
(:func:`best_latencies`).  On the reference host, a two-vCPU virtual
machine shared with other tenants, a fixed pure-Python loop runs at two
speeds about 1.5x apart and switches between them within fractions of a
second.  The median of raw latencies then measures how long the host
stayed slow (runs of the same code spread 0.15-0.45, quartile distance
over median); the best latency of each kind is the one the fast stretches
reach, and every run has fast stretches.

Nothing is checked while the clock runs.  After the measured phase the
benchmark validates every distinct served plan (``validate_plan`` and
``check_finite``) and compares every response's cost, by ``float.hex``,
with a DPccp run on the same query under the workload's cost model.
DPccp never serves these workloads, so it is an independent reference.
"""

from __future__ import annotations

import math
import os
import resource
import shutil
import statistics
import tempfile
import threading
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.context.plancache import PlanCache
from repro.core.optimizer import run_dpccp
from repro.cost.cout import CoutCostModel
from repro.cost.haas import HaasCostModel
from repro.plans.join_tree import plan_fingerprint
from repro.plans.validation import PlanValidationError, check_finite, validate_plan
from repro.service.server import OptimizationService
from repro.service.sharded.service import ShardedService
from repro.telemetry.summary import percentile

from perfbench import ROOT
from perfbench.trace import COUNTED, TIMED_LAYERS, LayerTracer
from perfbench.workloads import Pool, Workload, make_pool, probe_query, request_pass

__all__ = [
    "InvalidPlanError",
    "Metric",
    "WorkloadResult",
    "best_latencies",
    "reference_costs",
    "run_workload",
]

#: Worker threads of the service, or of each shard: one per caller, so no
#: request queues.
WORKERS = 1

COST_MODELS = {"haas": HaasCostModel, "cout": CoutCostModel}

#: Optimizer counters reported per request under ``core.``.
CORE_COUNTERS = (
    "ccps_enumerated",
    "ccps_considered",
    "lbe_evaluations",
    "trees_created",
    "plan_classes_built",
    "failed_builds",
    "memo_hits",
)

#: Working space for stores and reports, inside the repository; each run
#: removes what it made there.
WORK_DIR = os.path.join(ROOT, "perfbench", "out")


class InvalidPlanError(RuntimeError):
    """A served plan failed ``validate_plan`` or ``check_finite``."""


@dataclass(frozen=True)
class Metric:
    name: str
    value: float
    unit: str


@dataclass
class WorkloadResult:
    """Everything one run of one workload measured and checked."""

    workload: str
    metrics: List[Metric]
    attempted: int
    failed: int
    #: Responses whose cost differs from the DPccp reference.
    mismatches: List[Dict[str, object]] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return not self.mismatches

    def metric(self, name: str) -> Metric:
        for metric in self.metrics:
            if metric.name == name:
                return metric
        raise KeyError(f"{self.workload} reports no metric {name!r}")


# -- CPU placement -------------------------------------------------------------


@contextmanager
def _one_cpu():
    """Run this process, and the threads and processes it starts, on its
    lowest CPU.

    With one caller in a closed loop, one thread or process works at a
    time: the caller, the service's worker, or a shard.  A second CPU adds
    no capacity, only wake-ups of an idle vCPU whose cost depends on the
    host.  In eight paired runs of ``sharded_spill``, with the shards on
    the other CPU the median throughput was 7% lower, and the slowest run's
    17% lower, than with everything on one CPU.
    """
    if not hasattr(os, "sched_getaffinity"):
        yield
        return
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


# -- the services under test ---------------------------------------------------


class _InProcess:
    """An :class:`OptimizationService` configured as the workload asks.

    Starting it is the set-up: a cache is warmed with the whole pool;
    without one the service answers a probe query.
    """

    def __init__(self, workload: Workload, pool: Pool, seed: int):
        self._pool = pool
        self._seed = seed
        self.cache = (
            PlanCache(workload.cache_capacity)
            if workload.cache_capacity is not None
            else None
        )
        self.service = OptimizationService(
            cost_model_factory=COST_MODELS[workload.cost_model],
            workers=WORKERS,
            plan_cache=self.cache,
            seed=seed,
        )

    def start(self) -> None:
        self.service.start()
        if self.cache is None:
            _must_succeed(self.service.optimize(probe_query(self._seed)))
        else:
            for query in self._pool.queries:
                _must_succeed(self.service.optimize(_fresh(query)))

    def submit(self, query):
        return self.service.submit(query)

    def counters(self) -> Dict[str, float]:
        snapshot = self.cache.snapshot() if self.cache is not None else {}
        return {
            "hits": snapshot.get("hits", 0),
            "misses": snapshot.get("misses", 0),
            "evictions": snapshot.get("evictions", 0),
            "rejected": self.service.rejected,
        }

    def close(self) -> None:
        if not self.service.shutdown(drain=True, timeout=60.0):
            raise RuntimeError("optimization service workers did not stop")


class _Cluster:
    """A :class:`ShardedService`; each shard recovers its store at start.

    Starting it is the set-up: it is ready when every shard process is
    up, which a shard is once it has recovered its store.
    """

    def __init__(self, workload: Workload, seed: int, store_dir: str):
        self._shards = workload.shards
        self.cluster = ShardedService(
            shards=workload.shards,
            workers_per_shard=WORKERS,
            plan_cache_capacity=workload.cache_capacity,
            store_dir=store_dir,
            seed=seed,
        )

    def start(self) -> None:
        self.cluster.start()
        deadline = time.monotonic() + 60.0
        while self.cluster.healthz().shards_up < self._shards:
            if time.monotonic() > deadline:
                raise RuntimeError("shards did not come up within 60 s")
            time.sleep(0.001)

    def submit(self, query):
        return self.cluster.submit(query)

    def counters(self) -> Dict[str, float]:
        """Cluster counters plus the shards' summed cache counters.

        Shard-local numbers arrive with heartbeats, so this waits for two
        fresh heartbeats from every shard before reading them.
        """
        seen = {s.shard_id: s.heartbeats for s in self.cluster.healthz().shards}
        deadline = time.monotonic() + 10.0
        while True:
            health = self.cluster.healthz()
            if all(s.heartbeats >= seen[s.shard_id] + 2 for s in health.shards):
                break
            if time.monotonic() > deadline:
                raise RuntimeError("shards stopped sending heartbeats")
            time.sleep(0.005)
        totals = dict.fromkeys(("hits", "misses", "evictions", "l2_hits", "appends"), 0)
        totals.update(
            rejected=health.rejected,
            failovers=health.failovers,
            fallback_served=health.fallback_served,
            wire_errors=health.wire_errors,
            recovery=0.0,
        )
        for shard in health.shards:
            cache = (shard.local_health or {}).get("plan_cache") or {}
            l2 = cache.get("l2") or {}
            store = l2.get("store") or {}
            totals["hits"] += cache.get("hits", 0)
            totals["misses"] += cache.get("misses", 0)
            totals["evictions"] += cache.get("evictions", 0)
            totals["l2_hits"] += l2.get("hits", 0)
            totals["appends"] += store.get("appended", 0)
            recovery = (store.get("recovery") or {}).get("elapsed_seconds", 0.0)
            totals["recovery"] = max(totals["recovery"], recovery)
        return totals

    def close(self) -> None:
        if not self.cluster.shutdown(drain=True, timeout=60.0):
            raise RuntimeError("shard processes had to be killed at shutdown")


def _must_succeed(response) -> None:
    if not response.ok:
        raise RuntimeError(f"set-up request failed: {response.error}")


def _fresh(query):
    """A new Query object with the same numbering (empty per-graph memos)."""
    return query.relabel(range(query.n_relations))


def _handoff(ready: float, done: float) -> float:
    """Seconds from the response being ready (``ready``) to the caller
    running again (``done``).

    A future wakes its waiters before it runs its done-callbacks, so the
    caller can get here before the callback stamped ``ready`` (still 0.0),
    or after a stamp later than ``done``.  Either way the caller woke
    first, and the hand-off counts as nothing.
    """
    return max(0.0, done - ready) if ready else 0.0


# -- the measured phase --------------------------------------------------------


class _Record:
    __slots__ = (
        "position",
        "variant",
        "latency",
        "status",
        "rung",
        "degraded",
        "cost",
        "queue_wait",
        "service",
        "retries",
        "shard",
        "handoff",
        "cache_hit",
        "dpconv",
        "memo_entries",
        "good",
    )


@dataclass
class _Phase:
    """What one measured phase (a series of passes) observed."""

    records: List[_Record] = field(default_factory=list)
    passes: int = 0
    #: Seconds of each set-up, and of each set-up's store recovery.
    setups: List[float] = field(default_factory=list)
    recoveries: List[float] = field(default_factory=list)
    core: Dict[str, int] = field(default_factory=lambda: dict.fromkeys(CORE_COUNTERS, 0))
    #: Service counters summed over the passes (set-ups excluded).
    counters: Dict[str, float] = field(default_factory=dict)
    #: (variant, cost hex, plan structure) -> the first plan served so.
    plans: Dict[Tuple[int, str, str], object] = field(default_factory=dict)
    tracer: Optional[LayerTracer] = None


def _set_up(workload: Workload, pool: Pool, seed: int,
            store_dir: Optional[str]) -> Tuple[object, float]:
    """A started target and the seconds from construction to ready."""
    started = time.perf_counter()
    if workload.shards:
        target = _Cluster(workload, seed, store_dir)
    else:
        target = _InProcess(workload, pool, seed)
    try:
        target.start()
    except BaseException:
        target.close()
        raise
    return target, time.perf_counter() - started


def _run_pass(target, pool: Pool, sequence: List[int], phase: _Phase) -> None:
    """Send the pass's requests one at a time; record every response."""
    tracer = phase.tracer
    for position, variant in enumerate(sequence):
        query = _fresh(pool.variants[variant])
        sent = time.perf_counter()
        future = target.submit(query)
        if tracer is not None:
            # Runs on the thread that completes the future (or here, if
            # it is already done): when the response was ready.
            ready = [0.0]
            future.add_done_callback(
                lambda _, ready=ready: ready.__setitem__(0, time.perf_counter())
            )
        response = future.result()
        done = time.perf_counter()
        record = _Record()
        record.position = position
        record.variant = variant
        record.latency = done - sent
        record.status = response.status
        record.rung = response.rung
        record.degraded = response.degraded
        record.cost = response.cost
        record.queue_wait = response.queue_wait_seconds
        record.service = response.service_seconds
        record.retries = response.retries
        record.shard = response.shard
        record.handoff = _handoff(ready[0], done) if tracer is not None else 0.0
        result = response.result
        record.cache_hit = bool(result and result.stats.plan_cache_hits)
        exact = result.exact if result is not None else None
        record.dpconv = exact is not None and exact.pruning == "dpconv"
        record.memo_entries = exact.memo_entries if exact is not None else 0
        if result is not None:
            for name in CORE_COUNTERS:
                phase.core[name] += getattr(result.stats, name)
        if response.plan is not None:
            key = (variant, response.cost.hex(), plan_fingerprint(response.plan))
            phase.plans.setdefault(key, response.plan)
        phase.records.append(record)


def _run_phase(workload: Workload, pool: Pool, sequence: List[int], seed: int,
               seconds: float, store: Optional[str], workdir: str,
               tracer: Optional[LayerTracer]) -> _Phase:
    """Set up and run passes until ``seconds`` have passed (at least one).

    A workload with a store recovers a fresh copy of it for every pass;
    the copy is removed after the pass.
    """
    phase = _Phase(tracer=tracer)
    deadline = time.perf_counter() + seconds
    while True:
        store_dir = None
        if store is not None:
            store_dir = os.path.join(workdir, f"pass-{len(phase.setups)}")
            shutil.copytree(store, store_dir)
        try:
            target, setup = _set_up(workload, pool, seed, store_dir)
            phase.setups.append(setup)
            try:
                # A fresh cluster has served nothing; an in-process
                # service has served its warm-up.
                before = {} if workload.shards else target.counters()
                with tracer.installed() if tracer is not None else nullcontext():
                    _run_pass(target, pool, sequence, phase)
                after = target.counters()
            finally:
                target.close()
        finally:
            if store_dir is not None:
                shutil.rmtree(store_dir, ignore_errors=True)
        phase.recoveries.append(after.pop("recovery", 0.0))
        for name, value in after.items():
            phase.counters[name] = phase.counters.get(name, 0) + value - before.get(name, 0)
        phase.passes += 1
        if time.perf_counter() >= deadline:
            return phase


def _prepopulate(workload: Workload, pool: Pool, seed: int, store_dir: str) -> None:
    """An earlier, untimed cluster writes part of the pool to the store."""
    target, _ = _set_up(workload, pool, seed, store_dir)
    try:
        for query in pool.queries[:: workload.store_every]:
            _must_succeed(target.cluster.optimize(_fresh(query)))
    finally:
        target.close()


# -- metrics -------------------------------------------------------------------


def best_latencies(records, stateful: bool) -> List[float]:
    """Every request's latency replaced by the best of its kind in the run.

    Requests of one kind do the same work: the same variant, where no
    request changes the service's state, or else the same position in
    the pass, whose set-up every pass repeats.  The result is in
    ``records`` order.
    """
    best: Dict[int, float] = {}
    for record in records:
        kind = record.position if stateful else record.variant
        best[kind] = min(best.get(kind, math.inf), record.latency)
    return [best[r.position if stateful else r.variant] for r in records]


def _ms(values: List[float], q: float) -> float:
    return percentile(values, q) * 1000.0


def _ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``; 0 when nothing was counted."""
    return numerator / denominator if denominator else 0.0


def _throughput(phase: _Phase, workload: Workload) -> float:
    """Exact-optimal responses per second of the requests' best latencies."""
    best = best_latencies(phase.records, workload.stateful)
    return _ratio(sum(record.good for record in phase.records), sum(best))


def _end_to_end(phase: _Phase, workload: Workload, peak_rss_mb: float,
                failed: int) -> List[Metric]:
    best = best_latencies(phase.records, workload.stateful)
    return [
        Metric("throughput_qps", _throughput(phase, workload), "req/s"),
        Metric("latency_p50_ms", _ms(best, 50.0), "ms"),
        Metric("latency_p95_ms", _ms(best, 95.0), "ms"),
        Metric("failed_frac", _ratio(failed, len(phase.records)), "ratio"),
        Metric("setup_s", statistics.median(phase.setups), "s"),
        Metric("peak_rss_mb", peak_rss_mb, "MB"),
        Metric("requests", float(len(phase.records)), "count"),
        Metric("passes", float(phase.passes), "count"),
    ]


def _counters(phase: _Phase, suboptimal_hits: int) -> List[Metric]:
    """Per-layer counts read from responses and health snapshots."""
    records = phase.records
    counters = phase.counters
    served = len(records) or 1
    exact = [r for r in records if r.rung == "exact"]
    hits, misses = counters.get("hits", 0), counters.get("misses", 0)
    shards: Dict[Optional[int], int] = {}
    for record in records:
        shards[record.shard] = shards.get(record.shard, 0) + 1
    transit = [r.latency - r.queue_wait - r.service for r in records]
    metrics = [
        Metric("service.queue_wait_p50_ms", _ms([r.queue_wait for r in records], 50.0), "ms"),
        Metric("service.queue_wait_p95_ms", _ms([r.queue_wait for r in records], 95.0), "ms"),
        Metric("service.service_time_p50_ms", _ms([r.service for r in records], 50.0), "ms"),
        Metric("service.retries", float(sum(r.retries for r in records)), "count"),
        Metric("service.rejected", float(counters.get("rejected", 0)), "count"),
        Metric("service.sharded.transit_p50_ms", _ms(transit, 50.0), "ms"),
        Metric("service.sharded.shard_share_max",
               _ratio(max(shards.values(), default=0), len(records)), "ratio"),
        Metric("service.sharded.failovers", float(counters.get("failovers", 0)), "count"),
        Metric("service.sharded.fallback_served",
               float(counters.get("fallback_served", 0)), "count"),
        Metric("service.sharded.wire_errors", float(counters.get("wire_errors", 0)), "count"),
        Metric("resilience.degraded", float(sum(r.degraded for r in records)), "count"),
        Metric("context.cache_hit_rate", _ratio(hits, hits + misses), "ratio"),
        Metric("context.cache_hits", float(hits), "count"),
        Metric("context.cache_lookups", float(hits + misses), "count"),
        Metric("context.cache_evictions", float(counters.get("evictions", 0)), "count"),
        Metric("context.store_l2_hit_rate", _ratio(counters.get("l2_hits", 0), misses), "ratio"),
        Metric("context.store_appends", float(counters.get("appends", 0)), "count"),
        Metric("context.store_recovery_ms", statistics.median(phase.recoveries) * 1000.0, "ms"),
        Metric("context.suboptimal_hits", float(suboptimal_hits), "count"),
    ]
    for name in CORE_COUNTERS:
        metrics.append(Metric(f"core.{name}", phase.core[name] / served, "count/req"))
    metrics.append(Metric(
        "core.prune_ratio",
        _ratio(phase.core["ccps_considered"], phase.core["ccps_enumerated"]),
        "ratio",
    ))
    metrics.append(Metric(
        "baselines.dpconv_share", _ratio(sum(r.dpconv for r in exact), len(exact)), "ratio"
    ))
    metrics.append(Metric(
        "plans.memo_entries",
        _ratio(sum(r.memo_entries for r in exact), len(exact)),
        "count/req",
    ))
    return metrics


def _layers(phase: _Phase, untraced_qps: float, traced_qps: float) -> List[Metric]:
    """Per-layer self times from the traced phase."""
    tracer = phase.tracer
    records = phase.records
    total_latency = sum(r.latency for r in records) or 1.0
    samples = tracer.samples()
    client_samples = tracer.samples({threading.current_thread()})
    metrics = []
    for layer in TIMED_LAYERS:
        values = samples.get(layer, [])
        share_name = (
            "baselines.dpconv_time_share" if layer == "baselines.dpconv"
            else f"{layer}_share"
        )
        metrics += [
            Metric(f"{layer}_ms", _ms(values, 50.0) if values else 0.0, "ms"),
            Metric(f"{layer}_calls", float(len(values)), "count"),
            Metric(share_name, sum(values) / total_latency, "ratio"),
        ]
    handoffs = [r.handoff for r in records]
    metrics += [
        Metric("service.handoff_p50_ms", _ms(handoffs, 50.0), "ms"),
        Metric("service.handoff_share", sum(handoffs) / total_latency, "ratio"),
    ]
    counts = tracer.counts()
    served = len(records) or 1
    for name in COUNTED:
        metrics.append(Metric(name, counts.get(name, 0) / served, "count/req"))
    # Layers on the caller's thread run inside submit; every other traced
    # layer runs on the service's worker, inside the response's service
    # time.  The hand-off follows the service time: the response is
    # ready, and the caller waits to run again.
    attributed = (
        sum(r.queue_wait + r.service + r.handoff for r in records)
        + sum(sum(values) for values in client_samples.values())
    )
    metrics.append(Metric("trace.unattributed_frac", 1.0 - attributed / total_latency, "ratio"))
    metrics.append(Metric("trace.overhead_frac", 1.0 - _ratio(traced_qps, untraced_qps), "ratio"))
    return metrics


# -- checks --------------------------------------------------------------------


def reference_costs(pool: Pool, variants: Set[int], cost_model: str) -> Dict[int, float]:
    """DPccp's optimal cost for every requested variant."""
    factory = COST_MODELS[cost_model]
    return {
        variant: run_dpccp(pool.variants[variant], cost_model_factory=factory).cost
        for variant in sorted(variants)
    }


def _validate(phase: _Phase, pool: Pool) -> None:
    for (variant, _, structure), plan in phase.plans.items():
        try:
            check_finite(plan)
            validate_plan(plan, pool.variants[variant])
        except PlanValidationError as error:
            raise InvalidPlanError(
                f"invalid plan {structure} for {pool.describe(variant)}: {error}"
            ) from error


def _check(phase: _Phase, pool: Pool, reference: Dict[int, float]):
    """Mark each record good or not; list every cost mismatch.

    Returns (failed, mismatches, suboptimal cache hits).
    """
    failed = suboptimal = 0
    mismatches = []
    for record in phase.records:
        record.good = False
        if record.status != "ok" or record.degraded:
            failed += 1
            continue
        expected = reference[record.variant]
        # Exact by design: every algorithm here is exact, so the optimum
        # matches bit for bit or the plan is not optimal.
        if record.cost.hex() == expected.hex():  # repro: disable=no-float-cost-eq
            record.good = True
            continue
        failed += 1
        suboptimal += record.cache_hit
        mismatches.append({
            "position": record.position,
            "query": pool.describe(record.variant),
            "served": record.cost,
            "reference": expected,
            "relative": record.cost / expected - 1.0,
            "cache_hit": record.cache_hit,
            "rung": record.rung,
        })
    return failed, mismatches, suboptimal


# -- one run -------------------------------------------------------------------


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool) -> WorkloadResult:
    """Set up, measure and check one workload in this process.

    With ``trace`` the measured time is split in two halves: the first runs
    untraced, the second with the layer wrappers installed around every
    pass; end-to-end metrics come from the first half, per-layer ones from
    the second, and their throughput ratio is the tracing overhead.
    """
    with _one_cpu():
        return _run(workload, seed, seconds, trace)


def _run(workload: Workload, seed: int, seconds: float, trace: bool) -> WorkloadResult:
    pool = make_pool(workload, seed)
    sequence = request_pass(workload, seed)
    os.makedirs(WORK_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK_DIR)
    try:
        store = None
        if workload.store_every:
            store = os.path.join(workdir, "store")
            os.makedirs(store)
            _prepopulate(workload, pool, seed, store)
        if trace:
            plain = _run_phase(workload, pool, sequence, seed, seconds / 2, store, workdir, None)
            traced = _run_phase(workload, pool, sequence, seed, seconds / 2, store, workdir,
                                LayerTracer())
            phases = [plain, traced]
        else:
            plain = traced = _run_phase(workload, pool, sequence, seed, seconds, store,
                                        workdir, None)
            phases = [plain]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    # Shard processes are reaped at shutdown, so they count as children.
    peak = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    ) / 1024.0

    reference = reference_costs(pool, set(sequence), workload.cost_model)
    checked = []
    for phase in phases:
        _validate(phase, pool)
        checked.append(_check(phase, pool, reference))
    metrics = _end_to_end(plain, workload, peak, checked[0][0])
    metrics += _counters(traced, checked[-1][2])
    if trace:
        metrics += _layers(traced, _throughput(plain, workload), _throughput(traced, workload))
    return WorkloadResult(
        workload=workload.name,
        metrics=metrics,
        attempted=sum(len(phase.records) for phase in phases),
        failed=sum(result[0] for result in checked),
        mismatches=[m for result in checked for m in result[1]],
    )
