"""The shard process: one :class:`OptimizationService` behind a pipe.

:func:`shard_main` is the child-process entry point.  It builds the full
single-process serving stack (admission queue → retries → breakers →
degradation ladder → plan cache) exactly as ``repro.service`` defines it,
then bridges it to the parent over a duplex ``multiprocessing`` pipe
using the :mod:`~repro.service.sharded.wire` message types:

* :class:`~repro.service.OptimizeRequest` s are submitted to the local
  service; each completion callback ships the stripped response back
  (one sender lock serializes pipe writes — worker callbacks and the
  main loop share the connection);
* a :class:`~repro.service.sharded.wire.Heartbeat` goes out every
  ``heartbeat_interval`` seconds carrying the local ``healthz()``
  snapshot and breaker trace, so the supervisor can detect a wedged
  shard (process alive, pipe silent) and the cluster ``healthz()`` can
  aggregate shard state without synchronous probes;
* :class:`~repro.service.sharded.wire.DrainCommand` switches the loop
  into drain mode: no new work is accepted, outstanding requests finish
  and flush, then a :class:`~repro.service.sharded.wire.Drained` marker
  is sent and the process exits cleanly.

Determinism: the shard never derives request seeds — every
``OptimizeRequest`` arrives with an explicit seed chosen by the front-end,
so a request produces the same plan whichever shard (or respawn
generation) serves it.  Chaos, when armed (``chaos_rate > 0``), uses the
same seeded :class:`~repro.service.soak.ChaosPlant` schedule keyed on
the request seed, which is therefore also routing-independent.

Every shard serves under one retry schedule and one breaker setting,
:func:`shard_retry_policy` and :func:`shard_breakers`; the in-process
chaos soak borrows both, so the two soak targets fault and recover alike.

A parent death (pipe EOF) is treated as a shutdown order: the shard must
never outlive its supervisor as an orphan serving nobody.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass
from typing import Dict, Optional

from repro.context.plancache import PlanCache
from repro.errors import ReproError, ServiceOverloadError
from repro.service.breaker import BreakerBoard
from repro.service.retry import RetryPolicy
from repro.service.server import (
    OptimizationService,
    OptimizeRequest,
    OptimizeResponse,
)
from repro.service.sharded.wire import (
    Drained,
    DrainCommand,
    Heartbeat,
    Hello,
    ShutdownCommand,
    WireResponse,
    WireShed,
    strip_response,
)

__all__ = ["ShardConfig", "shard_breakers", "shard_main", "shard_retry_policy"]


def shard_retry_policy() -> RetryPolicy:
    """The retry schedule every shard's service runs under."""
    return RetryPolicy(max_attempts=8, base_delay=0.005, max_delay=0.1)


def shard_breakers() -> BreakerBoard:
    """A fresh breaker board with the settings every shard runs under."""
    return BreakerBoard(failure_threshold=2, cooldown_seconds=0.1)


@dataclass(frozen=True)
class ShardConfig:
    """Everything a shard process needs to build its local service.

    Plain picklable data (it crosses the process boundary at spawn).
    ``seed`` is the cluster seed; the shard's own RNG consumers (retry
    jitter, chaos schedule) key off per-request seeds, so two shards
    with the same config are interchangeable.
    """

    shard_id: int
    enumerator: str = "mincut_conservative"
    pruning: str = "apcbi"
    heuristic: str = "goo"
    workers: int = 2
    queue_capacity: int = 64
    plan_cache_capacity: int = 256
    seed: int = 0
    chaos_rate: float = 0.0
    heartbeat_interval: float = 0.05
    #: Directory of the durable plan-store tier, or ``None`` for L1-only.
    #: Single-writer discipline: this shard appends exclusively to its own
    #: ``shard-<id>.rpl`` segment and warms from the shared read-only
    #: ``snapshot.rpl`` (if present) plus its own recovered segment — a
    #: SIGKILLed shard's respawn re-opens the same segment, repairs any
    #: torn tail, and starts warm.
    store_dir: Optional[str] = None


class _ShardBridge:
    """Pipe-facing state shared between the loop and worker callbacks."""

    def __init__(self, config: ShardConfig, conn) -> None:
        self._config = config
        self._conn = conn
        self._send_lock = threading.Lock()
        self._lock = threading.Lock()
        self._outstanding: Dict[int, OptimizeRequest] = {}
        self._served = 0
        self._sequence = 0
        self._alive = True

    # -- pipe ----------------------------------------------------------

    def send(self, message) -> None:
        with self._send_lock:
            if not self._alive:
                return
            try:
                self._conn.send(message)
            except (BrokenPipeError, OSError):
                # The parent is gone; nothing left to report to.  The
                # main loop notices via the dead flag and exits.
                self._alive = False

    @property
    def parent_alive(self) -> bool:
        with self._send_lock:
            return self._alive

    # -- request accounting --------------------------------------------

    def begin(self, request: OptimizeRequest) -> None:
        with self._lock:
            self._outstanding[request.request_id] = request

    def finish(self, request_id: int) -> None:
        with self._lock:
            self._outstanding.pop(request_id, None)
            self._served += 1

    @property
    def outstanding(self) -> int:
        with self._lock:
            return len(self._outstanding)

    @property
    def served(self) -> int:
        with self._lock:
            return self._served

    def next_sequence(self) -> int:
        with self._lock:
            self._sequence += 1
            return self._sequence


def _make_plan_cache(config: ShardConfig) -> PlanCache:
    if config.store_dir is None:
        return PlanCache(config.plan_cache_capacity)
    from repro.context.store import TieredPlanCache

    return TieredPlanCache.open(
        os.path.join(config.store_dir, f"shard-{config.shard_id}.rpl"),
        capacity=config.plan_cache_capacity,
        snapshot_paths=(os.path.join(config.store_dir, "snapshot.rpl"),),
    )


def _make_service(config: ShardConfig) -> OptimizationService:
    chaos = None
    if config.chaos_rate > 0.0:
        # Deferred import: soak imports the sharded package for
        # --kill-shards, so the shard must not import soak at module load.
        from repro.service.soak import ChaosPlant

        chaos = ChaosPlant(seed=config.seed, rate=config.chaos_rate)
    return OptimizationService(
        enumerator=config.enumerator,
        pruning=config.pruning,
        heuristic=config.heuristic,
        workers=config.workers,
        queue_capacity=config.queue_capacity,
        retry_policy=shard_retry_policy(),
        breakers=shard_breakers(),
        plan_cache=_make_plan_cache(config),
        chaos=chaos,
        seed=config.seed,
    )


def _heartbeat(
    bridge: _ShardBridge, config: ShardConfig, service: OptimizationService
) -> None:
    health = service.healthz()
    bridge.send(
        Heartbeat(
            shard_id=config.shard_id,
            sequence=bridge.next_sequence(),
            health=health.as_dict(),
            breaker_trace=service.breakers.trace(),
        )
    )


def _shed(
    bridge: _ShardBridge,
    config: ShardConfig,
    request_id: int,
    queue_depth: int = -1,
    capacity: int = -1,
) -> None:
    """Bounce a request back to the front-end for re-routing.

    ``-1`` depth and capacity mark a bounce that is not queue
    back-pressure (a draining shard, a local service refusing work).
    """
    bridge.send(
        WireShed(
            shard_id=config.shard_id,
            request_id=request_id,
            queue_depth=queue_depth,
            capacity=capacity,
        )
    )


def _submit(
    bridge: _ShardBridge,
    config: ShardConfig,
    service: OptimizationService,
    request: OptimizeRequest,
) -> None:
    bridge.begin(request)
    try:
        future = service.submit(
            request.query,
            priority=request.priority,
            deadline_seconds=request.deadline_seconds,
            seed=request.seed,
            topk=request.topk,
        )
    except ServiceOverloadError as error:
        bridge.finish(request.request_id)
        _shed(
            bridge, config, request.request_id, error.queue_depth, error.capacity
        )
        return
    except ReproError:
        # Submitting to a draining local service and similar races:
        # answer honestly (bounce for re-routing) so no request is lost.
        bridge.finish(request.request_id)
        _shed(bridge, config, request.request_id)
        return

    def _complete(done_future, request_id: int = request.request_id) -> None:
        try:
            response = done_future.result()
        except BaseException as error:  # typed failure, never silence
            response = OptimizeResponse(
                request_id=request_id,
                status="failed",
                error=f"{type(error).__name__}: {error}",
            )
        response.shard = config.shard_id
        bridge.finish(request_id)
        bridge.send(
            WireResponse(
                shard_id=config.shard_id,
                request_id=request_id,
                response=strip_response(response),
            )
        )

    future.add_done_callback(_complete)


def shard_main(config: ShardConfig, conn) -> None:
    """Child-process entry point: serve the pipe until told to stop."""
    bridge = _ShardBridge(config, conn)
    service = _make_service(config)
    service.start()
    bridge.send(Hello(shard_id=config.shard_id, pid=os.getpid()))
    _heartbeat(bridge, config, service)
    next_beat = time.monotonic() + config.heartbeat_interval
    draining = False
    drain_reported = False
    try:
        while bridge.parent_alive:
            timeout = max(0.0, next_beat - time.monotonic())
            try:
                ready = conn.poll(timeout)
            except (EOFError, OSError):
                break  # parent went away: orphan shards exit
            if ready:
                try:
                    message = conn.recv()
                except (EOFError, OSError):
                    break
                if isinstance(message, OptimizeRequest):
                    if draining:
                        # Late racer past the drain decision: bounce it
                        # back for re-routing rather than serving it.
                        _shed(bridge, config, message.request_id)
                    else:
                        _submit(bridge, config, service, message)
                elif isinstance(message, DrainCommand):
                    draining = True
                elif isinstance(message, ShutdownCommand):
                    service.shutdown(drain=message.drain, timeout=5.0)
                    break
            now = time.monotonic()
            if now >= next_beat:
                _heartbeat(bridge, config, service)
                next_beat = now + config.heartbeat_interval
            if draining and not drain_reported and bridge.outstanding == 0:
                # Everything flushed; hand the parent the final word.
                service.shutdown(drain=True, timeout=5.0)
                bridge.send(
                    Drained(shard_id=config.shard_id, served=bridge.served)
                )
                drain_reported = True
                break
    finally:
        service.shutdown(drain=False, timeout=1.0)
        try:
            conn.close()
        except OSError:  # repro: disable=no-silent-fallback
            pass  # already closed by the dying parent; nothing to report
