"""repro.service: a fault-tolerant concurrent optimization service.

The service wraps the existing optimization substrate
(:class:`~repro.context.OptimizationContext` →
:class:`~repro.resilience.ResilientOptimizer` →
:class:`~repro.context.PlanCache`) behind a thread pool with the
operational machinery a long-running deployment needs:

* **admission control** — a bounded priority queue
  (:class:`AdmissionQueue`) that sheds load deterministically with
  :class:`~repro.errors.ServiceOverloadError` instead of building an
  unbounded backlog;
* **retries** — :class:`RetryPolicy` retries transient failures
  (injected faults, catalog loss, open circuits) with exponential
  backoff and seeded jitter; permanent failures go straight down the
  degradation ladder;
* **circuit breakers** — per-component :class:`CircuitBreaker`
  (cost model, catalog) with the classic closed/open/half-open state
  machine, injectable clocks, and reproducible transition traces;
* **observability** — :meth:`OptimizationService.healthz` returns a
  :class:`ServiceHealth` snapshot (breaker states, queue depth,
  degradation-rung histogram); shutdown drains gracefully;
* **sharding** — :class:`~repro.service.sharded.ShardedService` runs N
  supervised copies of this service as child processes behind a
  consistent-hash router (warm-cache affinity on the WL fingerprint),
  with crash fail-over, seeded-backoff respawn and graceful drains;
* **chaos soak** — ``python -m repro.service.soak [--shards N
  --kill-shards K]`` runs either under seeded fault injection and
  asserts every accepted request returned a validated plan
  bit-identical to a fault-free replay.

See ``docs/service.md`` for the architecture and tuning guide.
"""

from repro.service.breaker import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    BreakerBoard,
    CircuitBreaker,
    ManualClock,
)
from repro.service.health import ServiceHealth
from repro.service.queue import DEFAULT_QUEUE_CAPACITY, AdmissionQueue
from repro.service.retry import TRANSIENT_ERRORS, RetryPolicy
from repro.service.server import (
    BREAKER_COMPONENTS,
    OptimizationService,
    OptimizeRequest,
    OptimizeResponse,
)
from repro.service.sharded import (
    ClusterHealth,
    ConsistentHashRouter,
    ShardConfig,
    ShardedService,
)

__all__ = [
    "AdmissionQueue",
    "BREAKER_COMPONENTS",
    "BreakerBoard",
    "CLOSED",
    "CircuitBreaker",
    "ClusterHealth",
    "ConsistentHashRouter",
    "DEFAULT_QUEUE_CAPACITY",
    "HALF_OPEN",
    "ManualClock",
    "OPEN",
    "OptimizationService",
    "OptimizeRequest",
    "OptimizeResponse",
    "RetryPolicy",
    "ServiceHealth",
    "ShardConfig",
    "ShardedService",
    "TRANSIENT_ERRORS",
]
