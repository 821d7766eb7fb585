"""Sharded multi-process serving tier.

``repro.service.sharded`` runs N copies of the single-process
:class:`~repro.service.OptimizationService` as supervised child
processes behind one front-end:

* :class:`ShardedService` — the facade: admission, routing, fail-over,
  the all-shards-down fallback lane, cluster ``healthz()``;
* :class:`ConsistentHashRouter` — consistent hashing on the WL query
  fingerprint, so isomorphic repeats keep landing on warm plan caches;
* :class:`~repro.service.sharded.supervisor.ShardSupervisor` /
  :class:`~repro.service.sharded.supervisor.ShardHandle` — heartbeat
  monitoring, crash detection, seeded-backoff respawn;
* :mod:`~repro.service.sharded.wire` — the picklable pipe protocol;
* :class:`ClusterHealth` — the aggregated health envelope.

See ``docs/service.md`` ("Sharded topology") for the operator view.
"""

from repro.service.sharded.health import ClusterHealth
from repro.service.sharded.router import ConsistentHashRouter
from repro.service.sharded.service import ShardedService
from repro.service.sharded.shard import ShardConfig

__all__ = [
    "ClusterHealth",
    "ConsistentHashRouter",
    "ShardConfig",
    "ShardedService",
]
