"""The four workloads: query pools, the request pass and the service each drives.

Each workload owns a fixed pool of queries — shapes (family and relation
count) chosen per workload, statistics and random graph structure drawn
once from :data:`DEFAULT_SEED` — so every run asks for the same total
work.  The run's seed draws what the service sees: the numbering of every
relation (a fresh relabeling of each pool query), the order of the pass
and the Zipf copies' relabelings.  Pools drawn from the run seed instead
swung the work per round by about 6% from seed to seed, more than the
noise a bound can absorb next to this host's own.

A run replays one pass — a fixed, seeded sequence of requests — again and
again, each time against a freshly set-up service (see ``runner``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from repro.query import Query
from repro.workload.generator import QueryGenerator

__all__ = [
    "SMOKE",
    "WORKLOADS",
    "Pool",
    "Workload",
    "make_pool",
    "probe_query",
    "request_pass",
]

#: The default run seed; also the seed of every workload's query pool.
DEFAULT_SEED = 20120411

#: The paper's six graph families (§V-B).
FAMILIES = ("chain", "cycle", "star", "clique", "acyclic", "cyclic")


def _spread(family: str, low: int, high: int, count: int) -> List[Tuple[str, int]]:
    """``count`` shapes of ``family`` with sizes spread evenly over [low, high]."""
    return [
        (family, round(low + index * (high - low) / (count - 1)))
        for index in range(count)
    ]


def _cycled(ranges: Dict[str, Tuple[int, int]], count: int) -> List[Tuple[str, int]]:
    """``count`` shapes cycling through the families and each one's sizes.

    Consecutive entries differ in family, so the head of a Zipf ranking
    over the list mixes every family.
    """
    shapes = []
    for index in range(count):
        family = FAMILIES[index % len(FAMILIES)]
        low, high = ranges[family]
        shapes.append((family, low + (index // len(FAMILIES)) % (high - low + 1)))
    return shapes


@dataclass(frozen=True)
class Workload:
    """One traffic mix and the service configuration it runs against."""

    name: str
    #: The distinct queries, as (family, relations); their statistics and
    #: structure are drawn from :data:`DEFAULT_SEED` whatever the run seed.
    shapes: Tuple[Tuple[str, int], ...]
    cost_model: str = "haas"
    #: ``"rounds"``: a pass sends every pool query once, in seeded order.
    #: ``"zipf"``: a pass gives pool rank ``r`` its Zipf(``zipf_exponent``)
    #: share of ``pass_size`` requests, in seeded order.
    traffic: str = "rounds"
    zipf_exponent: float = 1.0
    pass_size: int = 0
    #: Extra seeded relabelings per pool query; every second Zipf copy of
    #: a query uses one of these instead of the run's numbering.
    relabelings: int = 0
    #: Plan-cache (L1) capacity, per shard where there are shards;
    #: ``None`` runs without a cache.
    cache_capacity: Optional[int] = None
    #: Serve through a :class:`~repro.service.sharded.ShardedService` of
    #: this many shard processes; 0 serves in process.
    shards: int = 0
    #: Sharded only: back each shard's cache with a durable L2 store,
    #: recovered at set-up from a store an earlier, untimed cluster wrote
    #: every ``store_every``-th pool query to.
    store_every: int = 0

    @property
    def stateful(self) -> bool:
        """Whether a request can change the work of a later one.

        With a store, misses append to L2 and an L1 smaller than the pool
        evicts, so a request's work depends on its position in the pass.
        Without one, it depends on its query alone: the cold workloads
        have no cache, and ``hot_repeat``'s cache holds the whole pool.
        """
        return self.store_every > 0


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        # The paper's algorithm and workload: APCBI under Haas costs
        # over six graph families with no plan cache, so enumeration
        # dominates every request.
        Workload(
            name="cold_haas",
            shapes=tuple(
                _spread("chain", 10, 16, 5)
                + _spread("cycle", 9, 14, 5)
                + _spread("star", 6, 9, 5)
                + _spread("clique", 5, 8, 5)
                + _spread("acyclic", 9, 13, 5)
                + _spread("cyclic", 7, 11, 5)
            ),
        ),
        # C_out costs through the automatic DPconv route: sparse
        # and dense queries of 12 relations, which DPconv serves, beside
        # smaller dense ones served top-down.
        Workload(
            name="cold_cout",
            shapes=tuple(
                _spread("chain", 12, 15, 4)
                + _spread("cycle", 12, 14, 3)
                + _spread("acyclic", 12, 14, 3)
                + [("cyclic", 12), ("cyclic", 12), ("star", 12), ("star", 12)]
                + [("cyclic", 9), ("cyclic", 10), ("star", 8), ("star", 9)]
                + [("clique", 7), ("clique", 8)]
            ),
            cost_model="cout",
        ),
        # Zipf repeats over a warm plan cache, half of them
        # relabeled: fingerprint, cache get, replay and validation;
        # enumeration never runs.
        Workload(
            name="hot_repeat",
            shapes=tuple(
                _cycled(
                    {
                        "chain": (10, 16),
                        "cycle": (8, 14),
                        "star": (6, 9),
                        "clique": (5, 8),
                        "acyclic": (8, 13),
                        "cyclic": (6, 10),
                    },
                    64,
                )
            ),
            traffic="zipf",
            zipf_exponent=1.1,
            pass_size=2000,
            relabelings=2,
            cache_capacity=1024,
        ),
        # Two shard processes, each a 16-entry L1 over a durable L2
        # store: router, pickle pipe, L1 evictions, L2 decode-promotes
        # and fsync'd appends beside reads; the only workload crossing
        # processes.
        Workload(
            name="sharded_spill",
            shapes=tuple(
                _cycled(
                    {
                        "chain": (6, 12),
                        "cycle": (6, 11),
                        "star": (5, 8),
                        "clique": (4, 7),
                        "acyclic": (6, 11),
                        "cyclic": (5, 9),
                    },
                    128,
                )
            ),
            traffic="zipf",
            zipf_exponent=0.9,
            pass_size=300,
            cache_capacity=16,
            shards=2,
            store_every=3,
        ),
    )
}

#: The same workloads with tiny pools and passes: every code path in
#: seconds, not minutes (``--smoke``; the tests use it).
SMOKE: Dict[str, Workload] = {
    "cold_haas": replace(
        WORKLOADS["cold_haas"],
        shapes=(("chain", 5), ("cycle", 5), ("star", 4), ("clique", 4),
                ("acyclic", 5), ("cyclic", 5)),
    ),
    "cold_cout": replace(
        WORKLOADS["cold_cout"],
        shapes=(("chain", 12), ("cycle", 12), ("star", 5), ("clique", 4)),
    ),
    "hot_repeat": replace(
        WORKLOADS["hot_repeat"],
        shapes=tuple(_cycled({family: (4, 6) for family in FAMILIES}, 8)),
        pass_size=40,
    ),
    "sharded_spill": replace(
        WORKLOADS["sharded_spill"],
        shapes=tuple(_cycled({family: (4, 6) for family in FAMILIES}, 24)),
        pass_size=40,
        cache_capacity=4,
    ),
}


@dataclass
class Pool:
    """The distinct queries a workload sends, and their relabeled variants.

    ``queries[i]`` is pool query ``i`` in the run's numbering;
    ``variants[v]`` is what request variant ``v`` optimizes and
    ``origin[v]`` the pool index it derives from.
    """

    queries: List[Query]
    variants: List[Query]
    origin: List[int]

    def describe(self, variant: int) -> str:
        query = self.variants[variant]
        suffix = "" if self.queries[self.origin[variant]] is query else " relabeled"
        return f"{query.family}-{query.n_relations}#{self.origin[variant]}{suffix}"


def make_pool(workload: Workload, seed: int) -> Pool:
    """The workload's pool, relabeled by ``seed``."""
    generator = QueryGenerator(seed=DEFAULT_SEED)
    rng = random.Random(seed)
    queries: List[Query] = []
    variants: List[Query] = []
    origin: List[int] = []
    for index, (family, n) in enumerate(workload.shapes):
        query = generator.generate(family, n)
        for _ in range(1 + workload.relabelings):
            mapping = list(range(n))
            rng.shuffle(mapping)
            variants.append(query.relabel(mapping))
            origin.append(index)
        queries.append(variants[-1 - workload.relabelings])
    return Pool(queries, variants, origin)


def _zipf_counts(n: int, exponent: float, size: int) -> List[int]:
    """Requests per pool rank: each rank's Zipf(``exponent``) share of
    ``size``, rounded by largest remainder."""
    weights = [1.0 / rank ** exponent for rank in range(1, n + 1)]
    quotas = [size * weight / sum(weights) for weight in weights]
    counts = [int(quota) for quota in quotas]
    by_remainder = sorted(range(n), key=lambda index: counts[index] - quotas[index])
    for index in by_remainder[: size - sum(counts)]:
        counts[index] += 1
    return counts


def request_pass(workload: Workload, seed: int) -> List[int]:
    """The pass: the request variants a run sends, in order, every pass.

    A rounds pass is the pool in seeded order.  A Zipf pass holds each
    pool rank's share of ``pass_size``; every second copy of a query uses
    a seeded extra relabeling, where the workload has them.
    """
    rng = random.Random(seed + 1)
    per_query = 1 + workload.relabelings
    n = len(workload.shapes)
    if workload.traffic == "rounds":
        requests = [index * per_query for index in range(n)]
    else:
        counts = _zipf_counts(n, workload.zipf_exponent, workload.pass_size)
        requests = [
            index * per_query
            + (rng.randrange(1, per_query) if workload.relabelings and copy % 2 else 0)
            for index in range(n)
            for copy in range(counts[index])
        ]
    rng.shuffle(requests)
    return requests


def probe_query(seed: int) -> Query:
    """A tiny query a set-up answers to prove the service is ready."""
    return QueryGenerator(seed=seed).generate("chain", 3)
