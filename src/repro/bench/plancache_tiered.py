"""Tiered plan-cache benchmark: Zipfian replay, admission, recovery (ISSUE 9).

Three experiments over the durable L2 tier, one JSON report::

    python -m repro.bench.plancache_tiered --out BENCH_plancache_tiered.json

``zipfian_replay``
    A seeded Zipf-distributed request trace over a pool of distinct
    queries, served twice: by a cold process (fresh segment, every first
    occurrence enumerates and persists) and by a warm-started process (a
    brand-new cache over the same segment — empty L1, recovery-warmed
    L2) that receives every pool query with its relation numbering
    shuffled, the adversarial case for the fingerprint.  Reports the
    share of requests each pass served from either tier and asserts the
    warm pass serves every request from cache, never re-enumerates,
    returns costs bit-identical to the cold pass, and answers the first
    request of each distinct query at least ``REQUIRED_SPEEDUP`` times
    faster than the cold pass enumerated it.

``admission_sweep``
    The same cold workload under increasing ``min_expansions``
    thresholds; reports entries persisted and bytes on disk per
    threshold and asserts both shrink monotonically.

``recovery_curve``
    Segments of growing entry counts, each opened cold; reports recovery
    wall time per log size and asserts every entry is replayed.

The process exits non-zero if any invariant is violated, which is what
the CI cache-durability-smoke job asserts.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import tempfile
import time
from typing import Dict, List, Sequence, Tuple

from repro.context import AdmissionPolicy, DurableStore, TieredPlanCache
from repro.context.store import atomic_write_text
from repro.core.optimizer import Optimizer
from repro.query import Query
from repro.workload.generator import QueryGenerator

__all__ = [
    "run_admission_sweep",
    "run_recovery_curve",
    "run_tiered_benchmark",
    "run_zipfian_replay",
    "main",
]

SEED = 20120409

#: Distinct (family, size) shapes for the replay pool — small enough that
#: the cold pass stays in CI-smoke territory, varied enough that admission
#: thresholds actually discriminate.
DEFAULT_POOL_SHAPES = (
    ("chain", 6),
    ("chain", 8),
    ("chain", 10),
    ("cycle", 6),
    ("cycle", 8),
    ("star", 6),
    ("star", 8),
    ("clique", 5),
    ("clique", 6),
    ("chain", 12),
    ("cycle", 10),
    ("star", 9),
)

DEFAULT_REQUESTS = 120
ZIPF_EXPONENT = 1.1

#: ``min_expansions`` thresholds for the admission sweep; 0 admits
#: everything, the last admits nothing.
DEFAULT_THRESHOLDS = (0, 50, 500, 5_000, 10**9)

#: Entry counts for the recovery curve.
DEFAULT_LOG_SIZES = (16, 64, 256, 1024)

#: The warm pass must answer the first request of each distinct query
#: (an L2 read) at least this much faster than the cold pass enumerated
#: it.  Five runs on the default pool on a shared 2-core machine read
#: 6.5-14.6x.  Only first requests count: Zipf repeats already hit L1 in
#: the cold pass, so the whole-pass ratio read 1.4-3.0x and a gate there
#: would flake.
REQUIRED_SPEEDUP = 2.0


def _pool(seed: int, shapes: Sequence[Tuple[str, int]]) -> List[Query]:
    generator = QueryGenerator(seed=seed)
    return [generator.generate(family, size) for family, size in shapes]


def _zipf_trace(seed: int, pool_size: int, requests: int) -> List[int]:
    """A seeded Zipf(``ZIPF_EXPONENT``) trace of pool indices."""
    weights = [1.0 / (rank + 1) ** ZIPF_EXPONENT for rank in range(pool_size)]
    rng = random.Random(seed)
    return rng.choices(range(pool_size), weights=weights, k=requests)


def _permuted(queries: Sequence[Query], seed: int) -> List[Query]:
    """The same queries with shuffled relation numbering (isomorphic)."""
    rng = random.Random(seed)
    permuted = []
    for query in queries:
        mapping = list(range(query.n_relations))
        rng.shuffle(mapping)
        permuted.append(query.relabel(mapping))
    return permuted


def _replay(
    cache: TieredPlanCache, pool: Sequence[Query], trace: Sequence[int]
) -> Dict[str, object]:
    """Serve ``trace`` through one optimizer over ``cache``."""
    optimizer = Optimizer(plan_cache=cache)
    costs = []
    enumerated = 0
    seconds = first_request_seconds = 0.0
    seen = set()
    for index in trace:
        started = time.perf_counter()
        result = optimizer.optimize(pool[index])
        elapsed = time.perf_counter() - started
        seconds += elapsed
        if index not in seen:
            seen.add(index)
            first_request_seconds += elapsed
        costs.append(result.cost.hex())
        if result.memo_entries:
            enumerated += 1
    return {
        "seconds": seconds,
        "first_request_seconds": first_request_seconds,
        "costs": costs,
        "enumerated": enumerated,
        "l1_hits": cache.hits,
        "l2_hits": cache.l2_hits,
        # An L2 hit counts as an L1 miss, so the served share adds both.
        "hit_rate": (cache.hits + cache.l2_hits) / len(trace),
    }


def run_zipfian_replay(
    store_dir: str,
    seed: int = SEED,
    shapes: Sequence[Tuple[str, int]] = DEFAULT_POOL_SHAPES,
    requests: int = DEFAULT_REQUESTS,
) -> Dict[str, object]:
    """Cold replay populating the segment, then a warm-started replay
    of the same trace over relabeled queries."""
    os.makedirs(store_dir, exist_ok=True)
    pool = _pool(seed, shapes)
    trace = _zipf_trace(seed + 1, len(pool), requests)
    path = os.path.join(store_dir, "replay.rpl")

    cold_cache = TieredPlanCache.open(path)
    cold = _replay(cold_cache, pool, trace)
    appended = cold_cache.store.appended
    cold_cache.close()

    # "Warm start": a fresh process image — empty L1, recovery-warmed L2.
    warm_cache = TieredPlanCache.open(path)
    warm = _replay(warm_cache, _permuted(pool, seed + 2), trace)
    warm_entries = warm_cache.snapshot()["l2"]["warm_entries"]
    warm_cache.close()

    violations = []
    if warm["costs"] != cold["costs"]:
        mismatches = sum(
            1 for got, want in zip(warm["costs"], cold["costs"]) if got != want
        )
        violations.append(
            f"warm replay produced {mismatches} cost(s) not bit-identical "
            "to the cold replay"
        )
    if warm["enumerated"] or warm["hit_rate"] != 1.0:
        violations.append(
            f"warm replay re-enumerated {warm['enumerated']} relabeled "
            f"request(s) and served {warm['hit_rate']:.0%} from cache; "
            "every lookup should be served from L1 or the warm L2"
        )
    if warm["l2_hits"] == 0:
        violations.append("warm replay never hit L2 — warm start is vacuous")
    # The cold pass enumerated each distinct query's first request; the
    # warm pass read it from L2.
    warm_first = warm["first_request_seconds"]
    speedup = (
        cold["first_request_seconds"] / warm_first
        if warm_first > 0
        else float("inf")
    )
    if speedup < REQUIRED_SPEEDUP:
        violations.append(
            f"first-request speedup {speedup:.2f}x < {REQUIRED_SPEEDUP}x: "
            "the warm L2 read should beat cold enumeration"
        )

    return {
        "pool": [list(pair) for pair in shapes],
        "requests": requests,
        "distinct_queries": len(pool),
        "zipf_exponent": ZIPF_EXPONENT,
        "entries_persisted": appended,
        "warm_entries": warm_entries,
        "cold": {k: v for k, v in cold.items() if k != "costs"},
        "warm": {k: v for k, v in warm.items() if k != "costs"},
        "first_request_speedup": speedup,
        "required_speedup": REQUIRED_SPEEDUP,
        "cold_costs": cold["costs"][: len(pool)],
        "warm_costs": warm["costs"][: len(pool)],
        "violations": violations,
    }


def run_admission_sweep(
    store_dir: str,
    seed: int = SEED,
    shapes: Sequence[Tuple[str, int]] = DEFAULT_POOL_SHAPES,
    thresholds: Sequence[int] = DEFAULT_THRESHOLDS,
) -> Dict[str, object]:
    """One cold pass per ``min_expansions`` threshold; bytes + entries."""
    os.makedirs(store_dir, exist_ok=True)
    pool = _pool(seed, shapes)
    points = []
    for threshold in thresholds:
        path = os.path.join(store_dir, f"admission-{threshold}.rpl")
        cache = TieredPlanCache.open(
            path, admission=AdmissionPolicy(min_expansions=threshold)
        )
        optimizer = Optimizer(plan_cache=cache)
        for query in pool:
            optimizer.optimize(query)
        cache.close()
        points.append(
            {
                "min_expansions": threshold,
                "persisted": cache.store.appended,
                "admission_skips": cache.admission_skips,
                "bytes": os.path.getsize(path),
            }
        )

    violations = []
    for previous, current in zip(points, points[1:]):
        if current["persisted"] > previous["persisted"]:
            violations.append(
                f"admission sweep not monotone: threshold "
                f"{current['min_expansions']} persisted more entries than "
                f"{previous['min_expansions']}"
            )
    if points[0]["persisted"] != len(pool):
        violations.append(
            "threshold 0 must admit every distinct query "
            f"({points[0]['persisted']} != {len(pool)})"
        )
    if points[-1]["persisted"] != 0:
        violations.append("the top threshold should admit nothing")
    return {"points": points, "violations": violations}


def run_recovery_curve(
    store_dir: str,
    seed: int = SEED,
    sizes: Sequence[int] = DEFAULT_LOG_SIZES,
) -> Dict[str, object]:
    """Open segments of growing entry counts; recovery wall time each."""
    os.makedirs(store_dir, exist_ok=True)
    from repro.context import CachedPlan, fingerprint
    from repro.core.optimizer import run_dpccp

    query = QueryGenerator(seed=seed).generate("star", 7)
    fp = fingerprint(query)
    entry = CachedPlan(
        run_dpccp(query).plan.relabel(fp.mapping),
        fp.payload,
        cold_seconds=0.25,
        expansions=100,
    )

    points = []
    violations = []
    for size in sizes:
        path = os.path.join(store_dir, f"recovery-{size}.rpl")
        with DurableStore(path, fsync=False) as store:
            for index in range(size):
                store.append(f"{fp.key}:{index}", entry)
        log_bytes = os.path.getsize(path)
        started = time.perf_counter()
        recovered = DurableStore(path, fsync=False)
        seconds = time.perf_counter() - started
        if recovered.report.entries_replayed != size:
            violations.append(
                f"recovery at size {size} replayed "
                f"{recovered.report.entries_replayed}/{size} entries"
            )
        recovered.close()
        points.append(
            {"entries": size, "bytes": log_bytes, "seconds": seconds}
        )
    return {"points": points, "violations": violations}


def run_tiered_benchmark(
    seed: int = SEED,
    requests: int = DEFAULT_REQUESTS,
) -> Dict[str, object]:
    """All three experiments in one throwaway store directory."""
    with tempfile.TemporaryDirectory(prefix="repro-bench-tiered-") as tmp:
        # The defaults are read here, at call time, so tests can shrink them.
        replay = run_zipfian_replay(
            tmp, seed=seed, shapes=DEFAULT_POOL_SHAPES, requests=requests
        )
        admission = run_admission_sweep(
            tmp, seed=seed, shapes=DEFAULT_POOL_SHAPES
        )
        recovery = run_recovery_curve(tmp, seed=seed, sizes=DEFAULT_LOG_SIZES)
    return {
        "benchmark": "plancache_tiered",
        "seed": seed,
        "zipfian_replay": replay,
        "admission_sweep": admission,
        "recovery_curve": recovery,
        "violations": (
            replay["violations"]
            + admission["violations"]
            + recovery["violations"]
        ),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-bench-plancache-tiered",
        description=__doc__.splitlines()[0],
    )
    parser.add_argument(
        "--out",
        default="BENCH_plancache_tiered.json",
        help="output JSON path (default: BENCH_plancache_tiered.json)",
    )
    parser.add_argument("--seed", type=int, default=SEED)
    parser.add_argument(
        "--requests",
        type=int,
        default=DEFAULT_REQUESTS,
        help="Zipfian trace length (default: %(default)s)",
    )
    args = parser.parse_args(argv)

    report = run_tiered_benchmark(seed=args.seed, requests=args.requests)
    atomic_write_text(args.out, json.dumps(report, indent=2) + "\n")

    replay = report["zipfian_replay"]
    recovery = report["recovery_curve"]["points"][-1]
    print(
        f"tiered cache: cold {replay['cold']['seconds']:.3f}s "
        f"(hit rate {replay['cold']['hit_rate']:.0%}), "
        f"warm {replay['warm']['seconds']:.3f}s "
        f"(hit rate {replay['warm']['hit_rate']:.0%} on relabeled queries, "
        f"{replay['warm']['l2_hits']} L2 hits, first-request speedup "
        f"{replay['first_request_speedup']:.1f}x); "
        f"recovery of {recovery['entries']} entries "
        f"({recovery['bytes']} B) in {recovery['seconds'] * 1e3:.1f}ms"
    )
    for violation in report["violations"]:
        print(f"FAIL: {violation}", file=sys.stderr)
    return 1 if report["violations"] else 0


if __name__ == "__main__":
    sys.exit(main())
