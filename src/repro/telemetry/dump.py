"""Telemetry exposition CLI: ``python -m repro.telemetry.dump``.

Serves a small deterministic workload through the
:class:`~repro.service.OptimizationService` with telemetry armed, then
prints the resulting Prometheus-style exposition (or, with ``--json``,
the registry snapshot).  All four absorbed counter silos appear:

* optimizer counters (``repro_optimizer_*_total``), published per
  completed response by the service;
* service health (``repro_service_*``), published from ``healthz()``;
* the bench failure taxonomy (``repro_failures_*``), tallied over the
  served responses;
* the enumeration profile (``repro_enumeration_*``), from one profiled
  run over the same pool.

``--trace PATH`` additionally writes the per-request span trees as JSONL
— the quickest way to eyeball the request → attempt → ladder-rung →
enumerate hierarchy.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.telemetry import MetricRegistry, Telemetry, Tracer, TraceSink
from repro.telemetry.adapters import (
    publish_enumeration_profile,
    publish_failure_counts,
    publish_optimization_stats,
    publish_service_health,
)

__all__ = ["run_dump", "main"]


def run_dump(
    queries: int = 8,
    seed: int = 7,
    workers: int = 2,
    trace_path: Optional[str] = None,
    detailed: bool = False,
) -> Telemetry:
    """Serve ``queries`` requests with telemetry armed; return the bundle."""
    # Imported here, not at module top: telemetry must stay importable
    # from every layer, including the ones these modules sit on.
    from repro.bench.harness import FailureCounts
    from repro.bench.profiling import InstrumentedPartitioning
    from repro.context.context import OptimizationContext
    from repro.core.apcb import ApcbPlanGenerator
    from repro.partitioning.registry import get_partitioning
    from repro.service.server import OptimizationService
    from repro.service.soak import build_query_pool

    sink = TraceSink(trace_path) if trace_path else None
    telemetry = Telemetry(
        registry=MetricRegistry(),
        tracer=Tracer(sink=sink),
        detailed_spans=detailed,
    )
    pool = build_query_pool(seed, pool_size=max(1, min(queries, 12)))
    with OptimizationService(
        workers=workers, seed=seed, telemetry=telemetry
    ) as service:
        futures = [
            service.submit(pool[index % len(pool)][1])
            for index in range(queries)
        ]
        responses = [future.result() for future in futures]
        health = service.healthz()

    publish_service_health(telemetry.registry, health)
    publish_failure_counts(
        telemetry.registry,
        FailureCounts(
            timeouts=sum(1 for r in responses if r.status == "timeout"),
            errors=sum(1 for r in responses if r.status == "failed"),
            degraded=sum(1 for r in responses if r.degraded),
            retries=sum(r.retries for r in responses),
            breaker_trips=health.breaker_trips,
        ),
    )

    # One profiled enumeration over a pool query feeds the fourth silo
    # (the per-class enumeration profile the service path doesn't collect).
    profiled = InstrumentedPartitioning(get_partitioning("mincut_conservative"))
    context = OptimizationContext.for_query(pool[0][1])
    generator = ApcbPlanGenerator(context, profiled)
    generator.run()
    publish_enumeration_profile(telemetry.registry, profiled.profile)
    publish_optimization_stats(telemetry.registry, generator.stats)

    if sink is not None:
        sink.close()
    return telemetry


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.telemetry.dump",
        description="Serve a small workload with telemetry armed and print "
        "the Prometheus-style exposition.",
    )
    parser.add_argument("--queries", type=int, default=8)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument(
        "--json",
        action="store_true",
        help="print the registry snapshot as JSON instead of exposition text",
    )
    parser.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="also write per-request span trees as JSONL",
    )
    parser.add_argument(
        "--detailed",
        action="store_true",
        help="record per-partitioner-pass spans (high volume)",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    telemetry = run_dump(
        queries=args.queries,
        seed=args.seed,
        workers=args.workers,
        trace_path=args.trace,
        detailed=args.detailed,
    )
    if args.json:
        print(json.dumps(telemetry.registry.snapshot(), indent=2, sort_keys=True))
    else:
        print(telemetry.registry.expose_text(), end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
