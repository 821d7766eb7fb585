"""``repro-optimize`` — optimize a query from a JSON document or generator.

Examples::

    # Optimize a hand-written query document:
    repro-optimize --query my_query.json

    # Generate a workload query and optimize it:
    repro-optimize --family cyclic --relations 10 --seed 7

    # Pick algorithms and inspect the machine-readable plan:
    repro-optimize --family clique --relations 8 \
        --enumerator mincut_branch --pruning apcb --json

    # Anytime optimization: bound the run and degrade gracefully instead
    # of running forever on a hard query:
    repro-optimize --family clique --relations 14 \
        --deadline-ms 100 --resilient
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.bench.harness import PAPER_ALGORITHMS
from repro.core.optimizer import algorithm_label, optimize, run_dpccp
from repro.cost.cout import CoutCostModel
from repro.cost.haas import HaasCostModel
from repro.errors import ReproError
from repro.io import load_query, plan_to_dict
from repro.partitioning.registry import available_partitionings
from repro.resilience import Budget, ResilientOptimizer
from repro.workload.generator import generate_query

__all__ = ["main"]

#: ``--cost-model`` choice -> factory.
_COST_MODELS = {"haas": HaasCostModel, "cout": CoutCostModel}


def _served_label(resilient, args) -> str:
    """The algorithm that served an exact rung; the configured one else."""
    if resilient.exact is not None:
        return resilient.exact.label
    return algorithm_label(args.enumerator, args.pruning)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-optimize",
        description="Find an optimal bushy join order with top-down "
        "enumeration and APCBI pruning (ICDE 2012 reproduction).",
    )
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument(
        "--query", type=Path, help="path to a JSON query document (see repro.io)"
    )
    source.add_argument(
        "--family",
        choices=["chain", "star", "cycle", "clique", "acyclic", "cyclic"],
        help="generate a workload query of this graph family instead",
    )
    parser.add_argument(
        "--relations", type=int, default=10, help="size of the generated query"
    )
    parser.add_argument("--seed", type=int, default=None, help="generator seed")
    parser.add_argument(
        "--join-scheme",
        choices=["fk", "random"],
        default="fk",
        help="selectivity scheme for generated queries",
    )
    parser.add_argument(
        "--enumerator",
        choices=available_partitionings(),
        default="mincut_conservative",
    )
    parser.add_argument(
        "--pruning",
        choices=["none", "acb", "pcb", "apcb", "apcbi", "apcbi_opt", "dpconv"],
        default="apcbi",
        help="pruning policy; 'dpconv' selects the subset-convolution "
        "fast path (falls back to DPccp outside its envelope)",
    )
    parser.add_argument(
        "--cost-model",
        choices=["haas", "cout"],
        default="haas",
        help="cost model: 'haas' (the paper's, default) or 'cout' "
        "(output-cardinality; required for the DPconv fast path, and "
        "routes each unbudgeted query to DPconv or DPccp by predicted work)",
    )
    parser.add_argument(
        "--heuristic",
        choices=["goo", "quickpick", "min_selectivity", "ikkbz"],
        default="goo",
        help="join heuristic for APCBI's upper bounds",
    )
    parser.add_argument(
        "--deadline-ms",
        type=float,
        default=None,
        metavar="MS",
        help="wall-clock budget for the optimization (anytime mode)",
    )
    parser.add_argument(
        "--max-expansions",
        type=int,
        default=None,
        metavar="N",
        help="cap on enumeration expansions (anytime mode)",
    )
    parser.add_argument(
        "--resilient",
        action="store_true",
        help="degrade to a heuristic plan instead of failing when the "
        "budget runs out; prints the degradation report",
    )
    parser.add_argument(
        "--via-service",
        action="store_true",
        help="route the optimization through a one-worker "
        "repro.service.OptimizationService (admission queue, retries, "
        "circuit breakers) and report the serving metadata",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=0,
        metavar="N",
        help="with --via-service: serve through a sharded deployment of "
        "N supervised shard processes (consistent-hash routing, crash "
        "fail-over) instead of a single in-process service",
    )
    parser.add_argument(
        "--verify",
        action="store_true",
        help="cross-check the optimal cost against DPccp",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit a machine-readable JSON result instead of text",
    )
    parser.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="arm telemetry and write the optimization's span tree(s) "
        "to PATH as JSONL",
    )
    parser.add_argument(
        "--metrics",
        action="store_true",
        help="print the telemetry metric exposition after the result",
    )
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    budget = None
    if args.deadline_ms is not None or args.max_expansions is not None:
        budget = Budget(
            deadline_seconds=(
                args.deadline_ms / 1000.0 if args.deadline_ms is not None else None
            ),
            max_expansions=args.max_expansions,
        )
    telemetry = None
    sink = None
    if args.trace is not None or args.metrics:
        from repro.telemetry import MetricRegistry, Telemetry, Tracer, TraceSink

        sink = TraceSink(args.trace) if args.trace is not None else None
        telemetry = Telemetry(
            registry=MetricRegistry(), tracer=Tracer(sink=sink)
        )
    cost_model_factory = _COST_MODELS[args.cost_model]
    if args.via_service and cost_model_factory is not HaasCostModel:
        print(
            "error: --via-service always prices with the Haas model; "
            "drop --cost-model",
            file=sys.stderr,
        )
        return 1
    report = None
    service_meta = None
    try:
        if args.query is not None:
            query = load_query(args.query)
        else:
            query = generate_query(
                args.family, args.relations, seed=args.seed,
                join_scheme=args.join_scheme,
            )
        if args.via_service:
            # Serving path: the same stack the service's workers run, plus
            # admission/retry/breaker metadata in the output.  --shards N
            # swaps in the multi-process sharded deployment.
            deadline_seconds = (
                args.deadline_ms / 1000.0
                if args.deadline_ms is not None
                else None
            )
            if args.shards > 0:
                from repro.service.sharded import ShardedService

                with ShardedService(
                    shards=args.shards,
                    enumerator=args.enumerator,
                    pruning=args.pruning,
                    heuristic=args.heuristic,
                    workers_per_shard=1,
                    telemetry=telemetry,
                ) as service:
                    response = service.optimize(
                        query, deadline_seconds=deadline_seconds
                    )
            else:
                from repro.service import OptimizationService

                with OptimizationService(
                    enumerator=args.enumerator,
                    pruning=args.pruning,
                    heuristic=args.heuristic,
                    workers=1,
                    telemetry=telemetry,
                ) as service:
                    response = service.optimize(
                        query, deadline_seconds=deadline_seconds
                    )
            if not response.ok:
                print(
                    f"error: service returned {response.status}: "
                    f"{response.error}",
                    file=sys.stderr,
                )
                return 1
            service_meta = {
                "attempts": response.attempts,
                "retries": response.retries,
                "breaker_waits": response.breaker_waits,
                "queue_wait_seconds": response.queue_wait_seconds,
                "service_seconds": response.service_seconds,
            }
            if args.shards > 0:
                service_meta["shard"] = response.shard
            resilient = response.result
            report = resilient.report
            label = _served_label(resilient, args)
            if report.degraded:
                label = f"{label} (degraded: {report.rung})"
            label = f"{label} [via service]"
            plan, cost = resilient.plan, resilient.cost
            elapsed, stats = resilient.elapsed, resilient.stats
        elif args.resilient:
            resilient = ResilientOptimizer(
                enumerator=args.enumerator,
                pruning=args.pruning,
                cost_model_factory=cost_model_factory,
                heuristic=args.heuristic,
                telemetry=telemetry,
            ).optimize(query, budget=budget)
            report = resilient.report
            label = _served_label(resilient, args)
            if report.degraded:
                label = f"{label} (degraded: {report.rung})"
            plan, cost = resilient.plan, resilient.cost
            elapsed, stats = resilient.elapsed, resilient.stats
        else:
            result = optimize(
                query,
                enumerator=args.enumerator,
                pruning=args.pruning,
                cost_model_factory=cost_model_factory,
                heuristic=args.heuristic,
                budget=budget,
                telemetry=telemetry,
            )
            label, plan, cost = result.label, result.plan, result.cost
            elapsed, stats = result.elapsed, result.stats
    except (ReproError, OSError, json.JSONDecodeError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1

    verified = None
    if args.verify and (report is None or not report.degraded):
        # The cross-check must price with the same model as the main run.
        baseline = run_dpccp(query, cost_model_factory=cost_model_factory)
        verified = abs(cost - baseline.cost) <= 1e-6 * max(1.0, baseline.cost)

    if args.json:
        payload = {
            "algorithm": label,
            "cost": cost,
            "elapsed_seconds": elapsed,
            "plan": plan_to_dict(plan),
            "stats": stats.as_dict(),
        }
        if report is not None:
            payload["degradation"] = {
                "rung": report.rung,
                "degraded": report.degraded,
                "attempts": [attempt.format() for attempt in report.attempts],
                "budget": report.budget,
            }
        if service_meta is not None:
            payload["service"] = service_meta
        if verified is not None:
            payload["verified_against_dpccp"] = verified
        print(json.dumps(payload, indent=2))
    else:
        print(f"query      : {query.describe()}")
        print(f"algorithm  : {label}")
        print(f"cost       : {cost:,.2f}")
        print(f"elapsed    : {elapsed * 1000:.2f} ms")
        print(f"plan       : {plan.sexpr()}")
        print()
        print(plan.explain())
        if service_meta is not None:
            print(
                f"service    : {service_meta['attempts']} attempt(s), "
                f"{service_meta['retries']} retries, "
                f"queue wait {service_meta['queue_wait_seconds'] * 1000:.2f} ms"
            )
        if report is not None:
            print()
            print(report.describe())
        if verified is not None:
            print()
            print(f"verified against DPccp: {'OK' if verified else 'MISMATCH'}")

    if telemetry is not None:
        if args.metrics:
            if not args.via_service:
                # The service already published its counters via the
                # response path; direct runs publish their stats here.
                from repro.telemetry.adapters import publish_optimization_stats

                publish_optimization_stats(telemetry.registry, stats)
            print()
            print(telemetry.registry.expose_text(), end="")
        if sink is not None:
            sink.close()
            print(
                f"wrote {sink.written} trace(s) to {args.trace}",
                file=sys.stderr,
            )

    if verified is False:
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
