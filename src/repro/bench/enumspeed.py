"""Enumeration speed benchmark + perf-regression gate (``enumspeed``).

Times the three exact enumerators that must agree bit-for-bit under the
``C_out`` cost model — DPccp (bottom-up baseline), DPconv (the layered
subset-convolution fast path) and top-down APCBI — plus ``auto``, the
default :class:`~repro.core.optimizer.Optimizer` that routes each query
to DPconv or DPccp by predicted work, over a seeded chain/star/cycle/
clique matrix, and emits ``BENCH_enumspeed.json``.

Three kinds of failure are gated:

* **cost divergence** (always checked, in-run): every algorithm must
  produce the same optimal cost, compared by ``float.hex()`` — a single
  differing ulp fails the run.  This is the safety net behind the hot-loop
  speed passes: an "optimization" that drifts a cost shows up here before
  it shows up in a wrong plan.
* **relative slowdown** (``--check BASELINE.json``): wall-clock is not
  portable across machines, so the gate compares *normed* times — each
  algorithm's seconds divided by DPccp's seconds on the same query.  A
  normed time more than ``--threshold`` (default 15%) above the checked-in
  baseline's fails the gate; entries where DPccp itself finishes faster
  than ``--min-seconds`` are too noisy to norm and are reported but not
  gated.
* **misrouting** (``--check``): in the fresh run, ``auto``'s normed time
  may exceed the faster of DPccp and DPconv by at most ``--threshold``;
  a router that picks the slower algorithm fails.  Entries where both
  sides finish under ``--min-seconds`` are too noisy to compare.

CI runs this as the ``enumspeed-gate`` job::

    python -m repro.bench.enumspeed --check BENCH_enumspeed.json
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time
from typing import Dict, List, Optional

from repro.context.store import atomic_write_text
from repro.core.optimizer import Optimizer, run_dpccp, run_dpconv
from repro.cost.cout import CoutCostModel
from repro.workload.generator import QueryGenerator

__all__ = ["run_benchmark", "check_against", "main"]

#: (family, relations) matrix.  Sizes where enumeration (not setup)
#: dominates; clique stops at 12 to keep the CI job near a minute.
#: The sparse rows past 14 are where DPconv's ~2^n split probes lose to
#: DPccp's polynomial csg-cmp pairs, so they pin the router's choice.
DEFAULT_WORKLOAD = (
    ("chain", 8),
    ("chain", 10),
    ("chain", 12),
    ("chain", 14),
    ("chain", 16),
    ("chain", 18),
    ("chain", 20),
    ("star", 8),
    ("star", 10),
    ("star", 12),
    ("star", 14),
    ("cycle", 8),
    ("cycle", 10),
    ("cycle", 12),
    ("cycle", 14),
    ("cycle", 16),
    ("cycle", 18),
    ("cycle", 20),
    ("clique", 8),
    ("clique", 10),
    ("clique", 12),
)

SEED = 20120403

#: Maximum tolerated relative slowdown of a normed time vs. the baseline.
DEFAULT_THRESHOLD = 0.15

#: Entries whose DPccp time is below this are too noisy to norm against.
DEFAULT_MIN_SECONDS = 0.05

#: The algorithms under test.  DPccp is the normalizer and must stay first.
ALGORITHMS = ("dpccp", "dpconv", "topdown_apcbi", "auto")


def _run_algorithm(name: str, query):
    if name == "dpccp":
        return run_dpccp(query, cost_model_factory=CoutCostModel)
    if name == "dpconv":
        return run_dpconv(query)
    if name == "topdown_apcbi":
        # dpconv_auto off: this row measures the top-down enumerator
        # itself, not the facade's fast-path routing.
        return Optimizer(
            pruning="apcbi",
            cost_model_factory=CoutCostModel,
            dpconv_auto=False,
        ).optimize(query)
    if name == "auto":
        return Optimizer(cost_model_factory=CoutCostModel).optimize(query)
    raise ValueError(f"unknown enumspeed algorithm {name!r}")


def run_benchmark(
    rounds: int = 5,
    seed: int = SEED,
    workload=DEFAULT_WORKLOAD,
    min_seconds: float = DEFAULT_MIN_SECONDS,
) -> Dict[str, object]:
    """Time every algorithm on every query; returns the JSON report.

    Per (query, algorithm) the reported time is the minimum across
    ``rounds`` runs — the noise-robust statistic for benchmarking.  A
    round times every query once, so a query's samples spread over the
    whole run and a burst of machine noise cannot spoil all of them.
    Each round rotates the order of the algorithms, and every run starts
    from a fresh garbage collection and runs with the collector off (as
    :mod:`timeit` does), so neither cache warmup nor the garbage another
    algorithm left behind systematically favors one of them.
    """
    if rounds < 1:
        raise ValueError(f"rounds must be >= 1, got {rounds}")
    generator = QueryGenerator(seed=seed)
    queries = [
        (family, size, generator.generate(family, size))
        for family, size in workload
    ]

    timings = [dict.fromkeys(ALGORITHMS, float("inf")) for _ in queries]
    costs: List[Dict[str, str]] = [{} for _ in queries]
    routed = [""] * len(queries)
    for round_index in range(rounds):
        shift = round_index % len(ALGORITHMS)
        order = ALGORITHMS[shift:] + ALGORITHMS[:shift]
        for index, (_, _, query) in enumerate(queries):
            for name in order:
                gc.collect()
                gc.disable()  # as timeit does: no collector pauses timed
                try:
                    started = time.perf_counter()
                    result = _run_algorithm(name, query)
                    elapsed = time.perf_counter() - started
                finally:
                    gc.enable()
                timings[index][name] = min(timings[index][name], elapsed)
                costs[index][name] = result.cost.hex()
                if name == "auto":
                    routed[index] = result.pruning

    entries: List[Dict[str, object]] = []
    divergences: List[str] = []
    for index, (family, size, _) in enumerate(queries):
        seconds = timings[index]
        reference = costs[index]["dpccp"]
        for name in ALGORITHMS:
            cost = costs[index][name]
            # Comparing float.hex() *strings*: exact equality is the whole
            # point of the divergence gate, not a float robustness bug.
            if cost != reference:  # repro: disable=no-float-cost-eq
                divergences.append(
                    f"{family}-{size}: {name} cost {cost} != "
                    f"dpccp cost {reference}"
                )
        dpccp_seconds = seconds["dpccp"]
        gated = dpccp_seconds >= min_seconds
        entries.append(
            {
                "family": family,
                "relations": size,
                "seconds": {name: seconds[name] for name in ALGORITHMS},
                "normed": {
                    name: (
                        seconds[name] / dpccp_seconds
                        if dpccp_seconds > 0
                        else float("inf")
                    )
                    for name in ALGORITHMS
                },
                "cost_hex": reference,
                "routed": routed[index],
                "gated": gated,
            }
        )
    return {
        "benchmark": "enumspeed",
        "seed": seed,
        "rounds": rounds,
        "algorithms": list(ALGORITHMS),
        "min_seconds": min_seconds,
        "entries": entries,
        "cost_divergences": divergences,
    }


def check_against(
    report: Dict[str, object],
    baseline: Dict[str, object],
    threshold: float = DEFAULT_THRESHOLD,
) -> List[str]:
    """Compare ``report`` to a checked-in ``baseline``; return failures.

    Only normed (machine-portable) times are compared, and only for
    entries both sides flagged as ``gated``.  Cost divergences in the
    fresh report always fail, and so does a fresh entry whose ``auto``
    normed time exceeds the faster of DPccp and DPconv by more than
    ``threshold`` (unless both finish under the baseline's noise floor).
    An entry present in the baseline but missing from the report fails
    too — silently dropping the expensive rows is not a way to pass the
    gate.
    """
    failures = list(report.get("cost_divergences") or [])
    min_seconds = float(baseline.get("min_seconds", DEFAULT_MIN_SECONDS))
    for entry in report.get("entries", []):
        normed = entry["normed"]
        # A report without the column fails the baseline comparison below.
        if "auto" not in normed:
            continue
        fastest = min(("dpccp", "dpconv"), key=normed.__getitem__)
        seconds = entry["seconds"]
        if max(seconds["auto"], seconds[fastest]) < min_seconds:
            continue
        if normed["auto"] > normed[fastest] * (1.0 + threshold):
            failures.append(
                f"{entry['family']}-{entry['relations']}: auto normed time "
                f"{normed['auto']:.3f} (routed to {entry['routed']}) exceeds "
                f"{fastest}'s {normed[fastest]:.3f} by more than "
                f"{threshold:.0%}"
            )
    current = {
        (e["family"], e["relations"]): e for e in report.get("entries", [])
    }
    for expected in baseline.get("entries", []):
        key = (expected["family"], expected["relations"])
        entry = current.get(key)
        if entry is None:
            failures.append(
                f"{key[0]}-{key[1]}: present in baseline but missing from "
                "this run"
            )
            continue
        if not (expected.get("gated") and entry.get("gated")):
            continue
        for name, baseline_normed in expected["normed"].items():
            observed = entry["normed"].get(name)
            if observed is None:
                failures.append(f"{key[0]}-{key[1]}: {name} not measured")
                continue
            # A ratio of two ~10ms timings jitters well past any sensible
            # threshold; only gate an algorithm once one side of the
            # comparison spends real time on the query.
            if (
                expected["seconds"][name] < min_seconds
                and entry["seconds"][name] < min_seconds
            ):
                continue
            if observed > baseline_normed * (1.0 + threshold):
                failures.append(
                    f"{key[0]}-{key[1]}: {name} normed time "
                    f"{observed:.3f} exceeds baseline "
                    f"{baseline_normed:.3f} by more than {threshold:.0%}"
                )
    return failures


def _speedup_line(report: Dict[str, object]) -> str:
    lines = []
    for entry in report["entries"]:
        seconds = entry["seconds"]
        dpconv = seconds.get("dpconv")
        if dpconv:
            speedup = seconds["dpccp"] / dpconv
            lines.append(
                f"{entry['family']}-{entry['relations']}: "
                f"dpccp {seconds['dpccp']:.3f}s dpconv {dpconv:.3f}s "
                f"({speedup:.1f}x) auto {seconds['auto']:.3f}s "
                f"({entry['routed']})"
            )
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-bench-enumspeed",
        description=__doc__.splitlines()[0],
    )
    parser.add_argument(
        "--out",
        default="BENCH_enumspeed.json",
        help="output JSON path (default: BENCH_enumspeed.json)",
    )
    parser.add_argument(
        "--check",
        default=None,
        metavar="BASELINE",
        help="baseline JSON to gate against; non-zero exit on regression",
    )
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument(
        "--threshold",
        type=float,
        default=DEFAULT_THRESHOLD,
        help="maximum tolerated normed-time slowdown vs. the baseline",
    )
    args = parser.parse_args(argv)

    report = run_benchmark(rounds=args.rounds)
    print(_speedup_line(report))

    failures: List[str] = list(report["cost_divergences"])
    if args.check is not None:
        with open(args.check, "r", encoding="utf-8") as handle:
            baseline = json.load(handle)
        failures = check_against(report, baseline, threshold=args.threshold)
        # Gating run: leave the checked-in baseline untouched unless the
        # caller pointed --out somewhere else explicitly.
        if args.out != args.check:
            atomic_write_text(
                args.out, json.dumps(report, indent=2) + "\n"
            )
    else:
        atomic_write_text(args.out, json.dumps(report, indent=2) + "\n")

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
