"""Enumeration speed benchmark + perf-regression gate (``enumspeed``).

Times the three exact enumerators that must agree bit-for-bit under the
``C_out`` cost model — DPccp (bottom-up baseline), DPconv (the layered
subset-convolution fast path) and top-down APCBI — plus ``auto``, the
default :class:`~repro.core.optimizer.Optimizer` that routes each query
to DPconv or DPccp by predicted work, over a seeded chain/star/cycle/
clique matrix, and emits ``BENCH_enumspeed.json``.  A Haas section
(``haas_entries``) times DPccp, top-down APCBI and ``auto``, which routes
each Haas query to APCBI or DPccp by predicted pruning yield.

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
* **misrouting** (``--check``): in the fresh run, the candidate ``auto``
  was routed to (DPccp or DPconv under ``C_out``, DPccp or top-down
  APCBI under Haas) may be slower than the faster candidate by at most
  ``--threshold``; a router that picks the slower algorithm fails.  The
  check reads the candidates' own columns, not ``auto``'s: a row routed
  to DPccp would otherwise compare two runs of one algorithm, and timing
  noise between them is not a misroute.  ``auto``'s overhead is gated by
  the baseline comparison above.  Entries where both candidates finish
  under ``--min-seconds`` are too noisy to compare.

CI runs this as the ``enumspeed-gate`` job::

    python -m repro.bench.enumspeed --check BENCH_enumspeed.json
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.context.store import atomic_write_text
from repro.core.optimizer import Optimizer, run_dpccp, run_dpconv
from repro.cost.cout import CoutCostModel
from repro.cost.haas import HaasCostModel
from repro.cost.model import CostModel
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

#: Haas (family, relations) rows, drawn in this order from their own
#: generator.  DPccp clears the noise floor on each.  The dense rows are
#: ones the router sends to DPccp; on the sparse acyclic-19 APCBI's
#: pruning takes a few percent of DPccp's time, so a router that sends
#: everything to DPccp fails the misroute check there.
HAAS_WORKLOAD = (
    ("clique", 10),
    ("star", 12),
    ("cyclic", 13),
    ("acyclic", 19),
)

SEED = 20120403

#: Maximum tolerated relative slowdown of a normed time vs. the baseline.
DEFAULT_THRESHOLD = 0.15

#: Entries whose DPccp time is below this are too noisy to norm against.
DEFAULT_MIN_SECONDS = 0.05

#: The algorithms under test.  DPccp is the normalizer and must stay first.
ALGORITHMS = ("dpccp", "dpconv", "topdown_apcbi", "auto")
HAAS_ALGORITHMS = ("dpccp", "topdown_apcbi", "auto")


class _Section(NamedTuple):
    """One report section: a cost model and what runs under it."""

    cost_model: Callable[[], CostModel]
    algorithms: Tuple[str, ...]
    #: What ``auto`` may be routed to (its ``result.pruning``) -> the
    #: column that times that algorithm alone (the misroute check).
    candidates: Dict[str, str]
    #: Appended to a row's name in failures and divergences.
    suffix: str


#: Report key -> section.
SECTIONS = {
    "entries": _Section(
        CoutCostModel,
        ALGORITHMS,
        {"dpccp": "dpccp", "dpconv": "dpconv"},
        "",
    ),
    "haas_entries": _Section(
        HaasCostModel,
        HAAS_ALGORITHMS,
        {"dpccp": "dpccp", "apcbi": "topdown_apcbi"},
        " (haas)",
    ),
}


def _run_algorithm(name: str, query, cost_model_factory=CoutCostModel):
    if name == "dpccp":
        return run_dpccp(query, cost_model_factory=cost_model_factory)
    if name == "dpconv":
        return run_dpconv(query)
    if name == "topdown_apcbi":
        # auto_route off: this row measures the top-down enumerator
        # itself, not the facade's routing.
        return Optimizer(
            pruning="apcbi",
            cost_model_factory=cost_model_factory,
            auto_route=False,
        ).optimize(query)
    if name == "auto":
        return Optimizer(cost_model_factory=cost_model_factory).optimize(query)
    raise ValueError(f"unknown enumspeed algorithm {name!r}")


def run_benchmark(
    rounds: int = 5,
    seed: int = SEED,
    workload=DEFAULT_WORKLOAD,
    min_seconds: float = DEFAULT_MIN_SECONDS,
    haas_workload=HAAS_WORKLOAD,
) -> Dict[str, object]:
    """Time every algorithm on every query; returns the JSON report.

    Per (query, algorithm) the reported time is the minimum across
    ``rounds`` runs — the noise-robust statistic for benchmarking.  A
    round times every query once, so a query's samples spread over the
    whole run and a burst of machine noise cannot spoil all of them.
    Each round rotates the order of the algorithms, and every run starts
    from a fresh garbage collection and runs with the collector off (as
    :mod:`timeit` does), so neither cache warmup nor the garbage another
    algorithm left behind systematically favors one of them.  The
    ``C_out`` rows (``workload``) and the Haas rows (``haas_workload``)
    draw their queries from generators of the same ``seed``.
    """
    if rounds < 1:
        raise ValueError(f"rounds must be >= 1, got {rounds}")
    report: Dict[str, object] = {
        "benchmark": "enumspeed",
        "seed": seed,
        "rounds": rounds,
        "algorithms": list(ALGORITHMS),
        "haas_algorithms": list(HAAS_ALGORITHMS),
        "min_seconds": min_seconds,
    }
    divergences: List[str] = []
    workloads = {"entries": workload, "haas_entries": haas_workload}
    for key, section in SECTIONS.items():
        report[key] = _measure(
            section, workloads[key], rounds, seed, min_seconds, divergences
        )
    report["cost_divergences"] = divergences
    return report


def _measure(
    section: _Section,
    workload,
    rounds: int,
    seed: int,
    min_seconds: float,
    divergences: List[str],
) -> List[Dict[str, object]]:
    """One section's entries; cost divergences go to ``divergences``."""
    algorithms = section.algorithms
    generator = QueryGenerator(seed=seed)
    queries = [
        (family, size, generator.generate(family, size))
        for family, size in workload
    ]

    timings = [dict.fromkeys(algorithms, float("inf")) for _ in queries]
    costs: List[Dict[str, str]] = [{} for _ in queries]
    routed = [""] * len(queries)
    for round_index in range(rounds):
        shift = round_index % len(algorithms)
        order = algorithms[shift:] + algorithms[:shift]
        for index, (_, _, query) in enumerate(queries):
            for name in order:
                gc.collect()
                gc.disable()  # as timeit does: no collector pauses timed
                try:
                    started = time.perf_counter()
                    result = _run_algorithm(name, query, section.cost_model)
                    elapsed = time.perf_counter() - started
                finally:
                    gc.enable()
                timings[index][name] = min(timings[index][name], elapsed)
                costs[index][name] = result.cost.hex()
                if name == "auto":
                    routed[index] = result.pruning

    entries: List[Dict[str, object]] = []
    for index, (family, size, _) in enumerate(queries):
        seconds = timings[index]
        reference = costs[index]["dpccp"]
        for name in algorithms:
            cost = costs[index][name]
            # Comparing float.hex() *strings*: exact equality is the whole
            # point of the divergence gate, not a float robustness bug.
            if cost != reference:  # repro: disable=no-float-cost-eq
                divergences.append(
                    f"{family}-{size}{section.suffix}: {name} cost {cost} != "
                    f"dpccp cost {reference}"
                )
        dpccp_seconds = seconds["dpccp"]
        gated = dpccp_seconds >= min_seconds
        entries.append(
            {
                "family": family,
                "relations": size,
                "seconds": {name: seconds[name] for name in algorithms},
                "normed": {
                    name: (
                        seconds[name] / dpccp_seconds
                        if dpccp_seconds > 0
                        else float("inf")
                    )
                    for name in algorithms
                },
                "cost_hex": reference,
                "routed": routed[index],
                "gated": gated,
            }
        )
    return entries


def check_against(
    report: Dict[str, object],
    baseline: Dict[str, object],
    threshold: float = DEFAULT_THRESHOLD,
) -> List[str]:
    """Compare ``report`` to a checked-in ``baseline``; return failures.

    Only normed (machine-portable) times are compared, and only for
    entries both sides flagged as ``gated``.  Cost divergences in the
    fresh report always fail, and so does a misrouted fresh entry: one
    whose ``auto`` was routed to a candidate (DPccp or DPconv under
    ``C_out``, DPccp or top-down APCBI under Haas) whose normed time
    exceeds the faster candidate's by more than ``threshold`` (unless
    both finish under the baseline's noise floor).
    An entry present in the baseline but missing from the report fails
    too — silently dropping the expensive rows is not a way to pass the
    gate.
    """
    failures = list(report.get("cost_divergences") or [])
    min_seconds = float(baseline.get("min_seconds", DEFAULT_MIN_SECONDS))
    for key, section in SECTIONS.items():
        failures += _check_section(
            section,
            report.get(key, []),
            baseline.get(key, []),
            threshold,
            min_seconds,
        )
    return failures


def _check_section(
    section: _Section,
    entries,
    baseline_entries,
    threshold: float,
    min_seconds: float,
) -> List[str]:
    """:func:`check_against` for one report section."""
    suffix = section.suffix
    failures = []
    for entry in entries:
        normed = entry["normed"]
        # A report without the column fails the baseline comparison below.
        if "auto" not in normed:
            continue
        name_of_row = f"{entry['family']}-{entry['relations']}{suffix}"
        chosen = section.candidates.get(entry.get("routed"))
        if chosen is None:
            failures.append(
                f"{name_of_row}: auto routed to {entry.get('routed')!r}, "
                f"not one of {sorted(section.candidates)}"
            )
            continue
        fastest = min(section.candidates.values(), key=normed.__getitem__)
        seconds = entry["seconds"]
        if max(seconds[chosen], seconds[fastest]) < min_seconds:
            continue
        if normed[chosen] > normed[fastest] * (1.0 + threshold):
            failures.append(
                f"{name_of_row}: auto routed to {chosen}, normed time "
                f"{normed[chosen]:.3f}, which exceeds {fastest}'s "
                f"{normed[fastest]:.3f} by more than {threshold:.0%}"
            )
    current = {(e["family"], e["relations"]): e for e in entries}
    for expected in baseline_entries:
        key = (expected["family"], expected["relations"])
        name_of_row = f"{key[0]}-{key[1]}{suffix}"
        entry = current.get(key)
        if entry is None:
            failures.append(
                f"{name_of_row}: present in baseline but missing from this run"
            )
            continue
        if not (expected.get("gated") and entry.get("gated")):
            continue
        for name, baseline_normed in expected["normed"].items():
            observed = entry["normed"].get(name)
            if observed is None:
                failures.append(f"{name_of_row}: {name} not measured")
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
                    f"{name_of_row}: {name} normed time "
                    f"{observed:.3f} exceeds baseline "
                    f"{baseline_normed:.3f} by more than {threshold:.0%}"
                )
    return failures


def _speedup_line(report: Dict[str, object]) -> str:
    lines = []
    for key, section in SECTIONS.items():
        for entry in report.get(key, []):
            seconds = entry["seconds"]
            timed = " ".join(
                f"{name} {seconds[name]:.3f}s"
                for name in section.candidates.values()
            )
            name = f"{entry['family']}-{entry['relations']}{section.suffix}"
            lines.append(
                f"{name}: {timed} auto {seconds['auto']:.3f}s "
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
