"""Compare two sets of perfbench reports metric by metric.

``python -m perfbench compare A1.json [A2.json ...] -- B1.json [B2.json ...]``
prints, for every workload and end-to-end metric of ``BENCHMARK.json``,
each side's median and quartiles and a verdict under the metric's bound:

* ``unresolved`` — a side's spread (quartile distance over median) is
  wider than the bound, and the case below does not apply;
* ``worse`` / ``better`` — B's median moved past the bound in that
  direction; under a wide spread, every B run must also lie beyond every
  A run (for ``better``, that alone suffices);
* ``within`` — the medians differ by no more than the bound.

A metric with an absolute floor (:data:`FLOORS`) has its bound widened to
at least the floor over A's median, so a change or a spread smaller than
the floor is never a verdict.  Every report on both sides must have
measured for the same ``--seconds`` (and smoke or not alike).

Exit status 1 when any verdict is ``worse``.
"""

from __future__ import annotations

import json
import statistics
from typing import Dict, List, Sequence, Tuple

__all__ = ["FLOORS", "compare", "verdict"]

#: Absolute floors, in the metric's unit.  A set-up of a millisecond is
#: decided by thread-start jitter; only a change of 50 ms is a finding.
FLOORS: Dict[str, float] = {"setup_s": 0.05}


def _quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(a: Sequence[float], b: Sequence[float], better: str, bound: float,
            floor: float = 0.0) -> str:
    """Judge B against A for one metric (``better`` is "lower" or "higher")."""
    sign = 1.0 if better == "lower" else -1.0
    qa1, ma, qa3 = _quartiles(a)
    qb1, mb, qb3 = _quartiles(b)
    if ma:
        bound = max(bound, floor / abs(ma))
    spread = max((qa3 - qa1) / abs(ma) if ma else 0.0, (qb3 - qb1) / abs(mb) if mb else 0.0)
    change = sign * (mb - ma) / abs(ma) if ma else 0.0
    if spread > bound:
        if all(sign * (y - x) < 0 for x in a for y in b):
            return "better"
        if change > bound and all(sign * (y - x) > 0 for x in a for y in b):
            return "worse"
        return "unresolved"
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    return "within"


def _collect(paths: Sequence[str], runs: Dict[str, object]) -> Dict[Tuple[str, str], List[float]]:
    """Metric values per (workload, metric); ``runs`` gathers run lengths."""
    values: Dict[Tuple[str, str], List[float]] = {}
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            report = json.load(handle)
        runs[path] = (report["seconds"], report["smoke"])
        for workload, result in report["workloads"].items():
            for name, metric in result["metrics"].items():
                if metric["value"] is not None:
                    values.setdefault((workload, name), []).append(metric["value"])
    return values


def compare(a_paths: Sequence[str], b_paths: Sequence[str], benchmark: Dict) -> Tuple[List[str], bool]:
    """Render the comparison; returns (lines, any metric worse).

    Raises :class:`ValueError` when the reports measured for different
    lengths.
    """
    runs: Dict[str, object] = {}
    a, b = _collect(a_paths, runs), _collect(b_paths, runs)
    if len(set(runs.values())) > 1:
        raise ValueError(
            "reports measured for different lengths (seconds, smoke): "
            + ", ".join(f"{path} {run}" for path, run in runs.items())
        )
    workloads = sorted({workload for workload, _ in a} & {workload for workload, _ in b})
    lines = [
        f"{'workload':<14} {'metric':<16} {'A median [q1, q3]':>30} "
        f"{'B median [q1, q3]':>30} {'change':>8}  verdict (bound)"
    ]
    worse = False
    for workload in workloads:
        for spec in benchmark["end_to_end"]:
            key = (workload, spec["name"])
            if key not in a or key not in b:
                continue
            floor = FLOORS.get(spec["name"], 0.0)
            outcome = verdict(a[key], b[key], spec["better"], spec["bound"], floor)
            worse = worse or outcome == "worse"
            qa1, ma, qa3 = _quartiles(a[key])
            qb1, mb, qb3 = _quartiles(b[key])
            change = (mb - ma) / abs(ma) if ma else 0.0
            limit = f"{spec['bound']:.0%}" + (f", floor {floor:g}" if floor else "")
            lines.append(
                f"{workload:<14} {spec['name']:<16} "
                f"{f'{ma:.4g} [{qa1:.4g}, {qa3:.4g}] n={len(a[key])}':>30} "
                f"{f'{mb:.4g} [{qb1:.4g}, {qb3:.4g}] n={len(b[key])}':>30} "
                f"{change:>+8.1%}  {outcome} ({limit})"
            )
    return lines, worse
