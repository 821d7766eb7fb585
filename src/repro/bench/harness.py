"""Measurement harness (§V-C).

Runs a matrix of (enumerator, pruning) algorithms over a workload and
reports *normed times*: each algorithm's elapsed time divided by DPccp's
elapsed time on the same query.  Normed time divides out the substrate's
constant factor, which is what makes a pure-Python reproduction comparable
in shape to the paper's C++ numbers (see DESIGN.md §3).

Besides times, the harness collects the Table III counters: the number of
plan classes successfully built (*s*) and the number of failed build passes
(*f*), both normalized by the number of plan classes DPccp builds.

The harness is *crash-proof*: per-query budgets (``budget_factory``) bound
every optimizer run, failures are recorded in each measurement's
``failures`` section (timeout / error / degraded) instead of propagating,
and ``run_workload`` can checkpoint completed queries to a JSONL file so an
interrupted run resumes without redoing finished work.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.context import PlanCache
from repro.core.advancements import AdvancementConfig
from repro.core.optimizer import Optimizer, algorithm_label, run_dpccp
from repro.cost.compare import costs_close
from repro.cost.haas import HaasCostModel
from repro.cost.model import CostModel
from repro.errors import BudgetExceeded, ReproError
from repro.query import Query
from repro.resilience.budget import Budget
from repro.resilience.optimizer import ResilientOptimizer

__all__ = [
    "AlgorithmSpec",
    "QueryMeasurement",
    "WorkloadMeasurement",
    "NormedSummary",
    "FailureCounts",
    "PAPER_ALGORITHMS",
    "CHART_ALGORITHMS",
    "run_query_matrix",
    "run_workload",
    "load_checkpoint",
]

#: Failures a single optimizer run may produce that must not take down a
#: whole workload: library errors, join-tree construction on corrupted
#: state, arithmetic blowups, runaway recursion.
_QUERY_FAILURES = (ReproError, ValueError, ArithmeticError, RecursionError)


@dataclass(frozen=True)
class AlgorithmSpec:
    """One column of the evaluation: an enumerator + pruning combination."""

    enumerator: str
    pruning: str
    config: Optional[AdvancementConfig] = None
    #: Display override; defaults to the paper's Table I name.
    display: str = ""

    @property
    def label(self) -> str:
        return self.display or algorithm_label(self.enumerator, self.pruning)


def _specs(enumerators: Iterable[str], prunings: Iterable[str]) -> List[AlgorithmSpec]:
    return [
        AlgorithmSpec(enumerator, pruning)
        for enumerator in enumerators
        for pruning in prunings
    ]


#: The 15 top-down combinations of Table I / Table II.
PAPER_ALGORITHMS: Tuple[AlgorithmSpec, ...] = tuple(
    _specs(
        ("mincut_lazy", "mincut_branch", "mincut_conservative"),
        ("none", "pcb", "apcb", "apcbi", "apcbi_opt"),
    )
)

#: The subset shown in the paper's runtime charts (§V-C, last paragraph).
CHART_ALGORITHMS: Tuple[AlgorithmSpec, ...] = (
    AlgorithmSpec("mincut_lazy", "none"),
    AlgorithmSpec("mincut_lazy", "apcb"),
    AlgorithmSpec("mincut_branch", "apcb"),
    AlgorithmSpec("mincut_branch", "apcbi"),
    AlgorithmSpec("mincut_conservative", "apcbi"),
)


@dataclass
class QueryMeasurement:
    """All measurements taken for one query."""

    query: Query
    dpccp_seconds: float
    dpccp_classes: int
    #: label -> normed time (algorithm seconds / DPccp seconds).
    normed_times: Dict[str, float] = field(default_factory=dict)
    #: label -> normed successful class builds (Table III "s").
    normed_success: Dict[str, float] = field(default_factory=dict)
    #: label -> normed failed build passes (Table III "f").
    normed_failed: Dict[str, float] = field(default_factory=dict)
    #: label -> failure reason ("timeout", "error: ...", "degraded: <rung>",
    #: "skipped: ...").  Labels absent here completed normally.
    failures: Dict[str, str] = field(default_factory=dict)

    @property
    def n_relations(self) -> int:
        return self.query.n_relations

    @property
    def family(self) -> str:
        return self.query.family

    @property
    def ok(self) -> bool:
        return not self.failures


@dataclass
class NormedSummary:
    """min / max / avg of a series of normed values."""

    minimum: float
    maximum: float
    average: float
    count: int

    @classmethod
    def of(cls, values: Sequence[float]) -> "NormedSummary":
        if not values:
            return cls(float("nan"), float("nan"), float("nan"), 0)
        return cls(min(values), max(values), sum(values) / len(values), len(values))


@dataclass(frozen=True)
class FailureCounts:
    """How many per-query runs ended in each failure class.

    ``retries`` and ``breaker_trips`` extend the taxonomy for the chaos
    soak report (:mod:`repro.service.soak`): they count *recoveries*, not
    lost queries — a retried request that eventually returned a plan
    appears in ``retries`` but in none of the failure classes — so neither
    contributes to :attr:`total`.
    """

    timeouts: int = 0
    errors: int = 0
    degraded: int = 0
    skipped: int = 0
    retries: int = 0
    breaker_trips: int = 0

    @property
    def total(self) -> int:
        """Runs that ended in a failure class (recovery counters excluded)."""
        return self.timeouts + self.errors + self.degraded + self.skipped

    @classmethod
    def tally(cls, reasons: Iterable[str]) -> "FailureCounts":
        counts = {"timeout": 0, "error": 0, "degraded": 0, "skipped": 0}
        for reason in reasons:
            category = reason.split(":", 1)[0].strip()
            counts[category if category in counts else "error"] += 1
        return cls(
            timeouts=counts["timeout"],
            errors=counts["error"],
            degraded=counts["degraded"],
            skipped=counts["skipped"],
        )

    def as_dict(self) -> Dict[str, int]:
        """JSON-ready counter mapping (the soak report's ``failures``)."""
        return {
            "timeouts": self.timeouts,
            "errors": self.errors,
            "degraded": self.degraded,
            "skipped": self.skipped,
            "retries": self.retries,
            "breaker_trips": self.breaker_trips,
            "total_failed": self.total,
        }


@dataclass
class WorkloadMeasurement:
    """Measurements for a whole workload (one graph family, typically)."""

    measurements: List[QueryMeasurement]
    labels: List[str]

    def failure_counts(self, label: Optional[str] = None) -> FailureCounts:
        """Tally of failures, for one algorithm label or the whole matrix."""
        reasons = [
            reason
            for m in self.measurements
            for key, reason in m.failures.items()
            if label is None or key == label
        ]
        return FailureCounts.tally(reasons)

    @property
    def n_failed_queries(self) -> int:
        return sum(1 for m in self.measurements if m.failures)

    def normed_time_summary(self, label: str) -> NormedSummary:
        return NormedSummary.of(
            [m.normed_times[label] for m in self.measurements if label in m.normed_times]
        )

    def success_summary(self, label: str) -> NormedSummary:
        return NormedSummary.of(
            [
                m.normed_success[label]
                for m in self.measurements
                if label in m.normed_success
            ]
        )

    def failed_summary(self, label: str) -> NormedSummary:
        return NormedSummary.of(
            [
                m.normed_failed[label]
                for m in self.measurements
                if label in m.normed_failed
            ]
        )

    def dpccp_summary(self) -> NormedSummary:
        # A failed baseline records NaN seconds; keep it out of the stats.
        return NormedSummary.of(
            [m.dpccp_seconds for m in self.measurements if math.isfinite(m.dpccp_seconds)]
        )

    def normed_times(self, label: str) -> List[float]:
        """Raw normed-time series (density plots, Figs. 8 and 14)."""
        return [
            m.normed_times[label] for m in self.measurements if label in m.normed_times
        ]

    def by_size(self, label: str) -> Dict[int, float]:
        """Average normed time per relation count (scaling charts)."""
        buckets: Dict[int, List[float]] = {}
        for m in self.measurements:
            if label in m.normed_times:
                buckets.setdefault(m.n_relations, []).append(m.normed_times[label])
        return {n: sum(v) / len(v) for n, v in sorted(buckets.items())}

    def dpccp_by_size(self) -> Dict[int, float]:
        """Average DPccp seconds per relation count."""
        buckets: Dict[int, List[float]] = {}
        for m in self.measurements:
            if math.isfinite(m.dpccp_seconds):
                buckets.setdefault(m.n_relations, []).append(m.dpccp_seconds)
        return {n: sum(v) / len(v) for n, v in sorted(buckets.items())}


def _fresh_budget(
    budget_factory: Optional[Callable[[], Budget]]
) -> Optional[Budget]:
    return budget_factory() if budget_factory is not None else None


def run_query_matrix(
    query: Query,
    algorithms: Sequence[AlgorithmSpec],
    cost_model_factory: Callable[[], CostModel] = HaasCostModel,
    check_costs: bool = True,
    budget_factory: Optional[Callable[[], Budget]] = None,
    resilient: bool = False,
    plan_cache: Optional[PlanCache] = None,
) -> QueryMeasurement:
    """Measure DPccp plus every algorithm on one query.

    With ``check_costs`` every algorithm's plan cost is verified against
    DPccp's (pruning must preserve optimality); a mismatch raises, because a
    benchmark of an incorrect optimizer is meaningless.

    ``budget_factory`` supplies one fresh :class:`~repro.resilience.Budget`
    per optimizer run (the DPccp baseline included).  A run that exhausts
    its budget or raises a typed library error is recorded under
    ``measurement.failures`` instead of aborting the matrix.  With
    ``resilient`` every algorithm runs through
    :class:`~repro.resilience.ResilientOptimizer`, so budget exhaustion
    yields a degraded-but-valid plan recorded as ``degraded: <rung>``
    (degraded plans are *not* cost-checked — they are not claimed optimal).
    If the baseline itself fails, the algorithms are skipped (normed values
    would be meaningless without the denominator).

    Automatic routing is pinned off (``auto_route=False``), so every spec
    measures the algorithm it names.

    ``plan_cache`` shares one cross-query :class:`~repro.context.PlanCache`
    across the matrix (non-resilient runs only).  Entries are keyed per
    optimizer configuration, so the specs never see each other's plans —
    only repeats of the *same* (config, isomorphic query) pair hit.
    """
    try:
        baseline = run_dpccp(
            query, cost_model_factory, budget=_fresh_budget(budget_factory)
        )
    except BudgetExceeded:
        baseline = None
        baseline_failure = "timeout: DPccp baseline"
    except _QUERY_FAILURES as error:
        baseline = None
        baseline_failure = f"error: DPccp baseline: {error}"
    if baseline is None:
        measurement = QueryMeasurement(
            query=query, dpccp_seconds=float("nan"), dpccp_classes=1
        )
        measurement.failures["DPccp"] = baseline_failure
        for spec in algorithms:
            measurement.failures[spec.label] = "skipped: no DPccp baseline"
        return measurement
    measurement = QueryMeasurement(
        query=query,
        dpccp_seconds=baseline.elapsed,
        dpccp_classes=max(1, baseline.stats.plan_classes_built),
    )
    denominator = max(baseline.elapsed, 1e-9)
    for spec in algorithms:
        budget = _fresh_budget(budget_factory)
        try:
            if resilient:
                wrapped = ResilientOptimizer(
                    enumerator=spec.enumerator,
                    pruning=spec.pruning,
                    cost_model_factory=cost_model_factory,
                    config=spec.config,
                    auto_route=False,
                )
                outcome = wrapped.optimize(query, budget=budget)
                if outcome.degraded:
                    measurement.failures[spec.label] = f"degraded: {outcome.rung}"
                    measurement.normed_times[spec.label] = (
                        outcome.elapsed / denominator
                    )
                    continue
                cost, elapsed, stats = outcome.cost, outcome.elapsed, outcome.stats
            else:
                optimizer = Optimizer(
                    enumerator=spec.enumerator,
                    pruning=spec.pruning,
                    cost_model_factory=cost_model_factory,
                    config=spec.config,
                    plan_cache=plan_cache,
                    auto_route=False,
                )
                result = optimizer.optimize(query, budget=budget)
                cost, elapsed, stats = result.cost, result.elapsed, result.stats
        except BudgetExceeded:
            measurement.failures[spec.label] = "timeout"
            continue
        except _QUERY_FAILURES as error:
            measurement.failures[spec.label] = (
                f"error: {type(error).__name__}: {error}"
            )
            continue
        if check_costs and not costs_close(cost, baseline.cost, rel=1e-6):
            raise AssertionError(
                f"{spec.label} returned cost {cost!r} but DPccp found "
                f"{baseline.cost!r} on {query.describe()}"
            )
        measurement.normed_times[spec.label] = elapsed / denominator
        measurement.normed_success[spec.label] = (
            stats.plan_classes_built / measurement.dpccp_classes
        )
        measurement.normed_failed[spec.label] = (
            stats.failed_builds / measurement.dpccp_classes
        )
    return measurement


# -- checkpointing --------------------------------------------------------


def _measurement_to_record(
    index: int, measurement: QueryMeasurement
) -> Dict[str, object]:
    return {
        "index": index,
        "query": measurement.query.describe(),
        "dpccp_seconds": measurement.dpccp_seconds,
        "dpccp_classes": measurement.dpccp_classes,
        "normed_times": measurement.normed_times,
        "normed_success": measurement.normed_success,
        "normed_failed": measurement.normed_failed,
        "failures": measurement.failures,
    }


def _measurement_from_record(
    record: Dict[str, object], query: Query
) -> QueryMeasurement:
    return QueryMeasurement(
        query=query,
        dpccp_seconds=float(record["dpccp_seconds"]),  # type: ignore[arg-type]
        dpccp_classes=int(record["dpccp_classes"]),  # type: ignore[arg-type]
        normed_times=dict(record.get("normed_times", {})),  # type: ignore[arg-type]
        normed_success=dict(record.get("normed_success", {})),  # type: ignore[arg-type]
        normed_failed=dict(record.get("normed_failed", {})),  # type: ignore[arg-type]
        failures=dict(record.get("failures", {})),  # type: ignore[arg-type]
    )


def _read_checkpoint(
    path: Union[str, Path]
) -> Tuple[Dict[int, Dict[str, object]], int]:
    """Parse a JSONL checkpoint; returns ``({index: record}, n_malformed)``.

    A run killed mid-write leaves a truncated line; it is counted (not
    silently dropped) so the caller can repair the file, and its query is
    simply recomputed on resume.
    """
    records: Dict[int, Dict[str, object]] = {}
    n_malformed = 0
    checkpoint = Path(path)
    if not checkpoint.exists():
        return records, n_malformed
    with checkpoint.open("r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                n_malformed += 1
                continue
            records[int(record["index"])] = record
    return records, n_malformed


def load_checkpoint(path: Union[str, Path]) -> Dict[int, Dict[str, object]]:
    """Read a JSONL workload checkpoint; returns ``{index: record}``."""
    return _read_checkpoint(path)[0]


def run_workload(
    queries: Sequence[Query],
    algorithms: Sequence[AlgorithmSpec],
    cost_model_factory: Callable[[], CostModel] = HaasCostModel,
    check_costs: bool = True,
    progress: Optional[Callable[[int, int], None]] = None,
    budget_factory: Optional[Callable[[], Budget]] = None,
    resilient: bool = False,
    checkpoint_path: Optional[Union[str, Path]] = None,
    plan_cache: Optional[PlanCache] = None,
) -> WorkloadMeasurement:
    """Measure a whole workload; see :func:`run_query_matrix`.

    With ``checkpoint_path`` every completed query measurement is appended
    to a JSONL file as it finishes; re-running with the same path skips
    queries whose checkpointed record matches (same position and same
    ``query.describe()``), so an interrupted workload resumes instead of
    starting over.  Stale records — a different workload reusing the file —
    are ignored and recomputed.
    """
    checkpoint = Path(checkpoint_path) if checkpoint_path is not None else None
    cached: Dict[int, Dict[str, object]] = {}
    if checkpoint is not None:
        cached, n_malformed = _read_checkpoint(checkpoint)
        if n_malformed:
            # A run killed mid-write leaves a truncated line; appending
            # after it would corrupt the next record too.  Rewrite the
            # file from the intact records before continuing.  The
            # checkpoint is deliberately non-durable (a torn record costs
            # one recomputed query, and recovery above already handles
            # it), so it opts out of the durable-write discipline.
            with checkpoint.open("w", encoding="utf-8") as handle:  # repro: disable=durable-write
                for index in sorted(cached):
                    handle.write(json.dumps(cached[index]) + "\n")
    measurements = []
    for index, query in enumerate(queries):
        record = cached.get(index)
        if record is not None and record.get("query") == query.describe():
            measurements.append(_measurement_from_record(record, query))
        else:
            measurement = run_query_matrix(
                query,
                algorithms,
                cost_model_factory,
                check_costs,
                budget_factory=budget_factory,
                resilient=resilient,
                plan_cache=plan_cache,
            )
            measurements.append(measurement)
            if checkpoint is not None:
                # Same escape hatch as above: incremental appends trade
                # durability for not rewriting the file per query.
                with checkpoint.open("a", encoding="utf-8") as handle:  # repro: disable=durable-write
                    handle.write(
                        json.dumps(_measurement_to_record(index, measurement))
                        + "\n"
                    )
        if progress is not None:
            progress(index + 1, len(queries))
    return WorkloadMeasurement(
        measurements=measurements, labels=[spec.label for spec in algorithms]
    )
