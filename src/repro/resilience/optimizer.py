"""Anytime optimization with graceful degradation.

:class:`ResilientOptimizer` wraps the exact
:class:`~repro.core.optimizer.Optimizer` in a *degradation ladder*: when
exact enumeration cannot finish — budget exhausted, component fault,
structurally invalid output — the ladder steps down through progressively
cheaper strategies until one produces a **validated** plan:

1. ``exact`` — budgeted top-down enumeration (optimal when it completes);
2. ``best_so_far`` — the best complete plan the interrupted run registered
   (the memotable root entry, or APCBI's pre-enumeration heuristic tree);
3. the **heuristic ladder** — IKKBZ, then GOO, then QuickPick
   (:data:`DEFAULT_HEURISTIC_LADDER`), each priced on a fork of the shared
   context and validated;
4. ``structural`` — a cost-model-free greedy tree
   (:func:`~repro.resilience.fallback.structural_fallback_plan`), the last
   resort that survives even a cost model returning ``NaN`` everywhere.

Every returned plan passes finiteness *and* structural validation; every
descent is recorded in a :class:`DegradationReport`.  If no rung yields a
valid plan (e.g. the catalog itself lost a relation), a typed
:class:`~repro.errors.ResilienceError` carrying the report is raised —
never a silent garbage plan, never an unexplained foreign exception.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

from repro.context.context import OptimizationContext, _adopted_budget
from repro.core.advancements import AdvancementConfig
from repro.core.optimizer import OptimizationResult, Optimizer
from repro.cost.haas import HaasCostModel
from repro.cost.model import CostModel
from repro.errors import BudgetExceeded, ReproError, ResilienceError
from repro.heuristics.registry import get_heuristic
from repro.plans.join_tree import JoinTree
from repro.plans.validation import check_finite, validate_plan
from repro.query import Query
from repro.resilience.budget import Budget
from repro.resilience.fallback import structural_fallback_plan
from repro.stats.counters import OptimizationStats
from repro.telemetry import NULL_SPAN, Telemetry

__all__ = [
    "DEFAULT_HEURISTIC_LADDER",
    "DegradationReport",
    "ResilientOptimizer",
    "ResilientResult",
    "RungAttempt",
]

#: Heuristic rung order: strongest guarantees first (IKKBZ is optimal for
#: left-deep trees on acyclic graphs under ASI costs), randomized last.
DEFAULT_HEURISTIC_LADDER: Tuple[str, ...] = ("ikkbz", "goo", "quickpick")

#: Failures a rung may legitimately produce and the ladder absorbs:
#: library errors (including injected faults and budget exhaustion),
#: join-tree construction on bogus cuts (ValueError), arithmetic blowups
#: from poisoned statistics, and runaway recursion on corrupted partitions.
_RECOVERABLE = (ReproError, ValueError, ArithmeticError, RecursionError)


@dataclass(frozen=True)
class RungAttempt:
    """One rung's outcome during a ladder descent."""

    rung: str
    status: str  # "ok" or "failed"
    detail: str = ""

    def format(self) -> str:
        suffix = f": {self.detail}" if self.detail else ""
        return f"{self.rung} -> {self.status}{suffix}"


@dataclass
class DegradationReport:
    """Which rung produced the returned plan, and why the others did not."""

    rung: str
    attempts: List[RungAttempt] = field(default_factory=list)
    budget: Optional[dict] = None
    budget_exceeded: Optional[str] = None
    chosen_cost: Optional[float] = None

    @property
    def degraded(self) -> bool:
        return self.rung != "exact"

    def describe(self) -> str:
        lines = [f"returned by rung: {self.rung}"]
        if self.budget_exceeded:
            lines.append(f"budget exceeded: {self.budget_exceeded}")
        for attempt in self.attempts:
            lines.append(f"  {attempt.format()}")
        return "\n".join(lines)


@dataclass(frozen=True)
class ResilientResult:
    """A validated plan plus the story of how it was obtained."""

    plan: JoinTree
    cost: float
    elapsed: float
    report: DegradationReport
    stats: OptimizationStats
    query: Query
    #: The exact result envelope when the ``exact`` rung succeeded.
    exact: Optional[OptimizationResult] = None
    #: The one :class:`~repro.context.OptimizationContext` every rung of
    #: the descent ran on (shared statistics provider and budget).
    context: Optional[OptimizationContext] = None
    #: Validated ranked plans (rank 1 first) when the run retained more
    #: than the single best (``topk > 1``); empty otherwise.
    ranked_plans: Tuple[JoinTree, ...] = ()

    @property
    def ranked(self) -> Tuple[JoinTree, ...]:
        """The ranked plan stream; ``(plan,)`` for single-best runs."""
        return self.ranked_plans if self.ranked_plans else (self.plan,)

    @property
    def degraded(self) -> bool:
        return self.report.degraded

    @property
    def rung(self) -> str:
        return self.report.rung

    def explain(self) -> str:
        return self.plan.explain()


class ResilientOptimizer:
    """Budgeted, fault-tolerant facade over the exact optimizer.

    Parameters mirror :class:`~repro.core.optimizer.Optimizer`; the
    heuristic rungs are :data:`DEFAULT_HEURISTIC_LADDER`, followed by the
    cost-model-free structural rung.

    plan_cache:
        Optional cross-query :class:`~repro.context.PlanCache` handed to
        the exact optimizer (the heuristic rungs never consult it — a
        degraded plan must not poison the cache).
    telemetry:
        Optional :class:`~repro.telemetry.Telemetry` bundle.  Armed, every
        rung of a descent records a ``ladder_rung`` span (attribute
        ``rung``), budget exhaustion and degradation become span events,
        and the bundle is threaded into the per-query context so the
        enumerators underneath trace too.
    auto_route:
        Handed to the exact optimizer: False keeps an unbudgeted exact
        rung on the configured algorithm (benchmarks that measure it).
    """

    def __init__(
        self,
        enumerator: str = "mincut_conservative",
        pruning: str = "apcbi",
        cost_model_factory: Callable[[], CostModel] = HaasCostModel,
        config: Optional[AdvancementConfig] = None,
        heuristic: str = "goo",
        plan_cache=None,
        telemetry: Optional[Telemetry] = None,
        topk: int = 1,
        auto_route: bool = True,
    ):
        if topk < 1:
            raise ValueError(f"topk must be >= 1, got {topk}")
        self._optimizer = Optimizer(
            enumerator=enumerator,
            pruning=pruning,
            cost_model_factory=cost_model_factory,
            config=config,
            heuristic=heuristic,
            plan_cache=plan_cache,
            telemetry=telemetry,
            topk=topk,
            auto_route=auto_route,
        )
        self._topk = topk
        self._cost_model_factory = cost_model_factory
        self._telemetry = telemetry

    @property
    def optimizer(self) -> Optimizer:
        """The wrapped exact optimizer."""
        return self._optimizer

    def _span(self, name: str, **attrs: object):
        """A telemetry span, or the shared no-op when disarmed."""
        if self._telemetry is None:
            return NULL_SPAN
        return self._telemetry.span(name, **attrs)

    def _event(self, name: str, **attrs: object) -> None:
        if self._telemetry is not None:
            self._telemetry.event(name, **attrs)

    # ------------------------------------------------------------------

    def optimize(
        self,
        query: Query,
        budget: Optional[Budget] = None,
        context: Optional[OptimizationContext] = None,
    ) -> ResilientResult:
        """Return a validated plan for ``query``, degrading as needed.

        ``context`` lets a caller that already owns an
        :class:`~repro.context.OptimizationContext` for this query — the
        optimization service forking one parent context across worker
        threads, a test pinning the substrate — hand it in; by default a
        fresh context is built per call.  A handed-in context must be the
        one built for ``query`` and carries the run's budget: a ``budget``
        beside it must be that same object.  Either mismatch raises
        ``ValueError`` before the descent, which would otherwise take it
        for a recoverable rung failure.
        """
        started = time.perf_counter()
        report = DegradationReport(rung="exact")
        if context is not None:
            budget = _adopted_budget(context, query, budget)
        if budget is not None:
            budget.start()

        # One context for the whole descent: every rung — exact, salvage,
        # heuristics, comparison pricing — shares this statistics provider
        # and budget, so nothing memoized during an interrupted exact run
        # is recomputed by the rung that rescues it.  If the substrate
        # itself cannot be built (e.g. the catalog lost a relation), no
        # rung could run either — report that as a full ladder failure.
        try:
            if context is None:
                context = OptimizationContext.for_query(
                    query,
                    cost_model=self._cost_model_factory,
                    budget=budget,
                    telemetry=self._telemetry,
                    topk=self._topk,
                )
        except _RECOVERABLE as error:
            report.rung = "none"
            report.attempts.append(
                RungAttempt(
                    "context", "failed", f"{type(error).__name__}: {error}"
                )
            )
            if budget is not None:
                report.budget = budget.snapshot()
            raise ResilienceError(
                "could not build the optimization context for "
                f"{query.describe()}:\n{report.describe()}",
                report=report,
            ) from error
        outcome = self._run_ladder(query, budget, report, context)
        if budget is not None:
            report.budget = budget.snapshot()
        if outcome is not None and report.degraded:
            self._event("degraded", rung=report.rung)
        if outcome is None:
            report.rung = "none"
            raise ResilienceError(
                "every rung of the degradation ladder failed for "
                f"{query.describe()}:\n{report.describe()}",
                report=report,
            )
        plan, stats, exact, ranked = outcome
        elapsed = time.perf_counter() - started
        return ResilientResult(
            plan=plan,
            cost=plan.cost,
            elapsed=elapsed,
            report=report,
            stats=stats,
            query=query,
            exact=exact,
            context=context,
            ranked_plans=ranked,
        )

    # ------------------------------------------------------------------

    def _run_ladder(
        self,
        query: Query,
        budget: Optional[Budget],
        report: DegradationReport,
        context: OptimizationContext,
    ) -> Optional[
        Tuple[
            JoinTree,
            OptimizationStats,
            Optional[OptimizationResult],
            Tuple[JoinTree, ...],
        ]
    ]:
        """Descend the ladder; fills ``report`` as it goes."""
        partial_ranked: Tuple[JoinTree, ...] = ()

        # Rung 1: exact (budgeted) enumeration.
        try:
            with self._span("ladder_rung", rung="exact"):
                result = self._optimizer.optimize(
                    query, budget=budget, context=context
                )
                self._validate(result.plan, query)
        except BudgetExceeded as error:
            report.budget_exceeded = error.reason
            report.attempts.append(RungAttempt("exact", "failed", str(error)))
            # The ranked best-so-far stream (rank 1 first); degenerates to
            # the scalar partial_plan at k=1.
            partial_ranked = tuple(error.partial_ranked)
            if not partial_ranked and error.partial_plan is not None:
                partial_ranked = (error.partial_plan,)
            self._event("budget_exhausted", reason=error.reason)
        except _RECOVERABLE as error:
            report.attempts.append(
                RungAttempt("exact", "failed", f"{type(error).__name__}: {error}")
            )
        else:
            report.rung = "exact"
            report.attempts.append(RungAttempt("exact", "ok"))
            report.chosen_cost = result.cost
            return result.plan, result.stats, result, result.ranked_plans

        # Rung 2: best-so-far plans salvaged from the interrupted run,
        # tried in rank order — a poisoned rank-1 tree (e.g. non-finite
        # numbers from a faulting cost model) no longer sinks the rung
        # when a clean rank-2 plan was also retained.
        if partial_ranked:
            salvaged: List[JoinTree] = []
            first_error: Optional[str] = None
            with self._span("ladder_rung", rung="best_so_far"):
                for rank, candidate in enumerate(partial_ranked, start=1):
                    try:
                        self._validate(candidate, query)
                    except _RECOVERABLE as error:
                        if first_error is None:
                            first_error = (
                                f"rank {rank}: {type(error).__name__}: {error}"
                            )
                    else:
                        salvaged.append(candidate)
            if salvaged:
                winner = salvaged[0]
                rank = partial_ranked.index(winner) + 1
                detail = "" if rank == 1 else f"salvaged rank {rank}"
                report.rung = "best_so_far"
                report.attempts.append(RungAttempt("best_so_far", "ok", detail))
                report.chosen_cost = winner.cost
                ranked = tuple(salvaged) if len(partial_ranked) > 1 else ()
                return winner, OptimizationStats(), None, ranked
            report.attempts.append(
                RungAttempt(
                    "best_so_far",
                    "failed",
                    first_error or "no complete plan salvaged",
                )
            )
        else:
            report.attempts.append(
                RungAttempt("best_so_far", "failed", "no complete plan salvaged")
            )

        # Rungs 3..n: the heuristic ladder.  Each rung runs on a fork of
        # the shared context: same provider (statistics memoized by the
        # failed exact rung are reused) and bound model, fresh counters.
        for name in DEFAULT_HEURISTIC_LADDER:
            rung_context = context.fork()
            with self._span("ladder_rung", rung=name):
                plan = self._try_heuristic(name, query, rung_context, report)
            if plan is not None:
                report.rung = name
                report.chosen_cost = plan.cost
                return plan, rung_context.stats, None, ()

        # Final rung: structure without costs.
        try:
            with self._span("ladder_rung", rung="structural"):
                plan = structural_fallback_plan(query)
                validate_plan(plan, query)
        except _RECOVERABLE as error:
            report.attempts.append(
                RungAttempt(
                    "structural", "failed", f"{type(error).__name__}: {error}"
                )
            )
            return None
        report.rung = "structural"
        report.attempts.append(RungAttempt("structural", "ok"))
        return plan, OptimizationStats(), None, ()

    def _try_heuristic(
        self,
        name: str,
        query: Query,
        context: OptimizationContext,
        report: DegradationReport,
    ) -> Optional[JoinTree]:
        """Run one heuristic rung; returns a validated plan or ``None``."""
        try:
            result = get_heuristic(name).build(query, context.builder)
            self._validate(result.tree, query)
        except _RECOVERABLE as error:
            report.attempts.append(
                RungAttempt(name, "failed", f"{type(error).__name__}: {error}")
            )
            return None
        report.attempts.append(RungAttempt(name, "ok"))
        return result.tree

    @staticmethod
    def _validate(plan: JoinTree, query: Query) -> None:
        """Reject non-finite/negative numbers, then structural violations."""
        check_finite(plan)
        validate_plan(plan, query)
