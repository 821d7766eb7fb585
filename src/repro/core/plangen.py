"""Generic top-down join enumeration (TDPLANGEN, §II-B, Fig. 1).

:class:`PlanGeneratorBase` owns everything the pruning variants share — the
memotable, the plan builder, the statistics provider, the partitioning
strategy and the counters — and :class:`TopDownPlanGenerator` is the
unpruned instantiation: a straight memoization recursion over
``P_ccp_sym(S)``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, List, Optional, Tuple

from repro.context.context import OptimizationContext
from repro.errors import OptimizationError
from repro.graph import bitset
from repro.partitioning.base import PartitioningStrategy
from repro.plans.builder import PlanBuilder
from repro.plans.join_tree import JoinTree
from repro.plans.memo import MemoTable
from repro.query import Query
from repro.stats.counters import OptimizationStats

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a package cycle
    from repro.resilience.budget import Budget

__all__ = ["PlanGeneratorBase", "TopDownPlanGenerator", "INFINITY"]

INFINITY = float("inf")


class PlanGeneratorBase:
    """Shared infrastructure of all top-down plan generators (§V-A).

    Subclasses implement :meth:`run`.  A generator is built from one
    :class:`~repro.context.OptimizationContext` — the statistics provider,
    bound cost model, plan builder, counters and budget all come from it —
    and a partitioning strategy, and keeps its own memotable.  Instances
    are single-use (state accumulates in the memotable and counters).
    """

    def __init__(
        self, context: OptimizationContext, partitioning: PartitioningStrategy
    ):
        self._context = context
        self._query = context.query
        self._graph = context.query.graph
        self._partitioning = partitioning
        self._provider = context.provider
        self._cost_model = context.cost_model
        self._builder = context.builder
        self._memo = MemoTable(k=context.topk)
        self._budget = context.budget
        self._telemetry = context.telemetry
        for index in range(self._query.n_relations):
            self._memo.register(self._builder.leaf(self._query, index))

    # -- accessors shared with tests and the harness ------------------------

    @property
    def memo(self) -> MemoTable:
        return self._memo

    @property
    def stats(self) -> OptimizationStats:
        return self._builder.stats

    @property
    def builder(self) -> PlanBuilder:
        return self._builder

    @property
    def query(self) -> Query:
        return self._query

    @property
    def partitioning(self) -> PartitioningStrategy:
        return self._partitioning

    @property
    def budget(self) -> Optional["Budget"]:
        return self._budget

    # -- helpers -------------------------------------------------------------

    def _charge_budget(self) -> None:
        """Cooperative budget check; every ``_tdpg`` entry calls this.

        Raises :class:`~repro.errors.BudgetExceeded` when the run's wall
        clock, expansion count or memotable size exceeds its allowance.
        A ``None`` budget makes this a cheap no-op, so unbudgeted runs pay
        only one attribute load and comparison per expansion.
        """
        if self._budget is not None:
            self._budget.check(len(self._memo))

    def _partitions(self, vertex_set: int) -> Iterator[Tuple[int, int]]:
        """Enumerate ``P_ccp_sym(S)``, with accounting and budget checks.

        Checking per emitted ccp (not just per expansion) keeps a single
        pathological plan class — an 18-relation clique root has ~3^18
        ccps — from outliving the deadline by an unbounded margin.

        When telemetry is armed with ``detailed_spans``, each pass gets a
        ``partitioner_pass`` span (high volume — one span per plan-class
        expansion — hence the explicit opt-in; default tracing records one
        ``enumerate`` span per run instead, opened by the optimizer
        facade).
        """
        telemetry = self._telemetry
        if telemetry is None or not telemetry.detailed_spans:
            return self._emit_partitions(vertex_set)
        return self._emit_partitions_traced(vertex_set, telemetry)

    def _emit_partitions(self, vertex_set: int) -> Iterator[Tuple[int, int]]:
        budget = self._budget
        for pair in self._partitioning.partitions(self._graph, vertex_set):
            if budget is not None:
                budget.check(len(self._memo))
            self.stats.ccps_enumerated += 1
            yield pair

    def _emit_partitions_traced(
        self, vertex_set: int, telemetry
    ) -> Iterator[Tuple[int, int]]:
        ccps = 0
        with telemetry.span(
            "partitioner_pass", vertex_set=vertex_set
        ) as span:
            for pair in self._emit_partitions(vertex_set):
                ccps += 1
                yield pair
            span.set(ccps=ccps)

    def _finish(self) -> JoinTree:
        """Fetch the final plan and fold terminal counters."""
        plan = self._memo.best(self._graph.all_vertices)
        if plan is None:
            raise OptimizationError(
                "plan generation ended without a plan for the full query; "
                "this indicates a bug in the pruning logic"
            )
        self.stats.plan_classes_built = self._memo.n_plan_classes()
        return plan

    def ranked_plans(self) -> List[JoinTree]:
        """The retained root plans, cheapest first (valid after a run).

        ``[best]`` at ``k=1``; up to ``k`` distinct trees in the
        memotable's deterministic (cost, fingerprint) order otherwise.
        """
        return self._memo.best_k(self._graph.all_vertices)

    def run(self) -> JoinTree:
        """Produce an optimal join tree for the whole query.

        The one entry point callers use; subclasses implement :meth:`_run`.
        The ``enumerate`` span around a run belongs to the optimizer
        facade (:func:`repro.core.optimizer._execute`), which wraps every
        algorithm the same way.
        """
        return self._run()

    def _run(self) -> JoinTree:
        """Subclass hook: the actual enumeration, without instrumentation."""
        raise NotImplementedError


class TopDownPlanGenerator(PlanGeneratorBase):
    """TDPLANGEN (Fig. 1): memoization without pruning."""

    def _run(self) -> JoinTree:
        self._tdpgsub(self._graph.all_vertices)
        return self._finish()

    def _tdpgsub(self, vertex_set: int) -> JoinTree:
        """TDPGSUB: optimal join tree for a connected ``vertex_set``."""
        self._charge_budget()
        tree = self._memo.best(vertex_set)
        if tree is not None:
            if vertex_set & (vertex_set - 1):
                self.stats.memo_hits += 1
            return tree
        for left, right in self._partitions(vertex_set):
            self.stats.ccps_considered += 1
            self._builder.build_ccp(
                self._memo,
                self._tdpgsub(left),
                self._tdpgsub(right),
                INFINITY,
            )
        tree = self._memo.best(vertex_set)
        if tree is None:  # pragma: no cover - guarded by graph connectivity
            raise OptimizationError(
                f"no ccp produced a plan for {bitset.format_set(vertex_set)}"
            )
        return tree
