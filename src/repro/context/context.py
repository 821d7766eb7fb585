"""The per-query optimization context — the substrate under every enumerator.

Before this module existed, every plan generator, bottom-up baseline,
heuristic rung and facade call constructed its own
:class:`~repro.cost.statistics.StatisticsProvider` and
:class:`~repro.plans.builder.PlanBuilder`, so nothing computed while
optimizing one query — memoized subproblem statistics above all — survived
into the next layer, let alone the next query.  An
:class:`OptimizationContext` bundles everything that is *per query but
shared across components*:

* the statistics provider (memoized cardinality/width/page estimates per
  vertex set — the subproblem statistics every cost model and lower-bound
  estimator consumes);
* the cost model, **bound to that provider** (see
  :meth:`repro.cost.model.CostModel.bind` — binding produces a
  context-local model, so one model instance can safely parameterize many
  contexts);
* the plan builder (CREATETREE/BUILDTREE) wired to both;
* the run counters (:class:`~repro.stats.counters.OptimizationStats`);
* the optional cooperative :class:`~repro.resilience.Budget`;
* the optional :class:`~repro.telemetry.Telemetry` bundle (metric
  registry + tracer), threaded read-only so every layer records into the
  same instruments.

The context is immutable in the sense that its components never change
identity after construction; the provider cache and the counters mutate
*inside* it.  Derived contexts (:meth:`relabeled`, :meth:`fork`) share
exactly the pieces that must be shared — stats and budget across a
renumbering, provider and model across an oracle pre-pass — and nothing
else.

This module is also the **only** place in the library allowed to construct
``StatisticsProvider`` and ``PlanBuilder`` directly (enforced by the
``context-discipline`` lint rule); everything else goes through
:func:`statistics_for` or a context.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional, Union

from repro.cost.haas import HaasCostModel
from repro.cost.model import CostModel
from repro.cost.statistics import StatisticsProvider
from repro.plans.builder import PlanBuilder
from repro.query import Query
from repro.stats.counters import OptimizationStats

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a package cycle
    from repro.resilience.budget import Budget
    from repro.telemetry import Telemetry

__all__ = ["OptimizationContext", "statistics_for"]


def statistics_for(query: Query) -> StatisticsProvider:
    """The blessed constructor for a statistics provider.

    Components that need estimates but no cost model (plan validation, the
    structural fallback, the executor's estimate checker) call this instead
    of constructing :class:`StatisticsProvider` themselves, keeping every
    construction site inside ``repro/context/``.
    """
    return StatisticsProvider(query)


def _adopted_budget(
    context: "OptimizationContext", query: Query, budget: Optional["Budget"]
) -> Optional["Budget"]:
    """The budget of a run handed ``context`` for ``query``: the context's.

    A handed-in context must be the one built for ``query``, and a
    ``budget`` beside it must be that context's own; either mismatch
    raises ``ValueError``.
    """
    if context.query is not query:
        raise ValueError("context was built for a different query object")
    if budget is not None and budget is not context.budget:
        raise ValueError(
            "budget is not the context's budget; pass one or the other"
        )
    return context.budget


class OptimizationContext:
    """Everything one query's optimization shares across components.

    Construct via :meth:`for_query`; the raw constructor is internal (it
    trusts that the pieces are mutually consistent).
    """

    __slots__ = (
        "_query",
        "_provider",
        "_cost_model",
        "_builder",
        "_budget",
        "_telemetry",
        "_topk",
    )

    def __init__(
        self,
        query: Query,
        provider: StatisticsProvider,
        cost_model: CostModel,
        builder: PlanBuilder,
        budget: Optional["Budget"] = None,
        telemetry: Optional["Telemetry"] = None,
        topk: int = 1,
    ):
        if topk < 1:
            raise ValueError(f"topk must be >= 1, got {topk}")
        self._query = query
        self._provider = provider
        self._cost_model = cost_model
        self._builder = builder
        self._budget = budget
        self._telemetry = telemetry
        self._topk = topk

    @classmethod
    def for_query(
        cls,
        query: Query,
        cost_model: Union[CostModel, Callable[[], CostModel], None] = None,
        stats: Optional[OptimizationStats] = None,
        budget: Optional["Budget"] = None,
        telemetry: Optional["Telemetry"] = None,
        topk: int = 1,
    ) -> "OptimizationContext":
        """Build a fresh context for ``query``.

        ``cost_model`` may be an instance, a zero-argument factory, or
        ``None`` (Haas et al., the paper's model).  Whatever it is, the
        context binds it to its own provider via
        :meth:`~repro.cost.model.CostModel.bind`, so provider-dependent
        models (``C_out``) never alias state across queries.

        ``telemetry`` (a :class:`repro.telemetry.Telemetry` bundle) rides
        along read-only; components reach it via :attr:`telemetry` to
        record spans and metrics.  ``None`` — the default — means fully
        disarmed instrumentation.

        ``topk`` is the ranked-retention width every memotable built for
        this context uses (see :class:`~repro.plans.memo.MemoTable`);
        ``1`` — the default — is the paper's single-best behavior.
        """
        provider = StatisticsProvider(query)
        if cost_model is None:
            model: CostModel = HaasCostModel()
        elif isinstance(cost_model, CostModel):
            model = cost_model
        else:
            model = cost_model()
        model = model.bind(provider)
        builder = PlanBuilder(
            provider, model, stats if stats is not None else OptimizationStats()
        )
        return cls(query, provider, model, builder, budget, telemetry, topk)

    # -- components --------------------------------------------------------

    @property
    def query(self) -> Query:
        return self._query

    @property
    def provider(self) -> StatisticsProvider:
        """Memoized per-vertex-set statistics (the subproblem cache)."""
        return self._provider

    @property
    def cost_model(self) -> CostModel:
        """The cost model bound to this context's provider."""
        return self._cost_model

    @property
    def builder(self) -> PlanBuilder:
        return self._builder

    @property
    def stats(self) -> OptimizationStats:
        return self._builder.stats

    @property
    def budget(self) -> Optional["Budget"]:
        return self._budget

    @property
    def telemetry(self) -> Optional["Telemetry"]:
        """The observability bundle, or ``None`` when disarmed."""
        return self._telemetry

    @property
    def topk(self) -> int:
        """Ranked plans retained per plan class (1 = single-best)."""
        return self._topk

    # -- derived contexts ---------------------------------------------------

    def relabeled(self, mapping) -> "OptimizationContext":
        """Context for the renumbered query (§IV-D advancement 6).

        The relabeled query gets its own provider and bound model (vertex
        sets mean different relations now), but **shares** this context's
        counters and budget: the renumbered enumeration is the same logical
        run, so its work is charged to the same stats and the same
        allowance.
        """
        query = self._query.relabel(mapping)
        provider = StatisticsProvider(query)
        model = self._cost_model.bind(provider)
        builder = PlanBuilder(provider, model, self._builder.stats)
        return OptimizationContext(
            query,
            provider,
            model,
            builder,
            self._budget,
            self._telemetry,
            self._topk,
        )

    def fork(self) -> "OptimizationContext":
        """Same query, provider, model and budget — fresh counters.

        Used for side computations whose work must *not* pollute the main
        run's counters (APCBI_Opt's untimed DPccp oracle pre-pass, §V-C)
        while still profiting from the shared subproblem statistics.  The
        budget is this context's budget: the oracle shares the caller's
        wall-clock allowance.
        """
        builder = PlanBuilder(self._provider, self._cost_model, OptimizationStats())
        return OptimizationContext(
            self._query,
            self._provider,
            self._cost_model,
            builder,
            self._budget,
            self._telemetry,
            self._topk,
        )

    def __repr__(self) -> str:
        return (
            f"OptimizationContext({self._query.describe()}, "
            f"model={self._cost_model.name}, "
            f"stats_cached={self._provider.cache_size()})"
        )
