"""The optimizer facade — the library's main entry point.

``optimize(query, enumerator=..., pruning=...)`` wires together a
partitioning strategy, a pruning policy, a cost model and the shared plan
infrastructure (one :class:`~repro.context.OptimizationContext` per
query), runs plan generation, and returns an :class:`OptimizationResult`
carrying the plan, its cost, the run counters and the measured wall time.

An :class:`Optimizer` may additionally be given a
:class:`~repro.context.PlanCache`; ``optimize`` then fingerprints each
query (:func:`repro.context.fingerprint`) and serves structurally
identical repeats from the cache — replaying the stored canonical tree
through the requesting query's context — instead of enumerating again.

Every algorithm runs through one path.  :func:`repro.core.routing.select`
decides which algorithm serves a request and builds it, and the
module-level :func:`_execute` runs it: it alone owns the timer, the
``enumerate`` span, the ``BudgetExceeded`` salvage and the result
envelope.  :func:`run_dpccp` and :func:`run_dpconv` take the same path.

Timing rule (§V-C), applied by :func:`_execute` alone: the measured
interval covers everything the algorithm does at query time — including
the GOO heuristic and the graph renumbering of APCBI, and the routing
that chose it — but *excludes* the DPccp pre-pass that supplies
APCBI_Opt's oracle upper bounds ("we do not include the pre-computation
time", §V-C), which runs before the clock starts.  Building the
per-query context is never timed.  A plan-cache hit is timed from before
the fingerprint to the replayed plan.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Callable, Dict, Optional, Tuple

from repro.baselines.dpccp import DPccp
from repro.context.context import OptimizationContext, _adopted_budget
from repro.context.fingerprint import fingerprint
from repro.context.plancache import CachedPlan, PlanCache, replay_plan
from repro.core.advancements import ADVANCEMENT_NAMES, AdvancementConfig
from repro.core.routing import (
    DPCCP_WORK_PER_CSG,
    HAAS_CSG_CAP,
    HAAS_LIVE_SHARE,
    PRUNING_STRATEGIES,
    Oracle,
    Selection,
    configured,
    routes_by_work,
    select,
)
from repro.cost.cout import CoutCostModel
from repro.cost.haas import HaasCostModel
from repro.cost.model import CostModel
from repro.errors import BudgetExceeded, UnknownAlgorithmError
from repro.graph.renumber import invert_mapping
from repro.heuristics.registry import get_heuristic
from repro.partitioning.registry import get_partitioning
from repro.plans.join_tree import JoinTree
from repro.plans.validation import (
    PlanValidationError,
    check_finite,
    validate_plan,
)
from repro.query import Query
from repro.stats.counters import OptimizationStats
from repro.telemetry.spans import NULL_SPAN

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a package cycle
    from repro.resilience.budget import Budget
    from repro.telemetry import Telemetry

__all__ = [
    "OptimizationResult",
    "Optimizer",
    "optimize",
    "optimize_topk",
    "run_dpccp",
    "run_dpconv",
    "DPCCP_WORK_PER_CSG",
    "HAAS_LIVE_SHARE",
    "HAAS_CSG_CAP",
    "PRUNING_STRATEGIES",
    "PRUNING_SUFFIXES",
    "algorithm_label",
]

#: Table I display suffixes.
PRUNING_SUFFIXES: Dict[str, str] = {
    "none": "",
    "acb": "_ACB",
    "pcb": "_PCB",
    "apcb": "_APCB",
    "apcbi": "_APCBI",
    "apcbi_opt": "_APCBI_Opt",
}


def algorithm_label(enumerator: str, pruning: str) -> str:
    """Paper-style display name, e.g. ``TDMcC_APCBI`` (Table I)."""
    if pruning == "dpconv":
        # A bottom-up baseline: no partitioning strategy, no suffix.
        return "DPconv"
    partitioning = get_partitioning(enumerator)
    try:
        suffix = PRUNING_SUFFIXES[pruning]
    except KeyError:
        raise UnknownAlgorithmError(
            f"unknown pruning strategy {pruning!r}; "
            f"available: {sorted([*PRUNING_SUFFIXES, 'dpconv'])}"
        ) from None
    return partitioning.label + suffix


@dataclass(frozen=True)
class OptimizationResult:
    """Everything one optimizer run produced."""

    plan: JoinTree
    cost: float
    stats: OptimizationStats
    elapsed: float
    enumerator: str
    pruning: str
    memo_entries: int
    query: Query
    #: Retained root plans in nondecreasing (cost, fingerprint) order when
    #: the run kept ranks beyond the first (``topk > 1``); empty otherwise.
    ranked_plans: Tuple[JoinTree, ...] = ()

    @property
    def ranked(self) -> Tuple[JoinTree, ...]:
        """The ranked plan stream; ``(plan,)`` for single-best runs."""
        return self.ranked_plans if self.ranked_plans else (self.plan,)

    @property
    def label(self) -> str:
        """Paper-style algorithm name (Table I)."""
        if self.pruning == "dpccp":
            return "DPccp"
        return algorithm_label(self.enumerator, self.pruning)

    def explain(self) -> str:
        """EXPLAIN-style rendering of the chosen plan."""
        return self.plan.explain()


def _execute(
    context: OptimizationContext, chosen: Callable[[], Selection]
) -> OptimizationResult:
    """Run one algorithm on ``context``: the single execution path.

    ``chosen()`` (a bound :func:`~repro.core.routing.select`) picks and
    builds the algorithm inside the measured interval and the
    ``enumerate`` span (routing, GOO and renumbering are timed, §V-C).  A
    routed selection's evidence lands on the span as an
    ``algorithm_selected`` event with the run's ``choice`` and ``actual``
    work.  A :class:`~repro.errors.BudgetExceeded` leaves enriched with
    the best complete plans registered so far (``partial_plan`` /
    ``partial_ranked``, in the caller's numbering; the heuristic tree when
    enumeration registered no root plan) and the memo size, so callers
    such as :class:`repro.resilience.ResilientOptimizer` can degrade
    gracefully instead of losing all work.
    """
    query = context.query
    root = query.graph.all_vertices
    telemetry = context.telemetry
    started = time.perf_counter()
    span = NULL_SPAN
    if telemetry is not None:
        span = telemetry.span("enumerate", relations=query.n_relations)
    with span:
        selection = chosen()
        span.set(enumerator=selection.enumerator, pruning=selection.pruning)
        mapping = selection.mapping
        inverse = invert_mapping(mapping) if mapping is not None else None
        memo = selection.algorithm.memo
        considered = context.stats.ccps_considered
        try:
            plan = selection.algorithm.run()
        except BudgetExceeded as error:
            salvage = [
                tree if inverse is None else tree.relabel(inverse)
                for tree in memo.best_k(root)
            ]
            if not salvage and selection.salvage is not None:
                salvage = [selection.salvage]
            error.partial_plan = salvage[0] if salvage else None
            error.partial_ranked = tuple(salvage)
            error.memo_entries = len(memo)
            raise
        # Statistics objects the run built: a renumbered APCBI run prices
        # on its relabeled context's provider after the heuristic priced
        # on the caller's, so both count.  A routed DPccp shares the
        # caller's provider with the heuristic, so a class both priced
        # counts once.
        stats_classes = context.provider.cache_size()
        if selection.context is not context:
            stats_classes += selection.context.provider.cache_size()
        # Counts come from the run's counters, not its memotable: DPconv
        # and DPccp register only the winning plan's classes there.
        span.set(
            ccps_enumerated=context.stats.ccps_enumerated,
            operator_pricings=context.stats.operator_pricings,
            plan_classes_built=context.stats.plan_classes_built,
            stats_classes=stats_classes,
        )
        if selection.evidence is not None:
            span.event(
                "algorithm_selected",
                **selection.evidence,
                choice=selection.pruning,
                actual={
                    "ccps_considered": context.stats.ccps_considered - considered
                },
            )
    ranked = tuple(memo.best_k(root)) if context.topk > 1 else ()
    if inverse is not None:
        plan = plan.relabel(inverse)
        ranked = tuple(tree.relabel(inverse) for tree in ranked)
    elapsed = time.perf_counter() - started
    return OptimizationResult(
        plan=plan,
        cost=plan.cost,
        stats=context.stats,
        elapsed=elapsed,
        enumerator=selection.enumerator,
        pruning=selection.pruning,
        memo_entries=len(memo),
        query=query,
        ranked_plans=ranked,
    )


class Optimizer:
    """A reusable (enumerator, pruning, cost model) configuration.

    Parameters
    ----------
    enumerator:
        Partitioning strategy name (``"naive"``, ``"mincut_lazy"``,
        ``"mincut_branch"``, ``"mincut_conservative"``).
    pruning:
        ``"none"``, ``"acb"``, ``"pcb"``, ``"apcb"``, ``"apcbi"``,
        ``"apcbi_opt"`` or ``"dpconv"`` (the bottom-up subset-convolution
        fast path; falls back to DPccp when the bound cost model is not
        ``C_out``-shaped or ``topk > 1`` — the fallback is honest, the
        result reports ``pruning == "dpccp"``).
    cost_model_factory:
        Zero-argument callable producing a fresh cost model per query
        (models may bind per-query state, e.g. :class:`CoutCostModel`).
    config:
        Advancement toggles for APCBI; ignored by other prunings.
    heuristic:
        Join-heuristic name for APCBI's advancement 2 (``"goo"``,
        ``"quickpick"``, ``"min_selectivity"``); ignored by other prunings.
    plan_cache:
        Optional cross-query :class:`~repro.context.PlanCache`.  When set,
        ``optimize`` consults it before enumerating and stores every fresh
        result; one cache instance may be shared by many optimizers (the
        algorithm configuration is part of the key).
    telemetry:
        Optional :class:`~repro.telemetry.Telemetry` bundle.  When set it
        is threaded into every per-query context, so every run records one
        ``enumerate`` span and the cache path emits ``plan_cache_hit``
        events.  Telemetry never influences plan choice.
    topk:
        How many plans each class retains (default 1, the single best).
        With ``k > 1`` every run keeps the ``k`` cheapest plans per class
        and the result's ``ranked`` stream holds up to ``k`` complete
        plans, rank 1 first; :meth:`optimize_topk` overrides it per call.
        Ranked runs are never routed.
    auto_route:
        When True (the default), unbudgeted single-best runs are routed
        automatically where a route applies: the ``C_out`` route picks
        DPconv or DPccp by predicted work, the Haas route APCBI or DPccp
        by predicted pruning yield (:mod:`repro.core.routing` describes
        both).  The result reports the algorithm that ran, and an armed
        trace records an ``algorithm_selected`` event with the
        prediction.  Benchmarks that measure a named algorithm pass False.
    """

    def __init__(
        self,
        enumerator: str = "mincut_conservative",
        pruning: str = "apcbi",
        cost_model_factory: Callable[[], CostModel] = HaasCostModel,
        config: Optional[AdvancementConfig] = None,
        heuristic: str = "goo",
        plan_cache: Optional[PlanCache] = None,
        telemetry: Optional["Telemetry"] = None,
        topk: int = 1,
        auto_route: bool = True,
    ):
        if topk < 1:
            raise ValueError(f"topk must be >= 1, got {topk}")
        self.enumerator = enumerator
        self.pruning = pruning
        self._cost_model_factory = cost_model_factory
        self.config = config if config is not None else AdvancementConfig.all_on()
        self.heuristic = heuristic
        self.plan_cache = plan_cache
        self.telemetry = telemetry
        self.topk = topk
        self.auto_route = auto_route
        self._signature: Optional[str] = None
        # Fail fast on typos.
        get_partitioning(enumerator)
        get_heuristic(heuristic)
        algorithm_label(enumerator, pruning)

    # ------------------------------------------------------------------

    def _context_for(
        self, query: Query, budget: Optional["Budget"], topk: int
    ) -> OptimizationContext:
        """One fresh context per query: provider, bound model, builder."""
        return OptimizationContext.for_query(
            query,
            cost_model=self._cost_model_factory,
            budget=budget,
            telemetry=self.telemetry,
            topk=topk,
        )

    def _config_signature(self) -> str:
        """Cache-key fragment identifying this optimizer configuration.

        Two optimizers with the same signature produce the same plan for
        the same fingerprint, so they may share cache entries; anything
        that can change the winning plan (enumerator, pruning, cost model,
        heuristic, advancement toggles, routing) is included.  Routing
        adds a marker only when it is off, so the default keys keep their
        format and persisted entries stay addressable.
        """
        if self._signature is None:
            flags = "".join(
                "1" if getattr(self.config, name) else "0"
                for name in ADVANCEMENT_NAMES
            )
            self._signature = "|".join(
                (
                    self.enumerator,
                    self.pruning,
                    self._cost_model_factory().name,
                    self.heuristic,
                    flags,
                )
            )
            if not self.auto_route:
                self._signature += "|unrouted"
        return self._signature

    def _cache_key(self, fp_key: str, topk: int) -> str:
        """Cache key for one (configuration, fingerprint, k) combination.

        ``k=1`` keys keep the pre-top-k format, so existing persisted or
        shared entries stay addressable; ranked runs get their own keys
        because their entries carry the whole top-k list.
        """
        if topk > 1:
            return f"{self._config_signature()}|k{topk}|{fp_key}"
        return f"{self._config_signature()}|{fp_key}"

    def optimize(
        self,
        query: Query,
        budget: Optional["Budget"] = None,
        context: Optional[OptimizationContext] = None,
    ) -> OptimizationResult:
        """Find an optimal join tree for ``query``.

        ``budget`` (a :class:`repro.resilience.Budget`) makes the run
        *anytime*: enumeration checks it cooperatively and raises
        :class:`~repro.errors.BudgetExceeded` when it runs out.  Before
        propagating, the exception is enriched with the best complete plan
        registered so far (``partial_plan``, relabeled into the caller's
        relation numbering when advancement 6 renumbered the graph), so
        callers such as :class:`repro.resilience.ResilientOptimizer` can
        degrade gracefully instead of losing all work.

        ``context`` lets a caller that already built an
        :class:`~repro.context.OptimizationContext` for this query (the
        resilience ladder shares one across every rung) hand it in; by
        default a fresh context is created per call.  A handed-in context
        carries the run's budget: a ``budget`` beside it must be that same
        object.
        """
        if context is not None:
            budget = _adopted_budget(context, query, budget)
        if budget is not None:
            budget.start()
        if context is None:
            context = self._context_for(query, budget, self.topk)
        if self.plan_cache is not None:
            return self._optimize_cached(context)
        return self._run(context)

    def optimize_topk(
        self,
        query: Query,
        k: Optional[int] = None,
        budget: Optional["Budget"] = None,
    ) -> OptimizationResult:
        """Ranked optimization: retain the ``k`` cheapest plans per class.

        Returns an :class:`OptimizationResult` whose ``ranked`` stream
        holds up to ``k`` distinct complete plans in nondecreasing
        (cost, fingerprint) order, rank 1 first.  Every returned plan is
        validated (finite numbers, structural soundness) before the result
        is handed back.

        Prefix property: rank 1 costs exactly (by ``float.hex``) what
        :meth:`optimize` returns for the same configuration, and is the
        same plan bit for bit whenever both runs enumerate alike — the
        k-bounded memo degenerates to the single-best store at ``k=1``
        and only *loosens* pruning bounds beyond it.  That covers the
        Haas routes (a routed DPccp run uses APCBI's labels),
        ``auto_route=False`` and DPccp itself.  A routed ``C_out``
        request is the exception: :meth:`optimize` is served by DPconv
        or DPccp, while the ranked run is top-down APCBI in its
        renumbered numbering, so of several equal-cost plans rank 1 may
        be another one.
        """
        if k is None:
            k = self.topk
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        run_context = self._context_for(query, budget, k)
        result = self.optimize(query, budget=budget, context=run_context)
        previous = None
        for rank, plan in enumerate(result.ranked, start=1):
            check_finite(plan)
            validate_plan(plan, query)
            if previous is not None and plan.cost < previous:
                raise PlanValidationError(
                    f"ranked stream out of order at rank {rank}: "
                    f"{plan.cost!r} < {previous!r}"
                )
            previous = plan.cost
        return result

    def _run(self, context: OptimizationContext) -> OptimizationResult:
        """Enumerate with the selected algorithm (no cache involved)."""
        return _execute(
            context,
            partial(
                select,
                context,
                self.pruning,
                self.enumerator,
                config=self.config,
                heuristic=self.heuristic,
                auto_route=self.auto_route,
                oracle=self._oracle(context),
            ),
        )

    # -- plan cache --------------------------------------------------------

    def _optimize_cached(self, context: OptimizationContext) -> OptimizationResult:
        """Serve from / populate the cross-query plan cache.

        The key combines the query's canonical fingerprint with the
        optimizer's configuration signature, so isomorphic queries (up to
        estimate quantization) served by equivalent configurations share
        one entry.  A hit replays the stored canonical tree through the
        requesting query's context — cardinalities and costs on the
        returned plan are always native to the requesting query — and is
        labelled with the algorithm the entry records its miss ran on, so
        a hit predicts nothing.  An entry written before entries recorded
        it is labelled with the configured algorithm.
        """
        cache = self.plan_cache
        started = time.perf_counter()
        fp = fingerprint(context.query)
        key = self._cache_key(fp.key, context.topk)
        entry = cache.get(key)
        if entry is not None:
            plan = replay_plan(entry.canonical_plan, fp.mapping, context)
            ranked: Tuple[JoinTree, ...] = ()
            if context.topk > 1 and entry.canonical_ranked:
                ranked = tuple(
                    replay_plan(canonical, fp.mapping, context)
                    for canonical in entry.canonical_ranked
                )
            context.stats.plan_cache_hits += 1
            if self.telemetry is not None:
                self.telemetry.event("plan_cache_hit", key=key)
            enumerator, pruning = entry.algorithm or configured(
                context, self.enumerator, self.pruning
            )
            elapsed = time.perf_counter() - started
            return OptimizationResult(
                plan=plan,
                cost=plan.cost,
                stats=context.stats,
                elapsed=elapsed,
                enumerator=enumerator,
                pruning=pruning,
                memo_entries=0,
                query=context.query,
                ranked_plans=ranked,
            )
        result = self._run(context)
        result.stats.plan_cache_misses += 1
        # Never cache a plan whose numbers are not finite: a faulting cost
        # model (e.g. under fault injection) could otherwise poison the
        # cache and serve its garbage tree shape to healthy queries later.
        try:
            check_finite(result.plan)
            for ranked_plan in result.ranked_plans:
                check_finite(ranked_plan)
        except PlanValidationError:
            return result
        canonical = result.plan.relabel(fp.mapping)
        canonical_ranked = tuple(
            ranked_plan.relabel(fp.mapping) for ranked_plan in result.ranked_plans
        )
        # The taint on `result` is its wall-clock `elapsed` field; the
        # relabeled plan trees (deterministic) are what gets served, and
        # the timing rides along only as admission provenance for the
        # durable tier — it never influences any plan decision.
        cache.put(  # repro: disable=determinism
            key,
            CachedPlan(
                canonical,
                fp.payload,
                canonical_ranked,
                cold_seconds=result.elapsed,
                expansions=result.stats.ccps_enumerated,
                algorithm=(result.enumerator, result.pruning),
            ),
        )
        return result

    def _oracle(self, context: OptimizationContext) -> Optional[Oracle]:
        """APCBI_Opt's oracle pre-pass, when APCBI_Opt will serve.

        It runs before :func:`_execute` starts its clock.  It shares the
        run's budget: it is excluded from the *measured* time (§V-C) but
        not from the caller's wall-clock allowance — an anytime contract
        that ignored the most expensive phase would be useless.  It runs
        on a fork of the query's context — same provider (its memoized
        statistics carry over into enumeration), fresh counters (its work
        stays untimed/uncounted).  Only a cache miss may call this.
        """
        if self.pruning != "apcbi_opt" or routes_by_work(context, self.auto_route):
            return None
        oracle = DPccp(context.fork())
        plan = oracle.run()
        return plan, oracle.optimal_class_costs()


def optimize(
    query: Query,
    enumerator: str = "mincut_conservative",
    pruning: str = "apcbi",
    cost_model_factory: Callable[[], CostModel] = HaasCostModel,
    config: Optional[AdvancementConfig] = None,
    heuristic: str = "goo",
    budget: Optional["Budget"] = None,
    plan_cache: Optional[PlanCache] = None,
    telemetry: Optional["Telemetry"] = None,
) -> OptimizationResult:
    """One-shot convenience wrapper around :class:`Optimizer`."""
    return Optimizer(
        enumerator=enumerator,
        pruning=pruning,
        cost_model_factory=cost_model_factory,
        config=config,
        heuristic=heuristic,
        plan_cache=plan_cache,
        telemetry=telemetry,
    ).optimize(query, budget=budget)


def optimize_topk(
    query: Query,
    k: int,
    enumerator: str = "mincut_conservative",
    pruning: str = "apcbi",
    cost_model_factory: Callable[[], CostModel] = HaasCostModel,
    config: Optional[AdvancementConfig] = None,
    heuristic: str = "goo",
    budget: Optional["Budget"] = None,
    plan_cache: Optional[PlanCache] = None,
    telemetry: Optional["Telemetry"] = None,
) -> OptimizationResult:
    """One-shot ranked optimization: the ``k`` cheapest plans, rank 1 first.

    ``result.ranked`` holds up to ``k`` distinct validated plans in
    nondecreasing (cost, fingerprint) order; ``result.plan`` is rank 1.
    It costs exactly what :func:`optimize` returns for the same
    configuration and, except under a routed ``C_out`` model, is the same
    plan (see :meth:`Optimizer.optimize_topk`).
    """
    return Optimizer(
        enumerator=enumerator,
        pruning=pruning,
        cost_model_factory=cost_model_factory,
        config=config,
        heuristic=heuristic,
        plan_cache=plan_cache,
        telemetry=telemetry,
        topk=k,
    ).optimize_topk(query, k=k, budget=budget)


def _run_baseline(
    name: str,
    query: Query,
    cost_model_factory: Callable[[], CostModel],
    budget: Optional["Budget"],
    telemetry: Optional["Telemetry"],
    topk: int = 1,
) -> OptimizationResult:
    if budget is not None:
        budget.start()
    context = OptimizationContext.for_query(
        query,
        cost_model=cost_model_factory,
        budget=budget,
        telemetry=telemetry,
        topk=topk,
    )
    return _execute(context, partial(select, context, name))


def run_dpconv(
    query: Query,
    cost_model_factory: Callable[[], CostModel] = CoutCostModel,
    budget: Optional["Budget"] = None,
    telemetry: Optional["Telemetry"] = None,
) -> OptimizationResult:
    """Run the DPconv baseline with the same result envelope as DPccp.

    Unlike ``Optimizer(pruning="dpconv")`` this does **not** fall back:
    an ineligible configuration (non-``C_out``-shaped model) raises
    :class:`~repro.errors.OptimizationError`, which is what a benchmark
    harness comparing the two baselines wants.  The default cost model is
    therefore :class:`~repro.cost.cout.CoutCostModel`, the one shipped
    model inside DPconv's envelope.
    """
    return _run_baseline("dpconv", query, cost_model_factory, budget, telemetry)


def run_dpccp(
    query: Query,
    cost_model_factory: Callable[[], CostModel] = HaasCostModel,
    budget: Optional["Budget"] = None,
    telemetry: Optional["Telemetry"] = None,
    topk: int = 1,
) -> OptimizationResult:
    """Run the bottom-up baseline with the same result envelope."""
    return _run_baseline(
        "dpccp", query, cost_model_factory, budget, telemetry, topk
    )
