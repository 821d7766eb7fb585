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

Every algorithm runs through one path.  :meth:`Optimizer._select` decides
which algorithm serves a request, and the module-level :func:`_execute`
runs it: it alone owns the timer, the ``enumerate`` span, the
``BudgetExceeded`` salvage and the result envelope.  :func:`run_dpccp`
and :func:`run_dpconv` are thin calls into the same :func:`_execute`.

Under a ``C_out``-shaped cost model :meth:`Optimizer._select` routes by
predicted work: one :func:`~repro.baselines.dpccp.enumerate_csg` pass
lists the query graph's connected sets, DPconv's work over them is
counted exactly and DPccp's estimated as :data:`DPCCP_WORK_PER_CSG` per
set, and the cheaper of the two runs on the same list.

Timing rule (§V-C), applied by :func:`_execute` alone: the measured
interval covers everything the algorithm does at query time — including
the GOO heuristic and the graph renumbering of APCBI — but *excludes* the
DPccp pre-pass that supplies APCBI_Opt's oracle upper bounds ("we do not
include the pre-computation time", §V-C), which runs before the clock
starts.  Building the per-query context is never timed.  A routed run is
timed from before its connected-set pass, the enumeration the served
algorithm would otherwise run itself.  A plan-cache hit is timed from
before the fingerprint to the replayed plan.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple, Type

from repro.baselines.dpccp import DPccp, enumerate_csg
from repro.baselines.dpconv import (
    DPconv,
    convolution_work,
    eligible as dpconv_eligible,
)
from repro.context.context import OptimizationContext
from repro.context.fingerprint import fingerprint
from repro.context.plancache import CachedPlan, PlanCache, replay_plan
from repro.core.acb import AcbPlanGenerator
from repro.core.advancements import ADVANCEMENT_NAMES, AdvancementConfig
from repro.core.apcb import ApcbPlanGenerator
from repro.core.apcbi import ApcbiPlanGenerator
from repro.core.pcb import PcbPlanGenerator
from repro.core.plangen import PlanGeneratorBase, TopDownPlanGenerator
from repro.cost.cout import CoutCostModel
from repro.cost.haas import HaasCostModel
from repro.cost.model import CostModel
from repro.errors import BudgetExceeded, UnknownAlgorithmError
from repro.graph.renumber import invert_mapping, remap_bitset, renumber_mapping
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
    "PRUNING_STRATEGIES",
    "PRUNING_SUFFIXES",
    "algorithm_label",
]

#: DPccp's predicted work per connected set, in DPconv split probes.
#: The router counts DPconv's work exactly (``convolution_work``: the
#: splits its sweep will probe) and predicts DPccp's as this constant
#: times the number of connected sets.  Against the flat DPccp the two
#: cross lower than this (``BENCH_enumspeed.json`` and the ``cold_cout``
#: pool): cycle-12 has 199 split probes per connected set and DPconv
#: takes 0.89x DPccp's time (a near tie); acyclic-14 has 295 and DPconv
#: takes 1.2-1.3x, so this constant misroutes it; chain-14 (311, DPconv
#: 1.6-1.7x) and cycle-13 (364, 1.4-1.5x) go to DPccp.  It stays at 300
#: because DPconv and DPccp break exact cost ties differently, so moving
#: it would change the plan (not the cost) some queries get.
#: docs/dpconv.md tabulates the rows.
DPCCP_WORK_PER_CSG = 300

#: Pruning name -> plan generator class for the simple (non-APCBI) variants.
PRUNING_STRATEGIES: Dict[str, Type[PlanGeneratorBase]] = {
    "none": TopDownPlanGenerator,
    "acb": AcbPlanGenerator,
    "pcb": PcbPlanGenerator,
    "apcb": ApcbPlanGenerator,
}

#: Table I display suffixes.
PRUNING_SUFFIXES: Dict[str, str] = {
    "none": "",
    "acb": "_ACB",
    "pcb": "_PCB",
    "apcb": "_APCB",
    "apcbi": "_APCBI",
    "apcbi_opt": "_APCBI_Opt",
}

#: What a ``prepare`` callable hands :func:`_execute`: the algorithm
#: (anything with ``run()`` and ``memo``), the context it runs on (a
#: relabeled one under renumbering), the renumbering its run uses
#: (``None`` for the caller's numbering) and a complete heuristic tree in
#: the caller's numbering, the last-resort salvage (or ``None``).
_Prepared = Tuple[Any, OptimizationContext, Optional[List[int]], Optional[JoinTree]]


@dataclass(frozen=True)
class _Route:
    """A selection made by predicted work (see :meth:`Optimizer._select`)."""

    #: Clock reading before the connected-set pass: the run's start.
    started: float
    #: Candidate algorithm -> predicted work, in DPconv split probes.
    predicted: Dict[str, int]


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
    context: OptimizationContext,
    budget: Optional["Budget"],
    enumerator: str,
    pruning: str,
    prepare: Callable[..., _Prepared],
    route: Optional[_Route] = None,
) -> OptimizationResult:
    """Run one algorithm on ``context``: the single execution path.

    ``prepare(context=, budget=)`` builds the algorithm inside the measured
    interval (GOO and renumbering are timed, §V-C).  A ``route`` moves the
    start of that interval back to its connected-set pass, and its
    prediction lands on the ``enumerate`` span as an
    ``algorithm_selected`` event beside the run's actual
    ``ccps_considered``.  A
    :class:`~repro.errors.BudgetExceeded` leaves enriched with the best
    complete plans registered so far (``partial_plan`` /
    ``partial_ranked``, in the caller's numbering; the heuristic tree when
    enumeration registered no root plan) and the memo size, so callers
    such as :class:`repro.resilience.ResilientOptimizer` can degrade
    gracefully instead of losing all work.
    """
    query = context.query
    root = query.graph.all_vertices
    telemetry = context.telemetry
    started = route.started if route is not None else time.perf_counter()
    span = NULL_SPAN
    if telemetry is not None:
        span = telemetry.span(
            "enumerate",
            enumerator=enumerator,
            pruning=pruning,
            relations=query.n_relations,
        )
    with span:
        algorithm, run_context, mapping, heuristic_tree = prepare(
            context=context, budget=budget
        )
        inverse = invert_mapping(mapping) if mapping is not None else None
        memo = algorithm.memo
        considered = context.stats.ccps_considered
        try:
            plan = algorithm.run()
        except BudgetExceeded as error:
            salvage = [
                tree if inverse is None else tree.relabel(inverse)
                for tree in memo.best_k(root)
            ]
            if not salvage and heuristic_tree is not None:
                salvage = [heuristic_tree]
            error.partial_plan = salvage[0] if salvage else None
            error.partial_ranked = tuple(salvage)
            error.memo_entries = len(memo)
            raise
        # Statistics objects the run built: a renumbered run prices on its
        # relabeled context's provider after the heuristic priced on the
        # caller's, so both count.
        stats_classes = context.provider.cache_size()
        if run_context is not context:
            stats_classes += run_context.provider.cache_size()
        # Counts come from the run's counters, not its memotable: DPconv
        # and DPccp register only the winning plan's classes there.
        span.set(
            ccps_enumerated=context.stats.ccps_enumerated,
            operator_pricings=context.stats.operator_pricings,
            plan_classes_built=context.stats.plan_classes_built,
            stats_classes=stats_classes,
        )
        if route is not None:
            span.event(
                "algorithm_selected",
                candidates=tuple(route.predicted),
                predicted_work=dict(route.predicted),
                choice=pruning,
                ccps_considered=context.stats.ccps_considered - considered,
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
        enumerator=enumerator,
        pruning=pruning,
        memo_entries=len(memo),
        query=query,
        ranked_plans=ranked,
    )


def _plain(factory: Callable[..., Any]) -> Callable[..., _Prepared]:
    """``prepare`` for an algorithm run in the caller's numbering."""

    def prepare(context: OptimizationContext, budget: Optional["Budget"]):
        return factory(context=context, budget=budget), context, None, None

    return prepare


def _prepare_dpconv_fallback(
    context: OptimizationContext, budget: Optional["Budget"]
) -> _Prepared:
    """DPccp serving an ineligible ``pruning="dpconv"`` request.

    DPccp covers the same plan space under any cost model and with ranked
    retention; a ``dpconv_fallback`` event on the ``enumerate`` span
    records why it ran.
    """
    if context.telemetry is not None:
        context.telemetry.event(
            "dpconv_fallback",
            cost_model=context.cost_model.name,
            topk=context.topk,
            relations=context.query.n_relations,
        )
    return DPccp(context=context, budget=budget), context, None, None


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
    dpconv_auto:
        When True (the default), unbudgeted single-best runs whose bound
        cost model is ``C_out``-shaped (and which DPconv's 24-relation
        layout can hold) are routed by predicted work instead of running
        the requested top-down algorithm: one connected-set pass predicts
        DPconv's work exactly and DPccp's as :data:`DPCCP_WORK_PER_CSG`
        per connected set, and the smaller prediction runs, on the same
        connected-set list.  Dense graphs go to DPconv, sparse ones to
        DPccp.  Every algorithm involved is exact, so the optimal *cost*
        is unchanged; only wall-clock (and, on exact-cost ties, plan
        shape) can differ.  The result reports ``pruning == "dpconv"`` or
        ``"dpccp"`` for the algorithm that ran, and an armed trace
        records an ``algorithm_selected`` event with the prediction.
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
        dpconv_auto: bool = True,
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
        self.dpconv_auto = dpconv_auto
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
        heuristic, advancement toggles) is included.
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
        default a fresh context is created per call.
        """
        if context is not None:
            if context.query is not query:
                raise ValueError(
                    "context was built for a different query object"
                )
            if budget is None:
                budget = context.budget
        if budget is not None:
            budget.start()
        if context is None:
            context = self._context_for(query, budget, self.topk)
        if self.plan_cache is not None:
            return self._optimize_cached(context, budget)
        return self._run(context, budget)

    def optimize_topk(
        self,
        query: Query,
        k: Optional[int] = None,
        budget: Optional["Budget"] = None,
    ) -> OptimizationResult:
        """Ranked optimization: retain the ``k`` cheapest plans per class.

        Returns an :class:`OptimizationResult` whose ``ranked`` stream
        holds up to ``k`` distinct complete plans in nondecreasing
        (cost, fingerprint) order, rank 1 first.  Rank 1 is bit-for-bit
        the plan :meth:`optimize` returns — the k-bounded memo degenerates
        to the single-best store at ``k=1`` and only *loosens* pruning
        bounds beyond it (prefix property).  Every returned plan is
        validated (finite numbers, structural soundness) before the result
        is handed back.
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

    def _configured(self, context: OptimizationContext) -> Tuple[str, str]:
        """The configured ``(enumerator, pruning)``, before any routing.

        ``pruning="dpconv"`` runs DPconv when :func:`dpconv_eligible`
        allows it and falls back to DPccp otherwise, labelled ``dpccp``.
        """
        if self.pruning != "dpconv":
            return self.enumerator, self.pruning
        if dpconv_eligible(context):
            return "dpconv", "dpconv"
        return "dpccp", "dpccp"

    def _select(
        self, context: OptimizationContext, budget: Optional["Budget"]
    ) -> Tuple[str, str, Callable[..., _Prepared], Optional[_Route]]:
        """The algorithm that serves ``context``, and how to build it.

        Returns ``(enumerator, pruning, prepare, route)``.  Unbudgeted
        runs with ``dpconv_auto`` on and a context DPconv is eligible for
        (a ``C_out``-shaped bound model, ``topk == 1``) are routed by
        predicted work: one :func:`enumerate_csg` pass lists the
        connected sets, DPconv's work over them is exact
        (:func:`convolution_work`) and DPccp's is estimated as
        :data:`DPCCP_WORK_PER_CSG` per set; the smaller prediction wins
        (DPconv on a tie) and is handed the list, so nothing enumerates
        the sets twice.  A budgeted run wants the top-down generators'
        anytime best-so-far salvage and keeps the configured algorithm,
        as does everything else.  Building an APCBI_Opt run starts its
        oracle pre-pass, so only a cache miss may call this.
        """
        enumerator, pruning = self._configured(context)
        if pruning == "dpconv":
            return enumerator, pruning, _plain(DPconv), None
        if pruning == "dpccp":
            return enumerator, pruning, _prepare_dpconv_fallback, None
        if self.dpconv_auto and budget is None and dpconv_eligible(context):
            started = time.perf_counter()
            csgs = list(enumerate_csg(context.query.graph))
            predicted = {
                "dpconv": convolution_work(csgs),
                "dpccp": DPCCP_WORK_PER_CSG * len(csgs),
            }
            choice = min(predicted, key=predicted.__getitem__)
            algorithm = DPconv if choice == "dpconv" else DPccp
            prepare = _plain(partial(algorithm, csgs=csgs))
            return choice, choice, prepare, _Route(started, predicted)
        if pruning in PRUNING_STRATEGIES:
            prepare = _plain(
                partial(
                    PRUNING_STRATEGIES[pruning],
                    partitioning=get_partitioning(enumerator),
                )
            )
        else:
            prepare = self._prepare_apcbi(context, budget)
        return enumerator, pruning, prepare, None

    def _run(
        self, context: OptimizationContext, budget: Optional["Budget"]
    ) -> OptimizationResult:
        """Enumerate with the selected algorithm (no cache involved)."""
        enumerator, pruning, prepare, route = self._select(context, budget)
        return _execute(context, budget, enumerator, pruning, prepare, route)

    # -- plan cache --------------------------------------------------------

    def _optimize_cached(
        self, context: OptimizationContext, budget: Optional["Budget"]
    ) -> OptimizationResult:
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
            enumerator, pruning = entry.algorithm or self._configured(context)
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
        result = self._run(context, budget)
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

    # -- APCBI / APCBI_Opt -------------------------------------------------

    def _prepare_apcbi(
        self, context: OptimizationContext, budget: Optional["Budget"]
    ) -> Callable[..., _Prepared]:
        """Run APCBI_Opt's oracle pre-pass; return the timed preparation.

        The pre-pass runs here, before :func:`_execute` starts its clock.
        It shares the run's budget: it is excluded from the *measured*
        time (§V-C) but not from the caller's wall-clock allowance — an
        anytime contract that ignored the most expensive phase would be
        useless.  It runs on a fork of the query's context — same provider
        (its memoized statistics carry over into enumeration), fresh
        counters (its work stays untimed/uncounted).
        """
        config = self.config
        heuristic = get_heuristic(self.heuristic)
        partitioning = get_partitioning(self.enumerator)
        oracle_plan: Optional[JoinTree] = None
        oracle_bounds: Optional[Dict[int, float]] = None
        if self.pruning == "apcbi_opt":
            oracle = DPccp(context=context.fork(), budget=budget)
            oracle_plan = oracle.run()
            oracle_bounds = oracle.optimal_class_costs()

        def prepare(context, budget):
            query = context.query
            upper_bounds = oracle_bounds
            heuristic_tree = mapping = None
            if config.renumber_graph and query.n_relations > 2:
                # Advancement 6 needs a heuristic join tree before
                # enumeration.  For APCBI_Opt the oracle's optimal tree
                # doubles as the heuristic; otherwise the heuristic runs
                # here (its tree also seeds the uB table, advancement 2).
                heuristic_tree = oracle_plan
                if heuristic_tree is None:
                    built = heuristic.build(query, context.builder)
                    heuristic_tree = built.tree
                    upper_bounds = {}
                    if config.heuristic_upper_bounds:
                        upper_bounds = dict(built.subtree_costs)
                mapping = renumber_mapping(heuristic_tree, query.n_relations)
                # The renumbered query runs on a relabeled context: own
                # provider and bound model, shared counters and budget.
                context = context.relabeled(mapping)
                if upper_bounds:
                    upper_bounds = {
                        remap_bitset(vertex_set, mapping): cost
                        for vertex_set, cost in upper_bounds.items()
                    }
            generator = ApcbiPlanGenerator(
                partitioning=partitioning,
                context=context,
                config=config,
                upper_bounds=upper_bounds,
                heuristic=heuristic,
                budget=budget,
            )
            salvage = heuristic_tree or generator.heuristic_tree
            return generator, context, mapping, salvage

        return prepare


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
    nondecreasing (cost, fingerprint) order; ``result.plan`` is rank 1 and
    identical to what :func:`optimize` returns for the same configuration.
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
    algorithm_cls: Type[Any],
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
    name = algorithm_cls.name
    return _execute(context, budget, name, name, _plain(algorithm_cls))


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
    return _run_baseline(DPconv, query, cost_model_factory, budget, telemetry)


def run_dpccp(
    query: Query,
    cost_model_factory: Callable[[], CostModel] = HaasCostModel,
    budget: Optional["Budget"] = None,
    telemetry: Optional["Telemetry"] = None,
    topk: int = 1,
) -> OptimizationResult:
    """Run the bottom-up baseline with the same result envelope."""
    return _run_baseline(
        DPccp, query, cost_model_factory, budget, telemetry, topk
    )
