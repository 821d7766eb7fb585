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
set, and the cheaper of the two runs on the same list.  Under Haas costs
an APCBI request is routed by predicted pruning yield: GOO runs once, and
DPccp serves when its cost leaves more than :data:`HAAS_LIVE_SHARE` of the
classes nearest the root live, or when the graph has at most
:data:`HAAS_CSG_CAP` connected sets (listed once and handed to DPccp).
DPccp then runs in the caller's numbering and breaks ties under the labels
of the numbering APCBI would have used (so the plan is APCBI's, bit for
bit); otherwise APCBI serves, seeded with the same GOO run.

Timing rule (§V-C), applied by :func:`_execute` alone: the measured
interval covers everything the algorithm does at query time — including
the GOO heuristic and the graph renumbering of APCBI — but *excludes* the
DPccp pre-pass that supplies APCBI_Opt's oracle upper bounds ("we do not
include the pre-computation time", §V-C), which runs before the clock
starts.  Building the per-query context is never timed.  Routing is timed
and runs inside the ``enumerate`` span: :func:`_execute` calls
:meth:`Optimizer._select`, so a routed run's connected-set pass, heuristic
run and live-share sample count like the work the served algorithm would
otherwise do itself.  A plan-cache hit is timed from before the
fingerprint to the replayed plan.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from functools import partial
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple, Type

from repro.baselines.dpccp import DPccp, enumerate_csg, enumerate_csg_upto
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
from repro.graph import bitset
from repro.graph.renumber import invert_mapping, remap_bitset, renumber_mapping
from repro.heuristics.base import HeuristicResult
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

#: DPccp's predicted work per connected set, in DPconv split probes.
#: The router counts DPconv's work exactly (``convolution_work``: the
#: splits its sweep will probe) and predicts DPccp's as this constant
#: times the number of connected sets.  Against DPccp's ``C_out`` sweep,
#: which prices each class once, the two cross near 100 split probes per
#: connected set (``cold_cout`` pool, best of 5): star-12 (85) takes
#: DPconv 0.6-1.0x DPccp's time and stays on DPconv; chain-12 (104) takes
#: it 1.3-1.6x, cyclic-12 (109-111) 0.9-1.0x, acyclic-12 (118) 1.1-1.4x,
#: cycle-12 (199) 2.0-2.8x and acyclic-14 (295) 2.9x, and all go to
#: DPccp.  Dense shapes cross later than sparse ones (drawn cyclic-12 at
#: 112-119 takes DPconv 0.8-0.9x DPccp's time, acyclic-11 at 69-78
#: 1.0-1.5x), which one constant per set cannot separate.
#: docs/dpconv.md tabulates the rows.
DPCCP_WORK_PER_CSG = 100

#: Live share above which DPccp serves a Haas APCBI request.  Under Haas
#: every join reads both inputs, so a connected class ``S`` other than the
#: root whose ``pages(S)`` exceeds GOO's cost is in no optimal plan: APCBI
#: prunes it at its parent's LBE and never expands it, while DPccp's sweep
#: still lists and charges every ccp of it.  The router samples the
#: connected classes of size ``n - 1`` and ``n - 2`` (:func:`_live_share`);
#: when more than this share of them is live, pruning has little to cut
#: and DPccp is faster.  Measured over 126 queries (the ``cold_haas``
#: shapes at three statistics seeds, stars with ordinary statistics,
#: spanning trees plus 1-3 edges at n = 12-16; best of 5) against DPccp's
#: page-priced sweep, summed APCBI time over DPccp's by live share: below
#: 0.5, 29 queries, 1.02 (DPccp faster on 13); 0.5-0.8, 15, 1.82 (on all
#: 15); 0.8-0.9, 7, 2.26; 0.9-0.95, 8, 2.23; 0.95 and up, 67, 3.33 (on
#: all).  At 0.5 the set is served in 0.40x APCBI's time, against 0.49x
#: at the former 0.9, and no query routed to DPccp is slower than APCBI;
#: below 0.5 the two are near ties on most queries.  docs/dpconv.md has
#: the study.
HAAS_LIVE_SHARE = 0.5

#: Most connected sets at which DPccp serves a low-live-share Haas
#: request.  At or below :data:`HAAS_LIVE_SHARE` GOO's bound leaves most
#: classes near the root dead, but on a small graph DPccp's whole sweep
#: can still cost less than APCBI's pruned search.  The router then
#: lists the connected sets, stopping one past this cap; at or under it
#: DPccp serves with the list, over it APCBI serves.  Measured over the
#: 126 study queries of :data:`HAAS_LIVE_SHARE` plus eleven probes (best
#: of 9, interleaved, DPccp under APCBI's labels): the ``cold_haas``
#: pool's acyclic-12 (live share 0.23, 417 sets) takes DPccp 0.52x
#: APCBI's time, a sparse acyclic-14 (0.24, 684 sets) 1.85x and
#: enumspeed's Haas acyclic-19 (0.19, 4,083 sets) 11x.  Every cap from
#: 417 to 620 makes the same choices on the set, whose routed time falls
#: 914 -> 904 ms (the pool's 95 -> 81 ms).  Of the 21 low-share queries
#: the cap sends to DPccp, three run 1.5-1.85x slower there; no cap that
#: keeps the pool's acyclic-12 on DPccp avoids them.  docs/dpconv.md has
#: the study.
HAAS_CSG_CAP = 512

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

#: APCBI_Opt's oracle: DPccp's optimal plan and its optimal class costs.
_Oracle = Tuple[JoinTree, Dict[int, float]]


@dataclass(frozen=True)
class _Selection:
    """The algorithm that serves a request, built and ready to run."""

    enumerator: str
    pruning: str
    #: Anything with ``run()`` and ``memo``.
    algorithm: Any
    #: The context it runs on (a relabeled one under renumbering).
    context: OptimizationContext
    #: The renumbering its run uses (``None``: the caller's numbering).
    mapping: Optional[List[int]] = None
    #: A complete heuristic tree in the caller's numbering, the
    #: last-resort salvage (or ``None``).
    salvage: Optional[JoinTree] = None
    #: What an automatic route saw, recorded on its ``algorithm_selected``
    #: event: the candidates and the prediction that chose between them.
    #: ``None`` when nothing was routed.
    evidence: Optional[Dict[str, Any]] = None


def _live_share(
    context: OptimizationContext, bound: float
) -> Tuple[float, int]:
    """Share of the classes nearest the root that ``bound`` leaves live.

    Samples the connected classes of size ``n - 1`` and ``n - 2`` (at most
    ``n (n + 1) / 2`` sets, no connected-set pass).  A class is live when
    ``pages(S) <= bound``: under Haas a join reads both inputs, so a plan
    that joins a class above the bound costs more than the bound.  Returns
    the share and the number of classes sampled (a share of 1 when there
    are none).  Pages are priced unmemoized: the run the route picks may
    never ask for these classes (APCBI runs relabeled, on a context with
    its own provider).
    """
    graph = context.query.graph
    pages = context.provider.estimate_pages
    root = graph.all_vertices
    n = graph.n_vertices
    sampled = live = 0
    for first in range(n):
        outer = root ^ bitset.singleton(first)
        nearest = [outer]
        nearest.extend(
            outer ^ bitset.singleton(second) for second in range(first + 1, n)
        )
        for vertex_set in nearest:
            if graph.is_connected(vertex_set):
                sampled += 1
                live += pages(vertex_set) <= bound
    return (live / sampled if sampled else 1.0), sampled


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
    context: OptimizationContext, select: Callable[[], _Selection]
) -> OptimizationResult:
    """Run one algorithm on ``context``: the single execution path.

    ``select()`` picks and builds the algorithm inside the measured
    interval and the ``enumerate`` span (routing, GOO and renumbering are
    timed, §V-C).  A routed selection's prediction lands on the span as
    an ``algorithm_selected`` event beside the run's actual
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
    started = time.perf_counter()
    span = NULL_SPAN
    if telemetry is not None:
        span = telemetry.span("enumerate", relations=query.n_relations)
    with span:
        selection = select()
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
        automatically where a route applies (:meth:`_select`):

        * a ``C_out``-shaped bound cost model (within DPconv's 24-relation
          layout) routes any top-down request by predicted work: one
          connected-set pass predicts DPconv's work exactly and DPccp's
          as :data:`DPCCP_WORK_PER_CSG` per connected set, and the smaller
          prediction runs, on the same connected-set list.  Both are
          exact, so the optimal *cost* is unchanged; on exact-cost ties
          DPconv's plan shape can differ.
        * a Haas model routes ``pruning="apcbi"`` by predicted pruning
          yield: the heuristic (GOO by default) runs once, and DPccp
          serves when more than :data:`HAAS_LIVE_SHARE` of the classes
          nearest the root are live under its cost, or when the graph
          has at most :data:`HAAS_CSG_CAP` connected sets.  DPccp then
          breaks ties under the labels of the numbering APCBI would have
          used, so the plan is APCBI's bit for bit.

        The result reports the algorithm that ran (``pruning ==
        "dpconv"``, ``"dpccp"`` or the configured one), and an armed trace
        records an ``algorithm_selected`` event with the prediction.
        Benchmarks that measure a named algorithm pass False.
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

    def _routes_by_work(
        self, context: OptimizationContext, budget: Optional["Budget"]
    ) -> bool:
        """Whether the ``C_out`` route (DPconv or DPccp) serves ``context``."""
        return self.auto_route and budget is None and dpconv_eligible(context)

    def _select(
        self,
        context: OptimizationContext,
        budget: Optional["Budget"],
        oracle: Optional[_Oracle] = None,
    ) -> _Selection:
        """The algorithm that serves ``context``, built and ready to run.

        :func:`_execute` calls this inside its measured interval.  Two
        routes apply to unbudgeted runs with ``auto_route`` on:

        * A context DPconv is eligible for (a ``C_out``-shaped bound
          model, ``topk == 1``) is routed by predicted work: one
          :func:`enumerate_csg` pass lists the connected sets, DPconv's
          work over them is exact (:func:`convolution_work`) and DPccp's
          is estimated as :data:`DPCCP_WORK_PER_CSG` per set; the smaller
          prediction wins (DPconv on a tie) and is handed the list, so
          nothing enumerates the sets twice.
        * A ``pruning="apcbi"`` request under Haas costs at ``topk == 1``
          is routed by predicted pruning yield (:meth:`_route_haas`).

        A budgeted run wants the top-down generators' anytime best-so-far
        salvage and keeps the configured algorithm, as does everything
        else.  ``oracle`` is APCBI_Opt's pre-pass (:meth:`_oracle`), run
        before the clock starts.
        """
        enumerator, pruning = self._configured(context)
        if pruning == "dpconv":
            return _Selection(
                enumerator, pruning, DPconv(context=context, budget=budget), context
            )
        if pruning == "dpccp":
            # DPccp serves an ineligible ``pruning="dpconv"`` request: it
            # covers the same plan space under any cost model and with
            # ranked retention.
            if context.telemetry is not None:
                context.telemetry.event(
                    "dpconv_fallback",
                    cost_model=context.cost_model.name,
                    topk=context.topk,
                    relations=context.query.n_relations,
                )
            return _Selection(
                enumerator, pruning, DPccp(context=context, budget=budget), context
            )
        if self._routes_by_work(context, budget):
            csgs = enumerate_csg(context.query.graph)
            predicted = {
                "dpconv": convolution_work(csgs),
                "dpccp": DPCCP_WORK_PER_CSG * len(csgs),
            }
            choice = min(predicted, key=predicted.__getitem__)
            algorithm = DPconv if choice == "dpconv" else DPccp
            return _Selection(
                choice,
                choice,
                algorithm(context=context, budget=budget, csgs=csgs),
                context,
                evidence={
                    "candidates": tuple(predicted),
                    "predicted_work": predicted,
                },
            )
        if (
            self.auto_route
            and budget is None
            and pruning == "apcbi"
            and context.topk == 1
            and isinstance(context.cost_model, HaasCostModel)
        ):
            return self._route_haas(context)
        if pruning in PRUNING_STRATEGIES:
            generator = PRUNING_STRATEGIES[pruning](
                context=context,
                budget=budget,
                partitioning=get_partitioning(enumerator),
            )
            return _Selection(enumerator, pruning, generator, context)
        return self._apcbi(context, budget, oracle)

    def _route_haas(self, context: OptimizationContext) -> _Selection:
        """APCBI or DPccp for an unbudgeted Haas request, by pruning yield.

        The configured heuristic (GOO by default) runs once; when more
        than :data:`HAAS_LIVE_SHARE` of the classes nearest the root are
        live under its cost (:func:`_live_share`), pruning has little to
        cut and DPccp serves.  Otherwise the connected sets are listed,
        stopping one past :data:`HAAS_CSG_CAP`: at or under the cap the
        whole DP costs less than the pruned search and DPccp serves with
        the list; over it APCBI serves and reuses the heuristic run.

        DPccp runs in the caller's numbering on the caller's context, and
        its fingerprints label leaf ``v`` as APCBI's renumbering of the
        same heuristic tree numbers it (advancement 6).  Both algorithms
        break exact-cost ties by ``(cost, fingerprint)`` in that
        numbering, so the plan is APCBI's bit for bit.
        """
        query = context.query
        built = get_heuristic(self.heuristic).build(query, context.builder)
        share, sampled = _live_share(context, built.cost)
        evidence = {
            "candidates": ("apcbi", "dpccp"),
            "live_share": share,
            "sampled_classes": sampled,
            "upper_bound": built.cost,
            "connected_sets": None,
            "stopped_at_cap": False,
        }
        csgs = None
        if share <= HAAS_LIVE_SHARE:
            csgs = enumerate_csg_upto(query.graph, HAAS_CSG_CAP)
            evidence["stopped_at_cap"] = csgs is None
            evidence["connected_sets"] = (
                HAAS_CSG_CAP + 1 if csgs is None else len(csgs)
            )
            if csgs is None:
                selection = self._apcbi(
                    context, budget=None, oracle=None, built=built
                )
                return replace(selection, evidence=evidence)
        labels = None
        if self._renumbers(query):
            labels = renumber_mapping(built.tree, query.n_relations)
        return _Selection(
            "dpccp",
            "dpccp",
            DPccp(context=context, budget=None, csgs=csgs, labels=labels),
            context,
            evidence=evidence,
        )

    def _renumbers(self, query: Query) -> bool:
        """Whether APCBI runs ``query`` renumbered (advancement 6)."""
        return self.config.renumber_graph and query.n_relations > 2

    def _run(
        self, context: OptimizationContext, budget: Optional["Budget"]
    ) -> OptimizationResult:
        """Enumerate with the selected algorithm (no cache involved)."""
        oracle = self._oracle(context, budget)
        return _execute(context, partial(self._select, context, budget, oracle))

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

    def _oracle(
        self, context: OptimizationContext, budget: Optional["Budget"]
    ) -> Optional[_Oracle]:
        """APCBI_Opt's oracle pre-pass, when APCBI_Opt will serve.

        It runs before :func:`_execute` starts its clock.  It shares the
        run's budget: it is excluded from the *measured* time (§V-C) but
        not from the caller's wall-clock allowance — an anytime contract
        that ignored the most expensive phase would be useless.  It runs
        on a fork of the query's context — same provider (its memoized
        statistics carry over into enumeration), fresh counters (its work
        stays untimed/uncounted).  Only a cache miss may call this.
        """
        if self.pruning != "apcbi_opt" or self._routes_by_work(context, budget):
            return None
        oracle = DPccp(context=context.fork(), budget=budget)
        plan = oracle.run()
        return plan, oracle.optimal_class_costs()

    def _apcbi(
        self,
        context: OptimizationContext,
        budget: Optional["Budget"],
        oracle: Optional[_Oracle],
        built: Optional[HeuristicResult] = None,
    ) -> _Selection:
        """Build APCBI (or APCBI_Opt, given its ``oracle``) for ``context``.

        ``built`` is a heuristic result the router already computed in the
        caller's numbering; APCBI then seeds and renumbers from it instead
        of running the heuristic again.
        """
        query = context.query
        heuristic = get_heuristic(self.heuristic)
        upper_bounds = heuristic_tree = mapping = None
        renumbers = self._renumbers(query)
        if oracle is not None:
            # APCBI_Opt: the oracle's costs are the bounds, and its
            # optimal tree doubles as advancement 6's heuristic tree.
            upper_bounds = oracle[1]
            if renumbers:
                heuristic_tree = oracle[0]
        elif renumbers and built is None:
            # Advancement 6 needs a heuristic join tree before enumeration;
            # the heuristic runs here unless the router already ran it.
            built = heuristic.build(query, context.builder)
        if built is not None:
            # Its tree also seeds the uB table (advancement 2).
            heuristic_tree = built.tree
            upper_bounds = {}
            if self.config.heuristic_upper_bounds:
                upper_bounds = dict(built.subtree_costs)
        if renumbers:
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
            partitioning=get_partitioning(self.enumerator),
            context=context,
            config=self.config,
            upper_bounds=upper_bounds,
            heuristic=heuristic,
            budget=budget,
        )
        return _Selection(
            self.enumerator,
            self.pruning,
            generator,
            context,
            mapping,
            heuristic_tree or generator.heuristic_tree,
        )


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
    return _execute(
        context,
        lambda: _Selection(
            name, name, algorithm_cls(context=context, budget=budget), context
        ),
    )


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
