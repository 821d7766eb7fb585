"""Which algorithm serves a request: the one selector.

:func:`select` makes every choice of the algorithm that runs a request and
builds it.  :func:`repro.core.optimizer._execute` calls it inside the
measured interval and the ``enumerate`` span, so routing is timed (§V-C):
a route's connected-set pass, heuristic run and live-share sample count
like work the served algorithm would otherwise do itself.

A named baseline (``run_dpccp``, ``run_dpconv``) runs as named, and
DPconv refuses a context outside its envelope.  ``pruning="dpconv"``
runs DPconv when :func:`~repro.baselines.dpconv.eligible` allows it and
falls back to DPccp otherwise, honestly labelled ``dpccp``.  With
``auto_route`` on, two routes serve unbudgeted single-best requests; a
budgeted run wants the top-down generators' anytime salvage and, like a
ranked run and every other pruning, keeps the configured algorithm.

* **The** ``C_out`` **route** (any top-down pruning, a ``C_out``-shaped
  bound model within DPconv's envelope) lists the connected sets once,
  counts DPconv's work over them exactly and predicts DPccp's as
  :data:`DPCCP_WORK_PER_CSG` per set.  The smaller prediction runs
  (DPconv on a tie) on that list.  Both are exact, so the optimal cost
  never moves; on exact-cost ties DPconv's plan shape can differ.
* **The Haas route** (``pruning="apcbi"`` under Haas costs) runs the
  heuristic once.  DPccp serves when more than :data:`HAAS_LIVE_SHARE`
  of the classes nearest the root are live under its cost, or when the
  graph has at most :data:`HAAS_CSG_CAP` connected sets (listed once,
  stopping one past the cap, and handed to DPccp); otherwise APCBI
  serves, seeded with the same heuristic run.  DPccp runs in the
  caller's numbering and breaks exact-cost ties under the labels of the
  numbering APCBI would use (advancement 6), so the plan is APCBI's bit
  for bit.

Both routes record one ``algorithm_selected`` event: ``route``
(``"cout"`` or ``"haas"``), ``candidates``, ``predicted`` (what the
route measured before choosing), ``choice`` and ``actual``
(``{"ccps_considered": ...}``).  ``predicted`` holds the per-candidate
split-probe counts on the ``C_out`` route, and ``live_share``,
``sampled_classes``, ``upper_bound``, ``connected_sets`` (``None`` when
the share alone decided, ``HAAS_CSG_CAP + 1`` when the listing stopped at
the cap) and ``stopped_at_cap`` on the Haas route.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Tuple, Type

from repro.baselines.dpccp import DPccp, enumerate_csg
from repro.baselines.dpconv import DPconv, convolution_work, eligible
from repro.context.context import OptimizationContext
from repro.core.acb import AcbPlanGenerator
from repro.core.advancements import AdvancementConfig
from repro.core.apcb import ApcbPlanGenerator
from repro.core.apcbi import ApcbiPlanGenerator
from repro.core.pcb import PcbPlanGenerator
from repro.core.plangen import PlanGeneratorBase, TopDownPlanGenerator
from repro.cost.haas import HaasCostModel
from repro.graph import bitset
from repro.graph.renumber import remap_bitset, renumber_mapping
from repro.heuristics.base import HeuristicResult
from repro.heuristics.registry import get_heuristic
from repro.partitioning.registry import get_partitioning
from repro.plans.join_tree import JoinTree
from repro.query import Query

__all__ = [
    "Selection",
    "select",
    "configured",
    "routes_by_work",
    "DPCCP_WORK_PER_CSG",
    "HAAS_LIVE_SHARE",
    "HAAS_CSG_CAP",
    "PRUNING_STRATEGIES",
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

#: The bottom-up baselines by name.
_BASELINES = {"dpccp": DPccp, "dpconv": DPconv}

#: APCBI_Opt's oracle: DPccp's optimal plan and its optimal class costs.
Oracle = Tuple[JoinTree, Dict[int, float]]


@dataclass(frozen=True)
class Selection:
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
    #: What an automatic route saw before choosing: ``route``,
    #: ``candidates`` and ``predicted`` of its ``algorithm_selected``
    #: event.  ``None`` when nothing was routed.
    evidence: Optional[Dict[str, Any]] = None


def configured(
    context: OptimizationContext, enumerator: str, pruning: str
) -> Tuple[str, str]:
    """The configured ``(enumerator, pruning)``, before any routing.

    ``pruning="dpconv"`` runs DPconv when :func:`eligible` allows it and
    falls back to DPccp otherwise, labelled ``dpccp``.
    """
    if pruning != "dpconv":
        return enumerator, pruning
    if eligible(context):
        return "dpconv", "dpconv"
    return "dpccp", "dpccp"


def routes_by_work(context: OptimizationContext, auto_route: bool) -> bool:
    """Whether the ``C_out`` route (DPconv or DPccp) serves ``context``."""
    return auto_route and context.budget is None and eligible(context)


def select(
    context: OptimizationContext,
    pruning: str,
    enumerator: Optional[str] = None,
    config: AdvancementConfig = AdvancementConfig.all_on(),
    heuristic: str = "goo",
    auto_route: bool = False,
    oracle: Optional[Oracle] = None,
) -> Selection:
    """The algorithm that serves ``context``, built and ready to run.

    Without an ``enumerator``, ``pruning`` names a baseline (``"dpccp"``
    or ``"dpconv"``) that runs as named.  With one, the configuration
    (``enumerator``, ``pruning``, APCBI's advancement ``config`` and
    ``heuristic``) is served as the module notes describe, routed when
    ``auto_route`` allows it.  ``oracle`` is APCBI_Opt's pre-pass, run
    before the clock starts.
    """
    if enumerator is not None:
        enumerator, pruning = configured(context, enumerator, pruning)
        if pruning == "dpccp" and context.telemetry is not None:
            # DPccp serves an ineligible ``pruning="dpconv"`` request: it
            # covers the same plan space under any cost model and with
            # ranked retention.
            context.telemetry.event(
                "dpconv_fallback",
                cost_model=context.cost_model.name,
                topk=context.topk,
                relations=context.query.n_relations,
            )
    if pruning in _BASELINES:
        return Selection(pruning, pruning, _BASELINES[pruning](context), context)
    if routes_by_work(context, auto_route):
        return _route_cout(context)
    if (
        auto_route
        and context.budget is None
        and pruning == "apcbi"
        and context.topk == 1
        and isinstance(context.cost_model, HaasCostModel)
    ):
        return _route_haas(context, enumerator, config, heuristic)
    if pruning in PRUNING_STRATEGIES:
        generator = PRUNING_STRATEGIES[pruning](
            context, get_partitioning(enumerator)
        )
        return Selection(enumerator, pruning, generator, context)
    return _apcbi(context, enumerator, pruning, config, heuristic, oracle)


def _route_cout(context: OptimizationContext) -> Selection:
    """DPconv or DPccp for an unbudgeted ``C_out`` request, by predicted work."""
    csgs = enumerate_csg(context.query.graph)
    predicted = {
        "dpconv": convolution_work(csgs),
        "dpccp": DPCCP_WORK_PER_CSG * len(csgs),
    }
    choice = min(predicted, key=predicted.__getitem__)
    return Selection(
        choice,
        choice,
        _BASELINES[choice](context, csgs=csgs),
        context,
        evidence={
            "route": "cout",
            "candidates": tuple(predicted),
            "predicted": predicted,
        },
    )


def _route_haas(
    context: OptimizationContext,
    enumerator: str,
    config: AdvancementConfig,
    heuristic: str,
) -> Selection:
    """APCBI or DPccp for an unbudgeted Haas request, by pruning yield."""
    query = context.query
    built = get_heuristic(heuristic).build(query, context.builder)
    share, sampled = _live_share(context, built.cost)
    predicted = {
        "live_share": share,
        "sampled_classes": sampled,
        "upper_bound": built.cost,
        "connected_sets": None,
        "stopped_at_cap": False,
    }
    evidence = {
        "route": "haas",
        "candidates": ("apcbi", "dpccp"),
        "predicted": predicted,
    }
    csgs = None
    if share <= HAAS_LIVE_SHARE:
        csgs = enumerate_csg(query.graph, HAAS_CSG_CAP)
        predicted["stopped_at_cap"] = csgs is None
        predicted["connected_sets"] = (
            HAAS_CSG_CAP + 1 if csgs is None else len(csgs)
        )
        if csgs is None:
            selection = _apcbi(
                context, enumerator, "apcbi", config, heuristic, built=built
            )
            return replace(selection, evidence=evidence)
    labels = None
    if _renumbers(config, query):
        labels = renumber_mapping(built.tree, query.n_relations)
    return Selection(
        "dpccp",
        "dpccp",
        DPccp(context, csgs=csgs, labels=labels),
        context,
        evidence=evidence,
    )


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


def _renumbers(config: AdvancementConfig, query: Query) -> bool:
    """Whether APCBI runs ``query`` renumbered (advancement 6)."""
    return config.renumber_graph and query.n_relations > 2


def _apcbi(
    context: OptimizationContext,
    enumerator: str,
    pruning: str,
    config: AdvancementConfig,
    heuristic_name: str,
    oracle: Optional[Oracle] = None,
    built: Optional[HeuristicResult] = None,
) -> Selection:
    """Build APCBI (or APCBI_Opt, given its ``oracle``) for ``context``.

    ``built`` is a heuristic result the router already computed in the
    caller's numbering; APCBI then seeds and renumbers from it instead
    of running the heuristic again.
    """
    query = context.query
    heuristic = get_heuristic(heuristic_name)
    upper_bounds = heuristic_tree = mapping = None
    renumbers = _renumbers(config, query)
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
        if config.heuristic_upper_bounds:
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
        context,
        get_partitioning(enumerator),
        config=config,
        upper_bounds=upper_bounds,
        heuristic=heuristic,
    )
    return Selection(
        enumerator,
        pruning,
        generator,
        context,
        mapping,
        heuristic_tree or generator.heuristic_tree,
    )
