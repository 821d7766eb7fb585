"""Counters collected during one optimization run.

Table III of the paper reports, per query, the number of plan classes for
which a join tree was successfully built (subscript *s*) and the number of
times a join tree was requested but *not* built within its budget
(subscript *f*), both normalized by the number of plan classes DPccp
builds.  :class:`OptimizationStats` collects those plus a handful of
secondary counters that the ablation analysis and the tests use.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict

__all__ = ["OptimizationStats"]


@dataclass
class OptimizationStats:
    """Mutable counters for one optimizer run.

    Attributes
    ----------
    ccps_enumerated:
        ccps produced by the partitioning strategy (symmetric pairs once).
    ccps_considered:
        ccps that survived predicted-cost bounding and were priced.
    trees_created:
        Join trees constructed by CREATETREE.  BUILDTREE prices a ccp's
        two orders first and builds only one that can still enter the
        memotable; DPccp (at ``k = 1``) and DPconv build only the winning
        plan's joins.
    operator_pricings:
        ccps priced in both orders (:meth:`~repro.plans.PlanBuilder.price`:
        one :meth:`~repro.cost.model.CostModel.join_costs` call each).
        DPccp under a ``cout_shaped`` model at ``k = 1`` prices classes,
        not ccps: its count is the classes it priced, one each.  Under a
        ``page_priced`` model (Haas) at ``k = 1`` it skips the ccps the
        I/O lower bound rules out: its count is the ccps it priced, at
        least one per class and at most ``ccps_considered``.  (Neither
        sweep builds statistics objects, and a provider builds a base
        relation's only on first use, so of the ``stats_classes`` an
        ``enumerate`` span reports — the classes whose statistics the
        run's providers were asked for — a bare DPccp run holds only the
        winning tree's ``2n - 1`` classes, its leaves included.  A
        Haas-routed DPccp run shares the caller's provider with the
        heuristic that routed it: its ``stats_classes`` is the
        heuristic's classes and the winning tree's, each class once.)
    plan_classes_built:
        Distinct vertex sets (|S| >= 2) for which a best tree was
        registered — the *s* numerator of Table III.
    failed_builds:
        Enumeration passes over some ``P_ccp(S)`` that ended without a tree
        within the budget — the *f* numerator of Table III.
    memo_hits:
        Requests answered directly from the memotable.
    bound_rejections:
        Requests rejected immediately because the budget was below the
        proven lower bound ``lB[S]``.
    pcb_prunes:
        ccps skipped by predicted-cost bounding (LBE above the bound).
    plan_improvements:
        Times a ccp's plan entered the memotable for a class that already
        had one (a cheaper plan, or at ``k > 1`` a new rank).
    budget_raises:
        Times the rising-budget advancement lifted a request's budget.
    lbe_evaluations:
        Lower-bound estimator invocations (the expensive part of PCB).
    plan_cache_hits:
        Queries answered from the cross-query
        :class:`~repro.context.PlanCache` without enumeration.
    plan_cache_misses:
        Queries that consulted the plan cache and had to enumerate.
    """

    ccps_enumerated: int = 0
    ccps_considered: int = 0
    trees_created: int = 0
    operator_pricings: int = 0
    plan_classes_built: int = 0
    failed_builds: int = 0
    memo_hits: int = 0
    bound_rejections: int = 0
    pcb_prunes: int = 0
    plan_improvements: int = 0
    budget_raises: int = 0
    lbe_evaluations: int = 0
    plan_cache_hits: int = 0
    plan_cache_misses: int = 0

    def as_dict(self) -> Dict[str, int]:
        """Plain-dict view for JSON reports.

        Driven off ``dataclasses.fields`` so a newly added counter can
        never be silently dropped from reports (or from :meth:`merge`).
        """
        return {
            spec.name: getattr(self, spec.name) for spec in fields(self)
        }

    def merge(self, other: "OptimizationStats") -> "OptimizationStats":
        """Element-wise sum (used when aggregating workload runs)."""
        merged = OptimizationStats()
        for spec in fields(self):
            setattr(
                merged,
                spec.name,
                getattr(self, spec.name) + getattr(other, spec.name),
            )
        return merged
