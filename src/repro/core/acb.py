"""Accumulated-cost bounding — TDPG_ACB (§IV-A, Fig. 3).

A cost budget flows down the recursion: each instance subtracts costs as
they become known (the operator cost before the left child, the left
child's cost before the right child) and a child that cannot produce a tree
within its budget returns ``NULL``.  Failed passes record their budget as a
proven lower bound ``lB[S]`` so cheaper re-requests return immediately.
"""

from __future__ import annotations

from typing import Optional

from repro.core.bounds import BoundsTable
from repro.core.plangen import INFINITY, PlanGeneratorBase
from repro.plans.join_tree import JoinTree

__all__ = ["AcbPlanGenerator"]


class AcbPlanGenerator(PlanGeneratorBase):
    """TDPG_ACB: top-down enumeration with accumulated-cost bounding."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._bounds = BoundsTable()

    @property
    def bounds(self) -> BoundsTable:
        return self._bounds

    def _run(self) -> JoinTree:
        self._tdpg(self._graph.all_vertices, INFINITY)
        return self._finish()

    def _tdpg(self, vertex_set: int, budget: float) -> Optional[JoinTree]:
        """Fig. 3; returns the best tree or ``None`` if none fits ``budget``."""
        self._charge_budget()
        best = self._memo.best(vertex_set)
        if best is not None:
            self.stats.memo_hits += 1
            return best
        # Line 1: skip enumeration when a previous failed pass proved that
        # no tree cheaper than lB[S] exists and the budget is below it.
        if self._bounds.lower(vertex_set) > budget:
            self.stats.bound_rejections += 1
            return None

        for left, right in self._partitions(vertex_set):
            self.stats.ccps_considered += 1
            # Lines 3-4: subtract the operator cost (computable from the
            # two input sets alone) from the tightest known bound.
            operator_cost = self._builder.operator_cost(left, right)
            # Bounding against the k-th retained cost (== best cost at
            # k=1) keeps every tree that could still enter the top-k.
            remaining = (
                min(budget, self._memo.kth_cost(vertex_set)) - operator_cost
            )
            left_tree = self._tdpg(left, remaining)
            if left_tree is None:
                continue
            # Lines 7-8: tighten further by the left tree's actual cost.
            remaining -= left_tree.cost
            right_tree = self._tdpg(right, remaining)
            if right_tree is None:
                continue
            # Line 10: register the cheaper order if within the budget.
            self._builder.build_ccp(self._memo, left_tree, right_tree, budget)

        # Lines 11-12: a completed pass without a tree proves lB[S] = b.
        if self._memo.best(vertex_set) is None:
            self._bounds.raise_lower(vertex_set, budget)
            self.stats.failed_builds += 1
        return self._memo.best(vertex_set)
