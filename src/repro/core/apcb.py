"""Combined accumulated + predicted cost bounding — TDPG_APCB (§IV-C).

The DeHaan & Tompa combination: TDPG_ACB with the LBE test of TDPG_PCB
inserted at the top of the ccp loop (line 3.1) —

    if LBE(S1, S2) <= MIN(b, cost(BestTree[S])): ... proceed ...

This is the baseline the paper improves on; APCBI adds the six §IV-D
advancements on top (see :mod:`repro.core.apcbi`).
"""

from __future__ import annotations

from typing import Optional

from repro.core.bounds import BoundsTable
from repro.core.plangen import INFINITY, PlanGeneratorBase
from repro.cost.lower_bound import LowerBoundEstimator
from repro.plans.join_tree import JoinTree

__all__ = ["ApcbPlanGenerator"]


class ApcbPlanGenerator(PlanGeneratorBase):
    """TDPG_APCB: accumulated + predicted cost bounding."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._bounds = BoundsTable()
        self._lbe = LowerBoundEstimator(self._provider, self._cost_model)

    @property
    def bounds(self) -> BoundsTable:
        return self._bounds

    def _run(self) -> JoinTree:
        self._tdpg(self._graph.all_vertices, INFINITY)
        return self._finish()

    def _tdpg(self, vertex_set: int, budget: float) -> Optional[JoinTree]:
        self._charge_budget()
        best = self._memo.best(vertex_set)
        if best is not None:
            self.stats.memo_hits += 1
            return best
        if self._bounds.lower(vertex_set) > budget:
            self.stats.bound_rejections += 1
            return None

        for left, right in self._partitions(vertex_set):
            # Line 3.1: predicted-cost gate against the tighter of budget
            # and incumbent cost.
            self.stats.lbe_evaluations += 1
            bound = min(budget, self._memo.kth_cost(vertex_set))
            if self._lbe.estimate(left, right) > bound:
                self.stats.pcb_prunes += 1
                continue
            self.stats.ccps_considered += 1
            prices = self._builder.price(left, right)
            remaining = bound - min(prices)
            left_tree = self._tdpg(left, remaining)
            if left_tree is None:
                continue
            remaining -= left_tree.cost
            right_tree = self._tdpg(right, remaining)
            if right_tree is None:
                continue
            self._builder.build_ccp(
                self._memo, left_tree, right_tree, budget, prices
            )

        if self._memo.best(vertex_set) is None:
            self._bounds.raise_lower(vertex_set, budget)
            self.stats.failed_builds += 1
        return self._memo.best(vertex_set)
