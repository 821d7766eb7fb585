"""Predicted-cost bounding — TDPG_PCB (§IV-B, Fig. 4).

Before requesting the two subtrees of a ccp, a lower bound estimate
``LBE(S1, S2)`` on the total cost of any tree that joins ``S1`` with ``S2``
is compared against the cost of the best tree already built for ``S``
(infinity when none exists).  A ccp whose bound exceeds the incumbent can
be skipped entirely — both recursive descents are spared.
"""

from __future__ import annotations

from repro.core.plangen import INFINITY, PlanGeneratorBase
from repro.cost.lower_bound import LowerBoundEstimator
from repro.plans.join_tree import JoinTree

__all__ = ["PcbPlanGenerator"]


class PcbPlanGenerator(PlanGeneratorBase):
    """TDPG_PCB: top-down enumeration with predicted-cost bounding."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._lbe = LowerBoundEstimator(self._provider, self._cost_model)

    def _run(self) -> JoinTree:
        self._tdpg(self._graph.all_vertices)
        return self._finish()

    def _tdpg(self, vertex_set: int) -> JoinTree:
        self._charge_budget()
        tree = self._memo.best(vertex_set)
        if tree is not None:
            if vertex_set & (vertex_set - 1):
                self.stats.memo_hits += 1
            return tree
        for left, right in self._partitions(vertex_set):
            # Line 3: skip the ccp when even an optimistic tree through it
            # cannot beat the incumbent.
            self.stats.lbe_evaluations += 1
            if self._lbe.estimate(left, right) > self._memo.kth_cost(vertex_set):
                self.stats.pcb_prunes += 1
                continue
            self.stats.ccps_considered += 1
            self._builder.build_ccp(
                self._memo, self._tdpg(left), self._tdpg(right), INFINITY
            )
        return self._memo.best(vertex_set)
