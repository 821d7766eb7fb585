"""TDPG_APCBI — the paper's improved pruning (§IV-D, Fig. 5).

APCB plus the six advancements, each individually toggleable through
:class:`~repro.core.advancements.AdvancementConfig` (the Fig. 15 ablation
instantiates one flag at a time).  Two pseudocode corrections are applied,
documented in DESIGN.md §4:

* the guard of Fig. 5 lines 3-4 is ``b < lB[S]`` (reject a budget below the
  proven lower bound), not ``lB[S] <= b``;
* ``uB[S]`` has an explicit *unknown* state rather than defaulting to
  infinity, otherwise the rising-budget exception (lines 6-7) would hand
  every repeated request an infinite budget.

One deliberate micro-deviation: when ``BestTree[S]`` exists but costs more
than the budget, we return ``NULL`` immediately instead of re-running the
enumeration.  A registered tree is provably optimal (a completed pass
enumerates every ccp and branch-and-bound never discards an improving
candidate), so a re-enumeration below its cost can never register anything;
the paper's Fig. 5 would walk the ccps once more for nothing.
"""

from __future__ import annotations

from typing import Mapping, Optional

from repro.core.advancements import AdvancementConfig
from repro.core.bounds import BoundsTable
from repro.core.goo import run_goo
from repro.core.plangen import INFINITY, PlanGeneratorBase
from repro.cost.lower_bound import ImprovedLowerBoundEstimator, LowerBoundEstimator
from repro.plans.join_tree import JoinTree

__all__ = ["ApcbiPlanGenerator", "budget_slack"]

#: Relative slack applied whenever a budget is *set from an upper bound*
#: (heuristic or oracle).  Such budgets equal a real plan's cost exactly, and
#: the chained float subtractions of the budget arithmetic
#: (``b - c_join - cost(lT)``) can drift a few ulps below a child's true
#: optimum, making an otherwise-feasible pass fail irrecoverably.  The slack
#: only ever admits more candidates, so optimality is unaffected.
_BUDGET_EPSILON = 1e-9


def budget_slack(value: float) -> float:
    """Widen an upper-bound-derived budget by a relative epsilon."""
    return value + _BUDGET_EPSILON * abs(value) + _BUDGET_EPSILON


class ApcbiPlanGenerator(PlanGeneratorBase):
    """TDPG_APCBI: APCB + the six §IV-D advancements.

    Parameters
    ----------
    config:
        Which advancements are active; defaults to all six (full APCBI).
        The ``renumber_graph`` flag is acted upon by the selector
        (:func:`repro.core.routing.select`; it requires relabeling the
        query before this generator is constructed) and is ignored here.
    upper_bounds:
        Optional pre-seeded ``uB`` table (vertex set -> cost).  Passing the
        optimal subtree costs from a DPccp pre-pass yields APCBI_Opt; when
        omitted and ``config.heuristic_upper_bounds`` is set, the join
        heuristic runs once and seeds the table with its subtree costs.
    heuristic:
        The join heuristic used for advancement 2; defaults to GOO (the
        paper's choice).  Any :class:`repro.heuristics.JoinHeuristic`
        works — upper bounds from a heuristic plan are sound regardless of
        how the plan was found.
    """

    def __init__(
        self,
        *args,
        config: Optional[AdvancementConfig] = None,
        upper_bounds: Optional[Mapping[int, float]] = None,
        heuristic=None,
        **kwargs,
    ):
        super().__init__(*args, **kwargs)
        self._config = config if config is not None else AdvancementConfig.all_on()
        self._bounds = BoundsTable(upper_bounds)
        self.heuristic_tree: Optional[JoinTree] = None
        if upper_bounds is None and self._config.heuristic_upper_bounds:
            if heuristic is None:
                result = run_goo(self._query, self._builder)
            else:
                result = heuristic.build(self._query, self._builder)
            self.heuristic_tree = result.tree
            for vertex_set, cost in result.subtree_costs.items():
                self._bounds.lower_upper(vertex_set, cost)
        if self._config.improved_lbe:
            self._lbe = ImprovedLowerBoundEstimator(
                self._provider, self._cost_model, self._memo, self._bounds
            )
        else:
            self._lbe = LowerBoundEstimator(self._provider, self._cost_model)

    @property
    def bounds(self) -> BoundsTable:
        return self._bounds

    @property
    def config(self) -> AdvancementConfig:
        return self._config

    # ------------------------------------------------------------------

    def _run(self) -> JoinTree:
        self._tdpg(self._graph.all_vertices, INFINITY)
        return self._finish()

    def _tdpg(self, vertex_set: int, budget: float) -> Optional[JoinTree]:
        self._charge_budget()
        memo = self._memo
        bounds = self._bounds
        stats = self.stats
        config = self._config

        # Lines 1-2 (+ registered-implies-optimal shortcut, module docstring).
        best = memo.best(vertex_set)
        if best is not None:
            stats.memo_hits += 1
            return best if best.cost <= budget else None
        # Lines 3-4 (corrected guard).
        if budget < bounds.lower(vertex_set):
            stats.bound_rejections += 1
            return None

        # Lines 5-8: rising budget (advancement 4).
        if config.rising_budget and bounds.attempts(vertex_set) > 0:
            upper = bounds.upper(vertex_set)
            if upper is not None and budget < upper:
                budget = budget_slack(upper)
                stats.budget_raises += 1
            else:
                raised = max(
                    budget,
                    bounds.lower(vertex_set) * (2 ** bounds.attempts(vertex_set)),
                )
                if raised > budget:
                    stats.budget_raises += 1
                budget = raised
        # Line 9.
        bounds.count_attempt(vertex_set)
        # Lines 10-11: cap the budget at a known upper bound (advancement 2
        # seeded by GOO, or the oracle table for APCBI_Opt).
        upper = bounds.upper(vertex_set)
        if upper is not None and upper < budget:
            budget = budget_slack(upper)

        # Line 12.
        new_lower_bound = INFINITY

        # Lines 13-33: the ccp loop.
        for left, right in self._partitions(vertex_set):
            stats.lbe_evaluations += 1
            estimate = self._lbe.estimate(left, right)
            bound = min(budget, memo.kth_cost(vertex_set))
            if estimate > bound:
                # Lines 14-16: PCB rejection; remember the estimate for the
                # improved lower bound.
                new_lower_bound = min(new_lower_bound, estimate)
                stats.pcb_prunes += 1
                continue
            stats.ccps_considered += 1
            # Lines 17-22.
            prices = self._builder.price(left, right)
            operator_cost = min(prices)
            remaining = bound - operator_cost
            if config.tighter_left_budget:
                # Lines 19-21: charge the right side's known or proven cost
                # against the left request's budget (advancement 5).
                right_tree = memo.best(right)
                right_charge = (
                    right_tree.cost if right_tree is not None
                    else bounds.lower(right)
                )
            else:
                right_charge = 0.0
            # Line 23.
            left_tree = self._tdpg(left, remaining - right_charge)
            if left_tree is None:
                # Line 33: both sides unknown; their proven bounds still
                # lower-bound any tree through this ccp.
                new_lower_bound = min(
                    new_lower_bound,
                    bounds.lower(left) + bounds.lower(right) + operator_cost,
                )
                continue
            # Lines 25-27.
            remaining -= left_tree.cost
            right_tree = self._tdpg(right, remaining)
            if right_tree is None:
                # Line 32.
                new_lower_bound = min(
                    new_lower_bound,
                    left_tree.cost + bounds.lower(right) + operator_cost,
                )
                continue
            # Lines 29-31.
            self._builder.build_ccp(memo, left_tree, right_tree, budget, prices)
            new_lower_bound = min(
                new_lower_bound,
                left_tree.cost + right_tree.cost + operator_cost,
            )

        # Lines 34-35: improved lower bounds (advancement 3) take the max of
        # the failed budget and the cheapest bound seen during the pass.
        if memo.best(vertex_set) is None:
            if config.improved_lower_bounds:
                bounds.raise_lower(vertex_set, max(budget, new_lower_bound))
            else:
                bounds.raise_lower(vertex_set, budget)
            stats.failed_builds += 1
            return None
        # Line 36 (with the cost <= budget contract of lines 1-2).
        tree = memo.best(vertex_set)
        return tree if tree.cost <= budget else None
