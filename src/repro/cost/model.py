"""Cost model interface.

A cost model prices a single two-way join given the
:class:`~repro.cost.statistics.IntermediateStats` of its two inputs.  The
cost of a join *tree* is the sum of its operators' costs; base-relation
scans are charged inside the join that consumes them (the Haas et al. ad hoc
join formulas include reading both inputs), so leaves have cost zero.

Two properties of a model matter to the algorithms in this library and are
covered by property tests:

* **commute rule** (Appendix A): if ``card(x) <= card(y)`` then
  ``join_cost(x, y) <= join_cost(y, x)``.  BUILDTREE relies on this when it
  prices both orders of a ccp together (:meth:`CostModel.join_costs`).
* **LBE admissibility** (§IV-B): :meth:`lower_bound` must never exceed the
  true minimal operator cost, otherwise predicted-cost bounding would prune
  optimal plans.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Tuple

from repro.cost.statistics import IntermediateStats, StatisticsProvider

__all__ = ["CostModel"]


class CostModel(ABC):
    """Prices one join operator; see the module docstring for contracts."""

    #: Registry/display name, overridden by subclasses.
    name = "abstract"

    #: True when the operator cost is a function of the *union* set alone:
    #: ``join_cost(outer, inner)`` must equal the provider's estimated
    #: cardinality of ``outer.vertex_set | inner.vertex_set`` for every
    #: split and both argument orders (the ``C_out`` shape).  This is the
    #: eligibility contract of the DPconv subset-convolution fast path
    #: (:class:`repro.baselines.dpconv.DPconv`): with a union-shaped cost
    #: the join-order DP is a true subset convolution in the (min, +)
    #: semiring, so per-layer sweeps replace per-pair tree construction.
    #: Models whose cost depends on the *pair* of inputs (Haas I/O costs,
    #: fault-injection wrappers) must leave this False.
    cout_shaped = False

    #: True when the operator cost is a function of the inputs' page
    #: counts alone and every order reads both inputs:
    #: ``join_costs(left, right)`` must equal
    #: ``page_join_costs(left.pages, right.pages)``, a method the model
    #: then provides, and each order must cost at least
    #: ``left.pages + right.pages`` (the admissible I/O bound of §IV-B).
    #: DPccp's ``k = 1`` sweep then prices every ccp from a flat pages
    #: table and skips, unpriced, a ccp that bound already rules out
    #: (:meth:`repro.baselines.dpccp.DPccp._run_flat`).  Haas I/O costs
    #: declare it.  Wrappers (fault injection, tracers) must leave this
    #: False, so that every ccp is priced through :meth:`join_costs`.
    page_priced = False

    def bind(self, provider: StatisticsProvider) -> "CostModel":
        """Return the model to use with ``provider``'s query.

        Stateless models (the default) return ``self``.  Models that
        consult per-query statistics (:class:`~repro.cost.cout.CoutCostModel`)
        override this to return a **bound copy**, leaving the receiver
        untouched — one model instance may parameterize many
        :class:`~repro.context.OptimizationContext`\\ s, and a mutating
        bind would silently keep the *first* query's provider.
        """
        return self

    @abstractmethod
    def join_cost(self, outer: IntermediateStats, inner: IntermediateStats) -> float:
        """Cost of joining ``outer`` (left) with ``inner`` (right).

        Implementations should return the cheapest cost over the join
        algorithms they model for this fixed argument order.
        """

    def join_costs(
        self, left: IntermediateStats, right: IntermediateStats
    ) -> Tuple[float, float]:
        """``(join_cost(left, right), join_cost(right, left))`` in one call.

        Pricing a ccp needs both orders.  The default makes the two
        ``join_cost`` calls, so a wrapping model (fault injection, a
        tracer) sees each order; a model that can share work between the
        orders overrides this and must return the same two values, bit
        for bit.
        """
        return self.join_cost(left, right), self.join_cost(right, left)

    def min_join_cost(
        self, left: IntermediateStats, right: IntermediateStats
    ) -> float:
        """Cheapest cost over both argument orders.

        This is the ``c_join`` of TDPG_ACB line 3 / TDPG_APCBI line 17: it
        can be computed from the two input sets alone, before any subtree is
        built.
        """
        return min(self.join_cost(left, right), self.join_cost(right, left))

    def lower_bound(
        self, left: IntermediateStats, right: IntermediateStats
    ) -> float:
        """Admissible lower bound on the operator cost (defaults to exact).

        The default is the exact minimal operator cost, which is trivially
        admissible; models whose ``join_cost`` is expensive may override
        this with a cheaper bound.
        """
        return self.min_join_cost(left, right)

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"
