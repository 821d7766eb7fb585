"""CREATETREE / BUILDTREE (Appendix A) plus leaf construction.

BUILDTREE prices both orders of a ccp — ``(T1, T2)`` and ``(T2, T1)`` — and
registers the cheaper one with the memotable, provided it is within the
budget ``b``.  Pricing both orders in one call (instead of relying on the
symmetric pair being enumerated separately) is what lets the enumerators
emit each symmetric pair only once.

The rule is *price, compare, then allocate*: :meth:`PlanBuilder.price`
prices a ccp once as ``(c(L, R), c(R, L))``, an order's cost is
``(cost(T1) + cost(T2)) + c`` — the exact sum ``JoinNode`` would store —
and a ``JoinNode`` is allocated only for an order that can still enter the
memotable: within ``min(b, kth_cost(S))``, and at ``k = 1`` first of the
two orders in the memotable's (cost, fingerprint) order.
"""

from __future__ import annotations

from math import isnan
from typing import List, Mapping, Optional, Tuple

from repro.cost.model import CostModel
from repro.cost.statistics import StatisticsProvider
from repro.errors import OptimizationError
from repro.plans.join_tree import JoinNode, JoinTree, LeafNode, plan_fingerprint
from repro.plans.memo import MemoTable
from repro.query import Query
from repro.stats.counters import OptimizationStats

__all__ = ["PlanBuilder"]

INFINITY = float("inf")


class PlanBuilder:
    """Constructs and registers join trees for one query.

    The builder owns the per-run counters so every tree construction is
    accounted for, whichever plan generator drives it.
    """

    __slots__ = ("_provider", "_cost_model", "stats")

    def __init__(
        self,
        provider: StatisticsProvider,
        cost_model: CostModel,
        stats: Optional[OptimizationStats] = None,
    ):
        self._provider = provider
        self._cost_model = cost_model
        self.stats = stats if stats is not None else OptimizationStats()

    @property
    def provider(self) -> StatisticsProvider:
        return self._provider

    @property
    def cost_model(self) -> CostModel:
        return self._cost_model

    # ------------------------------------------------------------------

    def leaf(self, query: Query, relation: int) -> LeafNode:
        """Build the leaf node for one base relation."""
        stats = query.catalog.relation(relation)
        return LeafNode(relation, stats.cardinality, stats.name)

    def price(self, left_set: int, right_set: int) -> Tuple[float, float]:
        """``(c(L, R), c(R, L))``: the operator cost of both orders of a ccp.

        Known before any subtree exists, so the budget arithmetic of
        TDPG_ACB (line 3) and TDPG_APCBI (line 17) takes ``min`` of it and
        hands the pair on to :meth:`build_ccp`.  One call of the cost
        model's :meth:`~repro.cost.model.CostModel.join_costs` prices both.
        """
        self.stats.operator_pricings += 1
        provider = self._provider
        return self._cost_model.join_costs(
            provider.stats(left_set), provider.stats(right_set)
        )

    def create_tree(
        self,
        outer: JoinTree,
        inner: JoinTree,
        operator_cost: Optional[float] = None,
    ) -> JoinNode:
        """CREATETREE: join ``outer`` with ``inner`` in this fixed order.

        The operator cost is the cheapest join algorithm for this order
        (priced here unless the caller already did); the resulting
        cardinality depends only on the union set.
        """
        self.stats.trees_created += 1
        provider = self._provider
        if operator_cost is None:
            operator_cost = self._cost_model.join_cost(
                provider.stats(outer.vertex_set), provider.stats(inner.vertex_set)
            )
        cardinality = provider.stats(outer.vertex_set | inner.vertex_set).cardinality
        return JoinNode(outer, inner, cardinality, operator_cost)

    def build_tree(
        self,
        memo: MemoTable,
        tree_1: JoinTree,
        tree_2: JoinTree,
        budget: float = INFINITY,
        prices: Optional[Tuple[float, float]] = None,
    ) -> Optional[JoinTree]:
        """BUILDTREE (Fig. 16): keep the cheaper order if it is in budget.

        ``prices`` is :meth:`price` of ``(tree_1, tree_2)``'s vertex sets
        when the caller already has it.  Returns the tree registered for
        this ccp when it entered the memotable, else ``None``.
        """
        if prices is None:
            prices = self.price(tree_1.vertex_set, tree_2.vertex_set)
        price_12, price_21 = prices
        base = tree_1.cost + tree_2.cost
        cost_12 = base + price_12
        cost_21 = base + price_21
        if memo.k > 1:
            # Both orders may enter a ranked list; the second is offered
            # against the k-th cost the first one left behind.
            first = self._offer(memo, tree_1, tree_2, price_12, cost_12, budget)
            second = self._offer(memo, tree_2, tree_1, price_21, cost_21, budget)
            return second if second is not None else first
        # Only the order first in the memotable's (cost, fingerprint) order
        # can end up registered; a NaN order never can.  A cost tie needs
        # fingerprints only when the tied cost can still enter.
        vertex_set = tree_1.vertex_set | tree_2.vertex_set
        if cost_21 < cost_12 or isnan(cost_12) or (
            cost_21 == cost_12  # repro: disable=no-float-cost-eq
            and cost_12 <= min(budget, memo.best_cost(vertex_set))
            and plan_fingerprint(tree_2) < plan_fingerprint(tree_1)
        ):
            return self._offer(memo, tree_2, tree_1, price_21, cost_21, budget)
        return self._offer(memo, tree_1, tree_2, price_12, cost_12, budget)

    def _offer(
        self,
        memo: MemoTable,
        outer: JoinTree,
        inner: JoinTree,
        operator_cost: float,
        cost: float,
        budget: float,
    ) -> Optional[JoinTree]:
        """Allocate and register ``outer JOIN inner`` if ``cost`` can enter.

        ``cost`` is the tree's exact total.  Above the budget or the class's
        k-th retained cost (or NaN) the memotable would refuse the tree, so
        it is never built; an exact tie is built and left to the
        memotable's fingerprint rule.
        """
        vertex_set = outer.vertex_set | inner.vertex_set
        if not cost <= min(budget, memo.kth_cost(vertex_set)):
            return None
        replaces = vertex_set in memo
        tree = self.create_tree(outer, inner, operator_cost)
        if not memo.register(tree):
            return None
        if replaces:
            self.stats.plan_improvements += 1
        return tree

    def build_ccp(
        self,
        memo: MemoTable,
        tree_1: JoinTree,
        tree_2: JoinTree,
        budget: float = INFINITY,
        prices: Optional[Tuple[float, float]] = None,
    ) -> Optional[JoinTree]:
        """BUILDTREE over the ccp's *ranked* sub-plan combinations.

        At ``k=1`` this is exactly :meth:`build_tree` on the two trees the
        caller recursed into.  At ``k>1`` the i-th best plan of a class
        may join the j-th best plan of the complement (Tziavelis et al.,
        ranked enumeration), so every retained combination of the two
        classes is offered — in both orders — to the memotable, which
        keeps the k cheapest under its deterministic total order.  The
        operator costs depend on the two sets only, so the ccp is priced
        once for all combinations.  Returns the last tree that improved
        the memotable (``None`` when nothing registered), mirroring
        :meth:`build_tree`'s contract.
        """
        if prices is None:
            prices = self.price(tree_1.vertex_set, tree_2.vertex_set)
        if memo.k == 1:
            return self.build_tree(memo, tree_1, tree_2, budget, prices)
        lefts = memo.best_k(tree_1.vertex_set) or [tree_1]
        rights = memo.best_k(tree_2.vertex_set) or [tree_2]
        registered: Optional[JoinTree] = None
        for left in lefts:
            for right in rights:
                result = self.build_tree(memo, left, right, budget, prices)
                if result is not None:
                    registered = result
        return registered

    def build_split_tree(
        self,
        memo: MemoTable,
        root: int,
        split: Mapping[int, int],
        operator_costs: Optional[Mapping[int, float]] = None,
    ) -> JoinTree:
        """Materialize the plan a bottom-up split table encodes.

        ``split[S]`` is the inner (right) input of ``S``'s winning join, so
        its outer input is ``S ^ split[S]``; ``operator_costs[S]``, when
        given, is that join's already-priced operator cost.  Only the
        ``n - 1`` joins of the winning tree become ``JoinNode`` objects and
        memotable entries (the leaves must be registered already).
        """
        stack = [root]
        ordered: List[int] = []
        while stack:
            vertex_set = stack.pop()
            if not vertex_set & (vertex_set - 1):
                continue  # singleton: leaf already registered
            ordered.append(vertex_set)
            inner = split[vertex_set]
            stack.append(vertex_set ^ inner)
            stack.append(inner)
        for vertex_set in reversed(ordered):  # children before parents
            inner = split[vertex_set]
            outer_tree = memo.best(vertex_set ^ inner)
            inner_tree = memo.best(inner)
            if outer_tree is None or inner_tree is None:  # pragma: no cover
                raise OptimizationError(
                    "split-table reconstruction visited a class before its "
                    "components"
                )
            operator_cost = (
                None if operator_costs is None else operator_costs[vertex_set]
            )
            memo.register(self.create_tree(outer_tree, inner_tree, operator_cost))
        return memo.best(root)

