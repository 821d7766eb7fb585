"""DPccp — bottom-up join enumeration via dynamic programming ([2]).

Moerkotte & Neumann's algorithm enumerates every csg-cmp pair of the query
graph exactly once using the EnumerateCsg / EnumerateCsgRec / EnumerateCmp
recursion and builds optimal plans bottom-up.  In this library it plays the
same role as in the paper: the state-of-the-art baseline whose runtime is
the denominator of every *normed time*, and the oracle that supplies
optimal per-class costs for APCBI_Opt.

Implementation note: the published emission order is compatible with
dynamic programming; we nevertheless bucket pairs by the size of their
union before the DP sweep, which makes the correctness argument local at
the price of materializing the pair list (fine at the sizes pure Python can
enumerate; the overhead is charged to DPccp's measured runtime).

At ``k = 1`` the sweep keeps flat per-class cost and split tables, as
DPconv does, and builds only the winning tree (``n - 1`` joins) at the
end; ranked runs (``k > 1``) register trees through BUILDTREE's ranked
cross product.  :meth:`DPccp.optimal_class_costs` covers every class
either way.
"""

from __future__ import annotations

from math import isnan
from typing import TYPE_CHECKING, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.context.context import OptimizationContext
from repro.cost.model import CostModel
from repro.errors import BudgetExceeded, OptimizationError
from repro.graph import bitset
from repro.graph.query_graph import QueryGraph
from repro.plans.builder import PlanBuilder
from repro.plans.join_tree import JoinTree, join_fingerprint
from repro.plans.memo import MemoTable
from repro.query import Query
from repro.stats.counters import OptimizationStats

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a package cycle
    from repro.resilience.budget import Budget

__all__ = ["DPccp", "enumerate_csg_cmp_pairs", "enumerate_csg"]


def _neighborhood(graph: QueryGraph, subset: int, exclude: int) -> int:
    """``N(subset) \\ exclude`` within the full graph."""
    return graph.neighborhood(subset) & ~exclude


def _enumerate_csg_rec(
    graph: QueryGraph, subset: int, exclude: int
) -> Iterator[int]:
    """EnumerateCsgRec: emit ``subset`` enlarged by neighborhood subsets."""
    neighbors = _neighborhood(graph, subset, exclude)
    if not neighbors:
        return
    for extension in bitset.iter_subsets(neighbors):
        yield subset | extension
    blocked = exclude | neighbors
    for extension in bitset.iter_subsets(neighbors):
        yield from _enumerate_csg_rec(graph, subset | extension, blocked)


def enumerate_csg(graph: QueryGraph) -> Iterator[int]:
    """EnumerateCsg: every connected subset, each exactly once."""
    n = graph.n_vertices
    for index in range(n - 1, -1, -1):
        start = bitset.singleton(index)
        yield start
        forbidden = bitset.full_set(index + 1)  # B_i: all vertices <= index
        yield from _enumerate_csg_rec(graph, start, forbidden)


def _enumerate_cmp(graph: QueryGraph, subset: int) -> Iterator[int]:
    """EnumerateCmp: connected complements pairing with ``subset``."""
    min_index = bitset.lowest_index(subset)
    forbidden = subset | bitset.full_set(min_index + 1)  # B_min(S1) u S1
    neighbors = _neighborhood(graph, subset, forbidden)
    remaining = neighbors
    # Hot per-csg loop: highest-bit extraction stays inlined.
    while remaining:
        high = 1 << (remaining.bit_length() - 1)  # repro: disable=bitset-discipline
        remaining ^= high
        yield high
        below = (high - 1) & neighbors  # B_i n N
        yield from _enumerate_csg_rec(graph, high, forbidden | below)


def enumerate_csg_cmp_pairs(
    graph: QueryGraph, csgs: Optional[Iterable[int]] = None
) -> Iterator[Tuple[int, int]]:
    """Every csg-cmp pair of the graph, each symmetric pair once.

    ``csgs`` is the graph's connected-set list in :func:`enumerate_csg`
    order, for a caller that already listed it; by default it is
    enumerated here.
    """
    for left in enumerate_csg(graph) if csgs is None else csgs:
        for right in _enumerate_cmp(graph, left):
            yield (left, right)


class DPccp:
    """Bottom-up optimal bushy join ordering without cross products.

    ``csgs`` hands in the query graph's connected sets, in
    :func:`enumerate_csg` order, when the caller already enumerated them
    (the optimizer's work prediction does); the run then does not list
    them again.
    """

    name = "dpccp"

    def __init__(
        self,
        query: Optional[Query] = None,
        cost_model: Optional[CostModel] = None,
        stats: Optional[OptimizationStats] = None,
        budget: Optional["Budget"] = None,
        *,
        context: Optional[OptimizationContext] = None,
        csgs: Optional[Sequence[int]] = None,
    ):
        if context is None:
            if query is None:
                raise TypeError("DPccp needs a query (or a ready context=)")
            context = OptimizationContext.for_query(
                query, cost_model=cost_model, stats=stats, budget=budget
            )
        elif query is not None and query is not context.query:
            raise ValueError("query and context disagree; pass one or the other")
        self._context = context
        self._query = context.query
        self._graph = context.query.graph
        self._provider = context.provider
        self._builder = context.builder
        self._memo = MemoTable(k=context.topk)
        self._budget = budget if budget is not None else context.budget
        self._csgs = csgs
        # Flat per-class optimum costs (k = 1 runs), kept for
        # optimal_class_costs().
        self._dp: Optional[Dict[int, float]] = None

    @property
    def memo(self) -> MemoTable:
        """At ``k = 1``, the winning plan's classes only; use
        :meth:`optimal_class_costs` for every class's optimum."""
        return self._memo

    @property
    def stats(self) -> OptimizationStats:
        return self._builder.stats

    def ranked_plans(self) -> List[JoinTree]:
        """Retained root plans, cheapest first (valid after :meth:`run`)."""
        return self._memo.best_k(self._graph.all_vertices)

    def run(self) -> JoinTree:
        """Build and return the optimal join tree for the whole query."""
        query = self._query
        for index in range(query.n_relations):
            self._memo.register(self._builder.leaf(query, index))
        if query.n_relations == 1:
            return self._memo.best(self._graph.all_vertices)

        # Bucket ccps by result size so every sub-plan exists when needed.
        budget = self._budget
        buckets: Dict[int, List[Tuple[int, int]]] = {}
        for left, right in enumerate_csg_cmp_pairs(self._graph, self._csgs):
            if budget is not None:
                budget.check(len(self._memo))
            self.stats.ccps_enumerated += 1
            buckets.setdefault(bitset.bit_count(left | right), []).append(
                (left, right)
            )
        pairs = [pair for size in sorted(buckets) for pair in buckets[size]]
        if self._memo.k == 1:
            plan = self._run_flat(pairs)
        else:
            plan = self._run_ranked(pairs)
        if plan is None:
            raise OptimizationError("DPccp produced no plan for the full query")
        return plan

    def _run_ranked(self, pairs: List[Tuple[int, int]]) -> Optional[JoinTree]:
        """``k > 1``: every ccp goes through BUILDTREE's ranked cross product."""
        budget = self._budget
        memo = self._memo
        builder = self._builder
        for left, right in pairs:
            if budget is not None:
                budget.check(len(memo))
            self.stats.ccps_considered += 1
            left_tree = memo.best(left)
            right_tree = memo.best(right)
            if left_tree is None or right_tree is None:
                raise OptimizationError(_ORDER_BUG)
            builder.build_ccp(memo, left_tree, right_tree)
        self.stats.plan_classes_built = memo.n_plan_classes()
        return memo.best(self._graph.all_vertices)

    def _run_flat(self, pairs: List[Tuple[int, int]]) -> Optional[JoinTree]:
        """``k = 1``: flat cost/split tables, then only the winning tree.

        Per ccp, both orders are priced (:meth:`PlanBuilder.price`) and
        summed exactly as ``JoinNode`` would: ``(dp[L] + dp[R]) + c``.  A
        class keeps the first order in the memotable's (cost, fingerprint)
        order, NaN never enters, and a class's first entry is taken
        whatever its cost — so the tables end up holding exactly the plans
        a memotable of trees would, and
        :meth:`PlanBuilder.build_split_tree` materializes the root's.  The
        memo-size budget counts table entries, as it counted memotable
        entries.
        """
        query = self._query
        budget = self._budget
        stats = self.stats
        price = self._builder.price
        dp: Dict[int, float] = {}
        split: Dict[int, int] = {}
        operator_costs: Dict[int, float] = {}
        # Class -> fingerprint of its current plan, filled only when an
        # exact tie needs it; a class's entry goes when its plan changes.
        fingerprints: Dict[int, str] = {}
        for index in range(query.n_relations):
            dp[bitset.singleton(index)] = 0.0
            fingerprints[bitset.singleton(index)] = str(index)

        def fingerprint(vertex_set: int) -> str:
            """Fingerprint of a class's current plan, cached."""
            cached = fingerprints.get(vertex_set)
            if cached is None:
                cached = join_fingerprint(
                    fingerprint(vertex_set ^ split[vertex_set]),
                    fingerprint(split[vertex_set]),
                )
                fingerprints[vertex_set] = cached
            return cached

        self._dp = dp
        root = self._graph.all_vertices
        try:
            for left, right in pairs:
                if budget is not None:
                    budget.check(len(dp))
                stats.ccps_considered += 1
                left_cost = dp.get(left)
                right_cost = dp.get(right)
                if left_cost is None or right_cost is None:
                    raise OptimizationError(_ORDER_BUG)
                vertex_set = left | right
                price_lr, price_rl = price(left, right)
                base = left_cost + right_cost
                cost = base + price_lr
                other = base + price_rl
                inner = right
                operator_cost = price_lr
                tie = False
                # The first order in (cost, fingerprint) order; NaN last.
                if other < cost or isnan(cost):
                    cost = other
                    inner = left
                    operator_cost = price_rl
                elif other == cost:  # repro: disable=no-float-cost-eq
                    tie = True
                if not cost <= _INFINITY:
                    continue  # NaN: DPccp's unbounded budget still refuses it
                incumbent = dp.get(vertex_set)
                if incumbent is not None and not cost <= incumbent:
                    continue
                # Fingerprints only for a cost that can still enter.
                if tie and fingerprint(right) < fingerprint(left):
                    inner = left
                    operator_cost = price_rl
                if incumbent is not None:
                    if cost == incumbent:  # repro: disable=no-float-cost-eq
                        challenger = join_fingerprint(
                            fingerprint(vertex_set ^ inner), fingerprint(inner)
                        )
                        if not challenger < fingerprint(vertex_set):
                            continue
                        fingerprints[vertex_set] = challenger
                    else:
                        fingerprints.pop(vertex_set, None)
                    stats.plan_improvements += 1
                dp[vertex_set] = cost
                split[vertex_set] = inner
                operator_costs[vertex_set] = operator_cost
        except BudgetExceeded:
            # The root's best plan so far is complete (every smaller class
            # is final by then): register it for the caller's salvage.
            if root in dp:
                self._builder.build_split_tree(
                    self._memo, root, split, operator_costs
                )
            raise
        stats.plan_classes_built = len(dp) - query.n_relations
        if root not in dp:
            return None
        return self._builder.build_split_tree(
            self._memo, root, split, operator_costs
        )

    def optimal_class_costs(self) -> Dict[int, float]:
        """Optimal cost per plan class (the APCBI_Opt oracle ``uB`` table).

        Only valid after :meth:`run`.  Singleton classes are included with
        cost 0; harmless, since leaves are returned before ``uB`` lookups.
        """
        if self._dp is not None:
            return dict(self._dp)
        return {
            vertex_set: tree.cost for vertex_set, tree in self._memo.entries()
        }


_INFINITY = float("inf")

_ORDER_BUG = (
    "DPccp visited a ccp before its components were planned — "
    "enumeration bug"
)

