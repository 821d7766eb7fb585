"""DPccp — bottom-up join enumeration via dynamic programming ([2]).

Moerkotte & Neumann's algorithm enumerates every csg-cmp pair of the query
graph exactly once using the EnumerateCsg / EnumerateCsgRec / EnumerateCmp
recursion and builds optimal plans bottom-up.  In this library it plays the
same role as in the paper: the state-of-the-art baseline whose runtime is
the denominator of every *normed time*, and the oracle that supplies
optimal per-class costs for APCBI_Opt.

Implementation note: EnumerateCsg, EnumerateCsgRec and EnumerateCmp are
recursive functions that hand each set to a callback (a list's
``append``), not generators — a ``yield from`` chain costs a frame
resumption per level for every set it passes up.  They keep the
published emission order.  That order is compatible with dynamic
programming; :meth:`DPccp.run` nevertheless files each pair into a
bucket by the size of its union as it is listed, and the sweep reads the
buckets in size order, which makes the correctness argument local at the
price of holding the pairs once, packed into one 64-bit word each (the
overhead is charged to DPccp's measured runtime).  The run takes each
connected set as EnumerateCsg emits it, lists its complements and
charges the budget once per pair, in emission order, before the next set
is listed; the sweep charges again per pair.

At ``k = 1`` the sweep keeps flat per-class cost and split tables, as
DPconv does, and builds only the winning tree (``n - 1`` joins) at the
end.  Under a ``cout_shaped`` model (``C_out``) both join orders of
every ccp of a class cost the class's cardinality, so the sweep prices
each class once, from the provider's factor table as DPconv does, and
fixes join orders on the winning tree only; the plan, its cost and every
class cost are those the generic sweep gives.  Under any other model
each ccp is priced in one :meth:`~repro.plans.builder.PlanBuilder.price`
call, which asks the cost model for both join orders at once
(:meth:`~repro.cost.model.CostModel.join_costs`).  Ranked runs
(``k > 1``) register trees through BUILDTREE's ranked cross product.
:meth:`DPccp.optimal_class_costs` covers every class either way.
"""

from __future__ import annotations

from array import array
from itertools import chain
from math import isnan
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    List,
    MutableSequence,
    Optional,
    Sequence,
    Tuple,
)

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


def _enumerate_csg_rec(
    neighborhood: Callable[[int], int],
    subset: int,
    exclude: int,
    emit: Callable[[int], object],
) -> None:
    """EnumerateCsgRec: emit ``subset`` enlarged by neighborhood subsets.

    ``neighborhood`` is the graph's memoized ``N(.)``.  Every enlargement
    is emitted first, then each one recurses, in the published order.
    """
    neighbors = neighborhood(subset) & ~exclude
    if not neighbors:
        return
    # Descending subsets of the neighborhood (bitset.iter_subsets' order),
    # walked twice rather than through a generator or a held list.
    extension = neighbors
    while extension:
        emit(subset | extension)
        extension = (extension - 1) & neighbors
    blocked = exclude | neighbors
    extension = neighbors
    while extension:
        _enumerate_csg_rec(neighborhood, subset | extension, blocked, emit)
        extension = (extension - 1) & neighbors


def _emit_csgs(graph: QueryGraph, emit: Callable[[int], object]) -> None:
    """EnumerateCsg: hand every connected subset to ``emit``, in order."""
    neighborhood = graph.neighborhood
    for index in range(graph.n_vertices - 1, -1, -1):
        start = bitset.singleton(index)
        emit(start)
        forbidden = bitset.full_set(index + 1)  # B_i: all vertices <= index
        _enumerate_csg_rec(neighborhood, start, forbidden, emit)


def enumerate_csg(graph: QueryGraph) -> List[int]:
    """EnumerateCsg: every connected subset, each exactly once, in order."""
    out: List[int] = []
    _emit_csgs(graph, out.append)
    return out


def _enumerate_cmp(neighborhood: Callable[[int], int], subset: int) -> List[int]:
    """EnumerateCmp: the connected complements pairing with ``subset``."""
    out: List[int] = []
    append = out.append
    forbidden = subset | bitset.full_set(bitset.lowest_index(subset) + 1)
    neighbors = neighborhood(subset) & ~forbidden  # B_min(S1) u S1 excluded
    remaining = neighbors
    # Hot per-csg loop: highest-bit extraction stays inlined.
    while remaining:
        high = 1 << (remaining.bit_length() - 1)  # repro: disable=bitset-discipline
        remaining ^= high
        append(high)
        below = (high - 1) & neighbors  # B_i n N
        _enumerate_csg_rec(neighborhood, high, forbidden | below, append)
    return out


def enumerate_csg_cmp_pairs(
    graph: QueryGraph, csgs: Optional[Iterable[int]] = None
) -> List[Tuple[int, int]]:
    """Every csg-cmp pair of the graph, each symmetric pair once, in order.

    ``csgs`` is the graph's connected-set list in :func:`enumerate_csg`
    order, for a caller that already listed it; by default it is
    enumerated here.
    """
    neighborhood = graph.neighborhood
    return [
        (left, right)
        for left in (enumerate_csg(graph) if csgs is None else csgs)
        for right in _enumerate_cmp(neighborhood, left)
    ]


#: Up to this many relations a packed csg-cmp pair fits in an unsigned
#: 64-bit word; a larger query files its packed pairs in plain lists.
_PACKED_RELATIONS = 32


def _fingerprint(
    vertex_set: int,
    split: Dict[int, int],
    fingerprints: Dict[int, str],
    orient: bool = False,
) -> str:
    """Fingerprint of a class's plan in a split table, cached.

    ``split[S]`` is the inner input of ``S``'s join.  With ``orient`` it
    may be either input: the lower-fingerprint one becomes the outer
    input, and ``split`` is rewritten to say so.  A module function over
    the two tables, not a closure in the sweep: a self-referencing
    closure is a reference cycle that would keep both tables alive until
    the cyclic collector ran.
    """
    cached = fingerprints.get(vertex_set)
    if cached is None:
        inner = split[vertex_set]
        outer_print = _fingerprint(vertex_set ^ inner, split, fingerprints, orient)
        inner_print = _fingerprint(inner, split, fingerprints, orient)
        if orient and inner_print < outer_print:
            split[vertex_set] = vertex_set ^ inner
            outer_print, inner_print = inner_print, outer_print
        cached = join_fingerprint(outer_print, inner_print)
        fingerprints[vertex_set] = cached
    return cached


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
        # Each connected set is handled as the enumeration emits it, so
        # the budget is charged per pair while the pairs are listed.
        budget = self._budget
        memo_size = len(self._memo)
        stats = self.stats
        neighborhood = self._graph.neighborhood
        bit_count = bitset.bit_count
        # One word per pair, ``left`` above the low ``n`` bits and
        # ``right`` in them: 8 bytes in an array('Q') where a tuple of
        # two ints holds about 90.
        shift = query.n_relations
        new_bucket = (
            (lambda: array("Q")) if shift <= _PACKED_RELATIONS else list
        )
        buckets: List[MutableSequence[int]] = [
            new_bucket() for _ in range(query.n_relations + 1)
        ]

        def file_pairs(left: int) -> None:
            """List ``left``'s complements, charge them, bucket the pairs."""
            rights = _enumerate_cmp(neighborhood, left)
            if budget is None:
                stats.ccps_enumerated += len(rights)
            else:
                for _ in rights:
                    budget.check(memo_size)
                    stats.ccps_enumerated += 1
            size = bit_count(left)
            high = left << shift
            for right in rights:
                buckets[size + bit_count(right)].append(high | right)

        if self._csgs is None:
            _emit_csgs(self._graph, file_pairs)
        else:
            for left in self._csgs:
                file_pairs(left)
        if self._memo.k > 1:
            plan = self._run_ranked(buckets)
        elif getattr(self._context.cost_model, "cout_shaped", False):
            plan = self._run_cout(buckets)
        else:
            plan = self._run_flat(buckets)
        if plan is None:
            raise OptimizationError("DPccp produced no plan for the full query")
        return plan

    def _run_ranked(self, buckets: Sequence[Iterable[int]]) -> Optional[JoinTree]:
        """``k > 1``: every ccp goes through BUILDTREE's ranked cross product."""
        budget = self._budget
        memo = self._memo
        builder = self._builder
        shift = self._query.n_relations
        mask = bitset.full_set(shift)
        for word in chain.from_iterable(buckets):
            if budget is not None:
                budget.check(len(memo))
            self.stats.ccps_considered += 1
            left_tree = memo.best(word >> shift)
            right_tree = memo.best(word & mask)
            if left_tree is None or right_tree is None:
                raise OptimizationError(_ORDER_BUG)
            builder.build_ccp(memo, left_tree, right_tree)
        self.stats.plan_classes_built = memo.n_plan_classes()
        return memo.best(self._graph.all_vertices)

    def _run_flat(self, buckets: Sequence[Iterable[int]]) -> Optional[JoinTree]:
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
        shift = query.n_relations
        mask = bitset.full_set(shift)
        dp, split, fingerprints = self._tables()
        operator_costs: Dict[int, float] = {}
        root = self._graph.all_vertices
        try:
            for word in chain.from_iterable(buckets):
                if budget is not None:
                    budget.check(len(dp))
                stats.ccps_considered += 1
                left = word >> shift
                right = word & mask
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
                if tie and _fingerprint(right, split, fingerprints) < _fingerprint(
                    left, split, fingerprints
                ):
                    inner = left
                    operator_cost = price_rl
                if incumbent is not None:
                    if cost == incumbent:  # repro: disable=no-float-cost-eq
                        challenger = join_fingerprint(
                            _fingerprint(vertex_set ^ inner, split, fingerprints),
                            _fingerprint(inner, split, fingerprints),
                        )
                        incumbent_print = _fingerprint(vertex_set, split, fingerprints)
                        if not challenger < incumbent_print:
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

    def _run_cout(self, buckets: Sequence[Iterable[int]]) -> Optional[JoinTree]:
        """``k = 1`` under a ``cout_shaped`` model: each class priced once.

        Both orders of every ccp of ``S`` cost ``c(S)``, the cardinality
        of the union, so ``c(S)`` is read once per class from the
        provider's factor table
        (:meth:`~repro.cost.statistics.StatisticsProvider.estimate_cardinality`,
        as DPconv's sweep reads it) and every pair sums
        ``(dp[L] + dp[R]) + c(S)`` — the additions :meth:`_run_flat`
        makes, on the same pairs in the same order, charging the budget
        and the counters as it does.

        Since the two orders of a pair tie, :meth:`_run_flat` makes the
        lower-fingerprint input the outer one, and so its plan for ``S``
        is the pair whose outer input has the lowest fingerprint.  Two
        joins of ``S`` compare as their outer inputs do (two different
        complete fingerprints first differ inside both, or one is a leaf
        prefixing another, where ``"."`` sorts below every digit), so an
        exact cost tie compares two child fingerprints and builds no
        string for ``S``; fingerprints are computed only then.  ``split``
        keeps either input as the inner one, and only the winning tree's
        joins are oriented, at the end.  That tree is rebuilt through
        the model's real ``join_cost`` and checked against ``dp[root]``,
        as :meth:`DPconv.run <repro.baselines.dpconv.DPconv.run>` does.
        """
        query = self._query
        budget = self._budget
        stats = self.stats
        cardinality = self._provider.estimate_cardinality
        shift = query.n_relations
        mask = bitset.full_set(shift)
        dp, split, fingerprints = self._tables()
        # Class -> c(S), priced the first time one of its pairs is swept.
        class_costs: Dict[int, float] = {}
        root = self._graph.all_vertices
        considered = improvements = 0
        try:
            for word in chain.from_iterable(buckets):
                if budget is not None:
                    budget.check(len(dp))
                considered += 1
                left = word >> shift
                right = word & mask
                vertex_set = left | right
                operator_cost = class_costs.get(vertex_set)
                if operator_cost is None:
                    operator_cost = cardinality(vertex_set)
                    class_costs[vertex_set] = operator_cost
                cost = (dp[left] + dp[right]) + operator_cost
                incumbent = dp.get(vertex_set)
                if incumbent is None:
                    if not isnan(cost):  # NaN never enters
                        dp[vertex_set] = cost
                        split[vertex_set] = right
                    continue
                if not cost <= incumbent:
                    continue
                if cost == incumbent:  # repro: disable=no-float-cost-eq
                    # The inputs of both joins are final classes, whose
                    # fingerprints are computed once and stay.
                    inner = split[vertex_set]
                    challenger = min(
                        _fingerprint(left, split, fingerprints, True),
                        _fingerprint(right, split, fingerprints, True),
                    )
                    if not challenger < min(
                        _fingerprint(inner, split, fingerprints, True),
                        _fingerprint(vertex_set ^ inner, split, fingerprints, True),
                    ):
                        continue
                else:
                    dp[vertex_set] = cost
                split[vertex_set] = right
                improvements += 1
        except BudgetExceeded:
            # The root's best plan so far is complete (every smaller class
            # is final by then): register it for the caller's salvage.
            if root in dp:
                self._build_cout_tree(root, dp, split, fingerprints)
            raise
        except KeyError:
            raise OptimizationError(_ORDER_BUG) from None
        finally:
            stats.ccps_considered += considered
            stats.plan_improvements += improvements
            stats.operator_pricings += len(class_costs)
        stats.plan_classes_built = len(dp) - query.n_relations
        if root not in dp:
            return None
        return self._build_cout_tree(root, dp, split, fingerprints)

    def _tables(self) -> Tuple[Dict[int, float], Dict[int, int], Dict[int, str]]:
        """A ``k = 1`` sweep's cost, split and fingerprint tables.

        ``dp`` holds every class's best cost so far (kept for
        :meth:`optimal_class_costs`), ``split`` its plan's inner input and
        ``fingerprints`` its plan's fingerprint, filled only when an exact
        tie needs it (the generic sweep drops a class's entry when its
        plan changes; the ``C_out`` sweep asks only for final classes).
        """
        dp: Dict[int, float] = {}
        fingerprints: Dict[int, str] = {}
        for index in range(self._query.n_relations):
            dp[bitset.singleton(index)] = 0.0
            fingerprints[bitset.singleton(index)] = str(index)
        self._dp = dp
        return dp, {}, fingerprints

    def _build_cout_tree(
        self,
        root: int,
        dp: Dict[int, float],
        split: Dict[int, int],
        fingerprints: Dict[int, str],
    ) -> JoinTree:
        """Orient the winning tree's joins, then build it and check its cost."""
        _fingerprint(root, split, fingerprints, True)
        plan = self._builder.build_split_tree(self._memo, root, split)
        if plan.cost != dp[root]:  # repro: disable=no-float-cost-eq
            raise OptimizationError(
                f"DPccp reconstruction cost {plan.cost!r} diverges from the "
                f"swept value {dp[root]!r}; the cost model's cout_shaped "
                "declaration is wrong"
            )
        return plan

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

