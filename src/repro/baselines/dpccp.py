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
resumption per level for every set it passes up.  They read the graph's
neighborhood memo directly, call EnumerateCsgRec only for a set that
still has an unblocked neighbour, and keep the published emission
order.  That order is compatible with dynamic programming;
:meth:`DPccp.run` nevertheless files each pair into a bucket by the
size of its union as it is listed, and the sweep reads the
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
class cost are those the generic sweep gives.  Under a ``page_priced``
model (Haas) every ccp is priced in one call on its inputs' page counts,
read from a flat pages table filled once per class, and a ccp whose I/O
lower bound ``(dp[L] + dp[R]) + (pages(L) + pages(R))`` is strictly
above its class's incumbent is skipped unpriced; ``operator_pricings``
counts the ccps priced.  Both sweeps rebuild the winning tree through
the model's real ``join_cost`` and check its cost, and both leave
statistics objects to the winning tree's classes.  Under any other
model (wrappers such as fault injection included) each ccp is priced in
one :meth:`~repro.plans.builder.PlanBuilder.price` call, which asks the
cost model for both join orders at once
(:meth:`~repro.cost.model.CostModel.join_costs`).  Ranked runs
(``k > 1``) register trees through BUILDTREE's ranked cross product.
:meth:`DPccp.optimal_class_costs` covers every class either way.

A ``k = 1`` sweep breaks exact cost ties by plan fingerprint, and a
leaf's fingerprint is its relation index.  ``labels`` renames the leaves
for those comparisons only: leaf ``v``'s fingerprint becomes
``str(labels[v])``.  Under a numbering's labels every comparison the run
makes is the one a run on the query relabeled into that numbering would
make (costs do not depend on the numbering: statistics multiply in value
order), so the run returns that run's plan, in the caller's numbering
and on the caller's context.
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
from repro.errors import BudgetExceeded, OptimizationError
from repro.graph import bitset
from repro.graph.query_graph import QueryGraph
from repro.plans.builder import PlanBuilder
from repro.plans.join_tree import JoinTree, join_fingerprint
from repro.plans.memo import MemoTable
from repro.stats.counters import OptimizationStats

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a package cycle
    from repro.resilience.budget import Budget

__all__ = [
    "DPccp",
    "enumerate_csg_cmp_pairs",
    "enumerate_csg",
]


def _grow(
    memo: Dict[int, int],
    neighborhood: Callable[[int], int],
    subset: int,
    neighbors: int,
    exclude: int,
    emit: Callable[[int], object],
) -> None:
    """EnumerateCsgRec: emit ``subset`` enlarged by subsets of ``neighbors``.

    ``neighbors`` is ``N(subset)`` minus ``exclude``, and not empty.  Every
    enlargement is emitted first, then each one recurses, in the published
    order; an enlargement with no unblocked neighbour would emit nothing,
    so its call is skipped.  ``memo`` is the graph's ``N(.)`` memo, read
    directly; ``neighborhood`` fills it on a miss.
    """
    # Descending subsets of the neighborhood (bitset.iter_subsets' order),
    # walked twice rather than through a generator or a held list.
    extension = neighbors
    while extension:
        emit(subset | extension)
        extension = (extension - 1) & neighbors
    blocked = exclude | neighbors
    allowed = ~blocked
    extension = neighbors
    while extension:
        grown = subset | extension
        reach = memo.get(grown)
        if reach is None:
            reach = neighborhood(grown)
        reach &= allowed
        if reach:
            _grow(memo, neighborhood, grown, reach, blocked, emit)
        extension = (extension - 1) & neighbors


def _emit_csgs(graph: QueryGraph, emit: Callable[[int], object]) -> None:
    """EnumerateCsg: hand every connected subset to ``emit``, in order."""
    memo = graph.neighborhood_memo
    neighborhood = graph.neighborhood
    for index in range(graph.n_vertices - 1, -1, -1):
        start = bitset.singleton(index)
        emit(start)
        forbidden = bitset.full_set(index + 1)  # B_i: all vertices <= index
        reach = neighborhood(start) & ~forbidden
        if reach:
            _grow(memo, neighborhood, start, reach, forbidden, emit)


class _CapReached(Exception):
    """Stops an EnumerateCsg listing from inside its callback."""


def enumerate_csg(
    graph: QueryGraph, cap: Optional[int] = None
) -> Optional[List[int]]:
    """EnumerateCsg: every connected subset, each exactly once, in order.

    With a ``cap`` the listing stops at the ``cap + 1``-th connected set
    and returns ``None``, so a graph with many more costs no more than one
    just over the cap.
    """
    out: List[int] = []
    append = out.append
    if cap is None:
        _emit_csgs(graph, append)
        return out

    def emit(vertex_set: int) -> None:
        append(vertex_set)
        if len(out) > cap:
            raise _CapReached

    try:
        _emit_csgs(graph, emit)
    except _CapReached:
        return None
    return out


def _list_pairs(
    graph: QueryGraph,
    csgs: Optional[Iterable[int]],
    buckets: Sequence[MutableSequence[int]],
    stats: OptimizationStats,
    budget: Optional["Budget"] = None,
    memo_size: int = 0,
) -> None:
    """List every csg-cmp pair, filing each connected set's as it is listed.

    Each connected set (from ``csgs``, in :func:`enumerate_csg` order, or
    as EnumerateCsg emits it) has its complements listed (EnumerateCmp),
    then the budget is charged once per pair and each pair is appended,
    packed into one word (``left`` above the low ``n`` bits, ``right`` in
    them), to ``buckets[|left| + |right|]`` — all before the next set is
    listed, so a budget trips while the pairs are listed.
    """
    memo = graph.neighborhood_memo
    neighborhood = graph.neighborhood
    bit_count = bitset.bit_count
    shift = graph.n_vertices

    def file_pairs(left: int) -> None:
        rights: List[int] = []
        append = rights.append
        reach = memo.get(left)
        if reach is None:
            reach = neighborhood(left)
        # Hot per-csg code: the lowest- and highest-bit tricks stay inlined.
        low = left & -left  # repro: disable=bitset-discipline
        forbidden = left | ((low << 1) - 1)  # S1 and B_min(S1)
        neighbors = reach & ~forbidden
        remaining = neighbors
        while remaining:
            high = 1 << (remaining.bit_length() - 1)  # repro: disable=bitset-discipline
            remaining ^= high
            append(high)
            blocked = forbidden | ((high - 1) & neighbors)  # B_i n N
            reach = memo.get(high)
            if reach is None:
                reach = neighborhood(high)
            reach &= ~blocked
            if reach:
                _grow(memo, neighborhood, high, reach, blocked, append)
        if budget is None:
            stats.ccps_enumerated += len(rights)
        else:
            for _ in rights:
                budget.check(memo_size)
                stats.ccps_enumerated += 1
        size = bit_count(left)
        packed = left << shift
        for right in rights:
            buckets[size + bit_count(right)].append(packed | right)

    if csgs is None:
        _emit_csgs(graph, file_pairs)
    else:
        for left in csgs:
            file_pairs(left)


def enumerate_csg_cmp_pairs(
    graph: QueryGraph, csgs: Optional[Iterable[int]] = None
) -> List[Tuple[int, int]]:
    """Every csg-cmp pair of the graph, each symmetric pair once, in order.

    ``csgs`` is the graph's connected-set list in :func:`enumerate_csg`
    order, for a caller that already listed it; by default it is
    enumerated here.
    """
    # One list under every size files the pairs in emission order.
    words: List[int] = []
    shift = graph.n_vertices
    _list_pairs(graph, csgs, [words] * (shift + 1), OptimizationStats())
    mask = bitset.full_set(shift)
    return [(word >> shift, word & mask) for word in words]


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

    Built on a query's :class:`~repro.context.OptimizationContext` (its
    budget included).  ``csgs`` hands in the query graph's connected
    sets, in :func:`enumerate_csg` order, when the caller already
    enumerated them (a route's prediction does); the run then does not
    list them again.  ``labels`` (``k = 1`` only) is the numbering whose
    fingerprints break exact cost ties: leaf ``v`` reads
    ``str(labels[v])`` (see the module notes).
    """

    name = "dpccp"

    def __init__(
        self,
        context: OptimizationContext,
        *,
        csgs: Optional[Sequence[int]] = None,
        labels: Optional[Sequence[int]] = None,
    ):
        self._context = context
        self._query = context.query
        self._graph = context.query.graph
        self._provider = context.provider
        self._builder = context.builder
        self._memo = MemoTable(k=context.topk)
        self._budget = context.budget
        self._csgs = csgs
        if labels is not None and context.topk > 1:
            raise ValueError("labels apply to single-best (k = 1) runs only")
        self._labels = labels
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
        # One word per pair: 8 bytes in an array('Q') where a tuple of two
        # ints holds about 90.
        new_bucket = (
            (lambda: array("Q")) if query.n_relations <= _PACKED_RELATIONS else list
        )
        buckets: List[MutableSequence[int]] = [
            new_bucket() for _ in range(query.n_relations + 1)
        ]
        _list_pairs(
            self._graph, self._csgs, buckets, self.stats, self._budget, len(self._memo)
        )
        model = self._context.cost_model
        if self._memo.k > 1:
            plan = self._run_ranked(buckets)
        elif getattr(model, "cout_shaped", False):
            plan = self._run_cout(buckets)
        elif getattr(model, "page_priced", False):
            plan = self._run_flat(buckets, model.page_join_costs)
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

    def _run_flat(
        self,
        buckets: Sequence[Iterable[int]],
        page_costs: Optional[Callable[[float, float], Tuple[float, float]]] = None,
    ) -> Optional[JoinTree]:
        """``k = 1``: flat cost/split tables, then only the winning tree.

        Per ccp, both orders are priced and summed exactly as ``JoinNode``
        would: ``(dp[L] + dp[R]) + c``.  A class keeps the first order in
        the memotable's (cost, fingerprint) order, NaN never enters, and a
        class's first entry is taken whatever its cost — so the tables end
        up holding exactly the plans a memotable of trees would, and
        :meth:`PlanBuilder.build_split_tree` materializes the root's.  The
        memo-size budget counts table entries, as it counted memotable
        entries.

        By default each ccp is priced in one
        :meth:`~repro.plans.builder.PlanBuilder.price` call.  With
        ``page_costs`` (a ``page_priced`` model's
        :meth:`~repro.cost.haas.HaasCostModel.page_join_costs`) the sweep
        keeps a flat pages table, filled once per class from
        :meth:`~repro.cost.statistics.StatisticsProvider.estimate_pages`,
        and prices from it.  Every order then costs at least
        ``pages(L) + pages(R)``, so a ccp whose
        ``(dp[L] + dp[R]) + (pages(L) + pages(R))`` is strictly above the
        class's incumbent cannot enter and is skipped unpriced (after its
        budget charge and count; an exact tie is priced, as it may win on
        fingerprint).  The winning tree is rebuilt through the model's
        real ``join_cost`` and checked against ``dp[root]``.
        """
        query = self._query
        budget = self._budget
        stats = self.stats
        price = self._builder.price
        shift = query.n_relations
        mask = bitset.full_set(shift)
        dp, split, fingerprints = self._tables()
        root = self._graph.all_vertices
        if page_costs is None:
            operator_costs: Optional[Dict[int, float]] = {}
        else:
            operator_costs = None
            class_pages = self._provider.estimate_pages
            pages = {vertex_set: class_pages(vertex_set) for vertex_set in dp}
            page_prices: Dict[Tuple[float, float], Tuple[float, float]] = {}
        considered = priced = improvements = 0
        try:
            for word in chain.from_iterable(buckets):
                if budget is not None:
                    budget.check(len(dp))
                considered += 1
                left = word >> shift
                right = word & mask
                left_cost = dp.get(left)
                right_cost = dp.get(right)
                if left_cost is None or right_cost is None:
                    raise OptimizationError(_ORDER_BUG)
                vertex_set = left | right
                base = left_cost + right_cost
                incumbent = dp.get(vertex_set)
                if page_costs is None:
                    price_lr, price_rl = price(left, right)
                else:
                    left_pages = pages[left]
                    right_pages = pages[right]
                    if (
                        incumbent is not None
                        and base + (left_pages + right_pages) > incumbent
                    ):
                        continue  # the I/O bound: this ccp cannot enter
                    # Many ccps share their inputs' page counts.  A page
                    # count is 1.0 or an int of at least 2, so equal keys
                    # have equal types and the memo returns the prices a
                    # call would.
                    page_pair = (left_pages, right_pages)
                    prices = page_prices.get(page_pair)
                    if prices is None:
                        prices = page_costs(left_pages, right_pages)
                        page_prices[page_pair] = prices
                    price_lr, price_rl = prices
                    priced += 1
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
                if incumbent is not None and not cost <= incumbent:
                    continue
                # Fingerprints only for a cost that can still enter.
                if tie and _fingerprint(right, split, fingerprints) < _fingerprint(
                    left, split, fingerprints
                ):
                    inner = left
                    operator_cost = price_rl
                if incumbent is None:
                    if page_costs is not None:
                        pages[vertex_set] = class_pages(vertex_set)
                else:
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
                    improvements += 1
                dp[vertex_set] = cost
                split[vertex_set] = inner
                if operator_costs is not None:
                    operator_costs[vertex_set] = operator_cost
        except BudgetExceeded:
            # The root's best plan so far is complete (every smaller class
            # is final by then): register it for the caller's salvage.
            if root in dp:
                self._build_swept_tree(root, dp, split, operator_costs)
            raise
        finally:
            stats.ccps_considered += considered
            stats.plan_improvements += improvements
            stats.operator_pricings += priced
        stats.plan_classes_built = len(dp) - query.n_relations
        if root not in dp:
            return None
        return self._build_swept_tree(root, dp, split, operator_costs)

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
        A leaf's fingerprint is its index, or its label under ``labels``.
        """
        dp: Dict[int, float] = {}
        fingerprints: Dict[int, str] = {}
        labels = self._labels
        for index in range(self._query.n_relations):
            dp[bitset.singleton(index)] = 0.0
            fingerprints[bitset.singleton(index)] = str(
                index if labels is None else labels[index]
            )
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
        return self._build_swept_tree(root, dp, split)

    def _build_swept_tree(
        self,
        root: int,
        dp: Dict[int, float],
        split: Dict[int, int],
        operator_costs: Optional[Dict[int, float]] = None,
    ) -> JoinTree:
        """Build the winning tree of a ``k = 1`` sweep and check its cost.

        Without ``operator_costs`` the joins are priced through the
        model's real ``join_cost``, so a sweep that priced from a
        declaration (``cout_shaped``, ``page_priced``) is checked against
        the model itself, as :meth:`DPconv.run
        <repro.baselines.dpconv.DPconv.run>` checks its sweep.
        """
        plan = self._builder.build_split_tree(self._memo, root, split, operator_costs)
        if plan.cost != dp[root]:  # repro: disable=no-float-cost-eq
            raise OptimizationError(
                f"DPccp reconstruction cost {plan.cost!r} diverges from the "
                f"swept value {dp[root]!r}; the cost model's sweep "
                "declaration (cout_shaped or page_priced) is wrong"
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

