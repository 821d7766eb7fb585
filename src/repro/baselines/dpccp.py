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
the model's real ``join_cost`` and check its cost
(:meth:`~repro.plans.builder.PlanBuilder.build_split_tree`, as DPconv
does), and both leave statistics objects to the winning tree's
classes.  Under any other model (wrappers such as fault injection
included) each ccp is priced in one
:meth:`~repro.plans.builder.PlanBuilder.price` call, which asks the
cost model for both join orders at once
(:meth:`~repro.cost.model.CostModel.join_costs`).  Ranked runs
(``k > 1``) register trees through BUILDTREE's ranked cross product.
:meth:`DPccp.optimal_class_costs` covers every class either way.

A ``bound`` (the cost of some plan without cross products; both routes
pass GOO's) prunes a single-best ``C_out`` or ``page_priced`` sweep, as
GOO's cost seeds the paper's upper bounds (advancement 2).  Every listed
connected set is priced once, before any pair is listed: its cardinality
under ``C_out``, its pages under a ``page_priced`` model.  A set ``S``
with ``|S| >= 2`` other than the root is *dead* when a lower bound on
the cost of every plan that joins it is strictly above the bound.  Under
``C_out`` that is ``c(S) + c(root)``, in float as well, since rounding
is monotone.  Under a ``page_priced`` model every join reads both of its
inputs, and every input of a join is a base relation or the class of
another join, so a plan that joins ``S`` costs at least
``sum_v pages(v) + pages(S)``: each base relation is read once and ``S``
once more.  That sum of ``n + 1`` terms follows no plan's order of
additions, so ``S`` is dead only when it is above
``bound * (1 + 8n * 2**-53)`` (see :meth:`DPccp._dead_classes` for why
the margin covers the rounding).  A dead set's complements are not
listed, and no pair whose right side or union is dead is filed.  Plans
and costs do not change: an optimal plan, and every plan it ties with at
any class, joins only live classes, so every comparison the
``(cost, fingerprint)`` rule makes for the winning tree is still made.
A live class whose every pair joins a dead one gets no plan, and a pair
with a planless input is skipped.  The run checks that the root's cost
is at most the bound, which fails exactly when the bound is below the
optimum.  In a bounded run ``ccps_enumerated`` counts the complements
listed for live sets (dropped pairs included), ``ccps_considered`` the
pairs filed and swept (skipped ones included), and
``operator_pricings`` what the unbounded sweep counts: under ``C_out``
the sets of two or more relations, all of them, and under a
``page_priced`` model the ccps priced.

A ``k = 1`` sweep breaks exact cost ties by plan fingerprint, and a
leaf's fingerprint is its relation index.  Two joins of one class
compare as their outer inputs' fingerprints do: two different join
fingerprints ``"(outer.inner)"`` first differ inside both outer inputs,
or one outer input is a leaf prefixing the other, where ``"."`` sorts
below every digit.  So a tie compares the fingerprints of two final
classes (smaller ones, whose plans no longer change) and no sweep builds
a fingerprint for a class it is still filling.  ``labels`` renames the
leaves for those comparisons only: leaf ``v``'s fingerprint becomes
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
    AbstractSet,
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
    dead: AbstractSet[int] = frozenset(),
) -> None:
    """List every csg-cmp pair, filing each connected set's as it is listed.

    Each connected set (from ``csgs``, in :func:`enumerate_csg` order, or
    as EnumerateCsg emits it) has its complements listed (EnumerateCmp),
    then the budget is charged once per pair and each pair is appended,
    packed into one word (``left`` above the low ``n`` bits, ``right`` in
    them), to ``buckets[|left| + |right|]`` — all before the next set is
    listed, so a budget trips while the pairs are listed.

    Sets in ``dead`` (which needs ``csgs``) are in no plan the caller
    wants: a dead set's complements are not listed, and a listed pair
    whose right side or union is dead is charged and counted but not
    filed.
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
                budget.check()
                stats.ccps_enumerated += 1
        size = bit_count(left)
        packed = left << shift
        if not dead:
            for right in rights:
                buckets[size + bit_count(right)].append(packed | right)
            return
        for right in rights:
            if right not in dead and (left | right) not in dead:
                buckets[size + bit_count(right)].append(packed | right)

    if csgs is None:
        _emit_csgs(graph, file_pairs)
        return
    for left in csgs:
        if left not in dead:
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
    ``str(labels[v])`` (see the module notes).  ``bound`` (``k = 1``
    under a ``cout_shaped`` or ``page_priced`` model only) is the cost of
    a plan without cross products, such as GOO's; the sweep then skips
    the classes no plan at or under it can join (see the module notes).
    A NaN or infinite bound prunes nothing.
    """

    name = "dpccp"

    def __init__(
        self,
        context: OptimizationContext,
        *,
        csgs: Optional[Sequence[int]] = None,
        labels: Optional[Sequence[int]] = None,
        bound: Optional[float] = None,
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
        model = context.cost_model
        if bound is not None and not (
            context.topk == 1
            and (
                getattr(model, "cout_shaped", False)
                or getattr(model, "page_priced", False)
            )
        ):
            raise ValueError(
                "a bound applies to single-best C_out or page-priced runs only"
            )
        # A NaN or infinite bound prunes nothing: run unbounded.
        self._bound = bound if bound is not None and bound < _INFINITY else None
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
        csgs = self._csgs
        # Per class: its cardinality under C_out, its pages under a
        # page_priced model.
        class_prices: Dict[int, float] = {}
        dead: AbstractSet[int] = frozenset()
        if self._bound is not None:
            if csgs is None:
                csgs = enumerate_csg(self._graph)
            class_prices, dead = self._dead_classes(csgs, self._bound)
        _list_pairs(self._graph, csgs, buckets, self.stats, self._budget, dead)
        model = self._context.cost_model
        if self._memo.k > 1:
            plan = self._run_ranked(buckets)
        elif getattr(model, "cout_shaped", False):
            plan = self._run_cout(buckets, class_prices)
        elif getattr(model, "page_priced", False):
            plan = self._run_flat(buckets, model.page_join_costs, class_prices)
        else:
            plan = self._run_flat(buckets)
        if plan is None:
            raise OptimizationError("DPccp produced no plan for the full query")
        return plan

    def _dead_classes(
        self, csgs: Iterable[int], bound: float
    ) -> Tuple[Dict[int, float], AbstractSet[int]]:
        """Price every class once; return the prices and the dead classes.

        A class ``S`` (neither a leaf nor the root) is dead when a lower
        bound on every plan that joins it is strictly above ``bound``: no
        plan at or under the bound joins it.

        Under ``C_out`` each class of two or more relations is priced at
        its cardinality, and the lower bound is ``c(S) + c(root)``, in
        float too, as rounding is monotone.

        Under a ``page_priced`` model every class, leaves included, is
        priced at its pages, and the lower bound is
        ``L(S) = sum_v pages(v) + pages(S)``.  A plan reads every base
        relation once and the class of each join but the root's once, so
        ``L(S)`` is at most the exact sum of its joins' input pages, and
        each join's operator cost is at least the float sum of its two
        inputs' pages (:attr:`~repro.cost.model.CostModel.page_priced`).
        Rounding moves each float addition of nonnegative terms by a
        factor within ``1 +- u`` (``u = 2**-53``), so with ``m``
        additions a sum lies within ``(1 +- u)**m`` of its exact value.
        The plan's float cost takes ``2(n - 1)`` additions, which puts
        it at or above ``L(S) * (1 - u)**(2n - 1)``; the test computes
        ``L(S)`` with ``n`` additions, at most ``L(S) * (1 + u)**n``,
        and the limit ``bound * (1 + 8n u)`` with one rounded product.
        A float ``L(S)`` above the float limit then puts the plan's
        float cost above ``bound * (1 + 8n u) * (1 - u)**(3n) > bound``
        (page counts are at least 1, so nothing is subnormal).  The
        margin matters once costs pass ``2**53``, where adding page
        counts rounds.
        """
        bit_count = bitset.bit_count
        root = self._graph.all_vertices
        if getattr(self._context.cost_model, "cout_shaped", False):
            cardinality = self._provider.estimate_cardinality
            prices = {
                vertex_set: cardinality(vertex_set)
                for vertex_set in csgs
                if bit_count(vertex_set) > 1
            }
            rest = prices[root]
            limit = bound
        else:
            class_pages = self._provider.estimate_pages
            prices = {vertex_set: class_pages(vertex_set) for vertex_set in csgs}
            n = self._query.n_relations
            rest = 0.0
            for index in range(n):
                rest += prices[bitset.singleton(index)]
            limit = bound * (1.0 + 8 * n * _UNIT_ROUNDOFF)
        dead = {
            vertex_set
            for vertex_set, price in prices.items()
            if price + rest > limit and bit_count(vertex_set) > 1
        }
        dead.discard(root)
        return prices, dead

    def _run_ranked(self, buckets: Sequence[Iterable[int]]) -> Optional[JoinTree]:
        """``k > 1``: every ccp goes through BUILDTREE's ranked cross product."""
        budget = self._budget
        memo = self._memo
        builder = self._builder
        shift = self._query.n_relations
        mask = bitset.full_set(shift)
        for word in chain.from_iterable(buckets):
            if budget is not None:
                budget.check()
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
        pages: Optional[Dict[int, float]] = None,
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

        ``pages`` holds the classes priced so far (every class of a
        bounded run, priced before its pairs were listed) and gains the
        rest.  Under a bound a live class may get no plan, when each of
        its pairs joins a dead class; a pair with such an input is
        skipped, and the root's cost is checked against the bound.
        """
        query = self._query
        budget = self._budget
        stats = self.stats
        price = self._builder.price
        shift = query.n_relations
        mask = bitset.full_set(shift)
        dp, split, fingerprints = self._tables()
        bound = self._bound
        root = self._graph.all_vertices
        if page_costs is None:
            operator_costs: Optional[Dict[int, float]] = {}
        else:
            operator_costs = None
            class_pages = self._provider.estimate_pages
            if not pages:  # unbounded: price the leaves here
                pages = {vertex_set: class_pages(vertex_set) for vertex_set in dp}
            page_prices: Dict[Tuple[float, float], Tuple[float, float]] = {}
        considered = priced = improvements = 0
        try:
            for word in chain.from_iterable(buckets):
                if budget is not None:
                    budget.check()
                considered += 1
                left = word >> shift
                right = word & mask
                left_cost = dp.get(left)
                right_cost = dp.get(right)
                if left_cost is None or right_cost is None:
                    if bound is None:
                        raise OptimizationError(_ORDER_BUG)
                    continue  # every plan of an input joins a dead class
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
                    if page_costs is not None and vertex_set not in pages:
                        pages[vertex_set] = class_pages(vertex_set)
                else:
                    if cost == incumbent:  # repro: disable=no-float-cost-eq
                        # Two joins of S compare as their outer inputs
                        # do, final classes whose fingerprints stay.
                        outer = _fingerprint(vertex_set ^ inner, split, fingerprints)
                        if not outer < _fingerprint(
                            vertex_set ^ split[vertex_set], split, fingerprints
                        ):
                            continue
                    improvements += 1
                dp[vertex_set] = cost
                split[vertex_set] = inner
                if operator_costs is not None:
                    operator_costs[vertex_set] = operator_cost
        except BudgetExceeded:
            # The root's best plan so far is complete (every smaller class
            # is final by then): register it for the caller's salvage.
            if root in dp:
                self._builder.build_split_tree(
                    self._memo, root, split, dp[root], operator_costs
                )
            raise
        finally:
            stats.ccps_considered += considered
            stats.plan_improvements += improvements
            stats.operator_pricings += priced
        stats.plan_classes_built = len(dp) - query.n_relations
        self._check_bound(dp.get(root, _INFINITY))
        if root not in dp:
            return None
        return self._builder.build_split_tree(
            self._memo, root, split, dp[root], operator_costs
        )

    def _run_cout(
        self, buckets: Sequence[Iterable[int]], class_costs: Dict[int, float]
    ) -> Optional[JoinTree]:
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
        joins of ``S`` compare as their outer inputs do (see the module
        notes), so an exact cost tie compares the lower of each join's
        two input fingerprints; fingerprints are computed only then.
        ``split`` keeps either input as the inner one, and only the
        winning tree's joins are oriented, at the end.  That tree is
        rebuilt through the model's real ``join_cost`` and checked
        against ``dp[root]``.

        ``class_costs`` holds the classes priced so far (every class of a
        bounded run, priced before its pairs were listed) and gains the
        rest.  Under a bound a live class may get no plan, when each of
        its pairs joins a dead class; a pair with such an input is
        skipped, and the root's cost is checked against the bound.
        """
        query = self._query
        budget = self._budget
        stats = self.stats
        cardinality = self._provider.estimate_cardinality
        shift = query.n_relations
        mask = bitset.full_set(shift)
        dp, split, fingerprints = self._tables()
        bound = self._bound
        root = self._graph.all_vertices
        considered = improvements = 0
        try:
            for word in chain.from_iterable(buckets):
                if budget is not None:
                    budget.check()
                considered += 1
                left = word >> shift
                right = word & mask
                vertex_set = left | right
                operator_cost = class_costs.get(vertex_set)
                if operator_cost is None:
                    operator_cost = cardinality(vertex_set)
                    class_costs[vertex_set] = operator_cost
                try:
                    cost = (dp[left] + dp[right]) + operator_cost
                except KeyError:
                    if bound is None:
                        raise OptimizationError(_ORDER_BUG) from None
                    continue  # every plan of an input joins a dead class
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
                _fingerprint(root, split, fingerprints, True)
                self._builder.build_split_tree(self._memo, root, split, dp[root])
            raise
        finally:
            stats.ccps_considered += considered
            stats.plan_improvements += improvements
            stats.operator_pricings += len(class_costs)
        stats.plan_classes_built = len(dp) - query.n_relations
        self._check_bound(dp.get(root, _INFINITY))
        if root not in dp:
            return None
        _fingerprint(root, split, fingerprints, True)  # orient the joins
        return self._builder.build_split_tree(self._memo, root, split, dp[root])

    def _check_bound(self, root_cost: float) -> None:
        """Refuse a bounded run whose root costs more than its bound.

        With a bound at or above the optimum the optimal plan survives,
        so the root's cost is at most the bound.
        """
        bound = self._bound
        if bound is not None and not root_cost <= bound:
            raise OptimizationError(
                f"DPccp's bound {bound!r} is below the optimal cost; a bound "
                "must be the cost of a plan without cross products"
            )

    def _tables(self) -> Tuple[Dict[int, float], Dict[int, int], Dict[int, str]]:
        """A ``k = 1`` sweep's cost, split and fingerprint tables.

        ``dp`` holds every class's best cost so far (kept for
        :meth:`optimal_class_costs`), ``split`` its plan's inner input and
        ``fingerprints`` its plan's fingerprint, filled only when an exact
        tie needs it.  Both sweeps ask only for final classes, so an
        entry never goes stale.  A leaf's fingerprint is its index, or
        its label under ``labels``.
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

    def optimal_class_costs(self) -> Dict[int, float]:
        """Optimal cost per plan class (the APCBI_Opt oracle ``uB`` table).

        Only valid after :meth:`run`.  Singleton classes are included with
        cost 0; harmless, since leaves are returned before ``uB`` lookups.
        A bounded run covers only the classes that got a plan, and a class
        whose optimal plans all join a dead class holds a costlier plan's
        cost; the APCBI_Opt oracle runs unbounded.
        """
        if self._dp is not None:
            return dict(self._dp)
        return {
            vertex_set: tree.cost for vertex_set, tree in self._memo.entries()
        }


_INFINITY = float("inf")

#: Half an ulp of 1.0: the largest relative error of one rounded addition.
_UNIT_ROUNDOFF = 2.0**-53

_ORDER_BUG = (
    "DPccp visited a ccp before its components were planned — "
    "enumeration bug"
)

