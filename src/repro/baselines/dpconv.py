"""DPconv — join-order DP as layered subset convolution (extension).

Stoian & Kipf's DPconv (arXiv 2409.08013, PAPERS.md) observes that for
``C_out``-style cost functions — where the cost of a join operator depends
only on the *union* of the two input sets — the join-ordering recurrence

    DP[S] = c(S) + min over { DP[T] + DP[S \\ T] : emptyset != T != S }

is a subset convolution of the DP table with itself in the (min, +)
semiring, evaluated one cardinality layer at a time::

    DP_s = c + min_{i + j = s} DP_i (*) DP_j        (layer s = |S|)

This reformulation admits super-polynomially faster instantiations than
DPccp's O(3^n) csg-cmp enumeration.  In pure Python we instantiate the
layered convolution directly — a size-indexed sweep over the vertex-set
lattice with a *flat per-size memo layout*: one dense ``dp`` cost array
indexed by bitset plus one ``split`` argmin array, no tree objects, no
dictionary lookups and no cost-model calls inside the innermost loop.  The
win over DPccp is the constant factor of the inner loop (three list
indexings, one add, one compare per split vs. csg-cmp pair enumeration,
filing and four dictionary lookups per pair in DPccp's ``C_out`` sweep,
which prices each class once as this sweep does), which is what dense
graphs such as clique-12 need before resorting to anything
non-pure-Python.

On a tree query graph (the chain, star and acyclic families) the lattice
is mostly waste: of a connected set's ``2^(|S|-1) - 1`` splits only its
``|S| - 1`` inner edges cut it into two connected halves (11,264 of
175,099 probes on star-12).  There the sweep visits each set's inner
edges instead, from one rooting of the tree (:func:`tree_edges`), and
keys its tables by connected set.  It makes the lattice's additions and
keeps the lattice's winner, ties included, so its tables, plans and
costs are the lattice's bit for bit.  The same rooting lists a tree's
connected sets as products of its subtrees' sets (:func:`tree_csgs`),
an order of magnitude faster than EnumerateCsg's neighbourhood walk
(star-12's 2,059 sets: 0.18 ms against 2.9 ms).

:func:`sweep_layout` makes the choice between the two sweeps, in one
pass: it roots the graph (or finds no tree), lists the connected sets,
lays them out by size and counts the chosen sweep's exact work.  The
``C_out`` route reads the work and hands the layout to the run it picks,
so a routed request roots the tree and bit-counts each set once.

Plan-space equivalence: the sweep visits exactly DPccp's plan space.  A
candidate split contributes only when both halves carry finite DP values,
i.e. both induce connected subgraphs; and any 2-partition of a connected
``S`` into connected halves is crossed by at least one join edge, so every
finite candidate is a csg-cmp pair (no cross products) and every csg-cmp
pair is a finite candidate.  Costs come out bit-identical to DPccp's:
``JoinNode`` accumulates ``(left.cost + right.cost) + operator_cost`` and
the sweep accumulates ``(dp[T] + dp[S ^ T]) + c(S)`` — the same additions
in the same order, and IEEE-754 rounding is monotone, so the minima agree
exactly (guarded by a final reconstruction check).

Eligibility is the :attr:`repro.cost.model.CostModel.cout_shaped` contract
(union-shaped operator cost) plus single-best retention (``topk == 1`` —
ranked retention needs per-class candidate lists the flat layout does not
keep).  :class:`DPconv` *refuses* to run outside that envelope; the
selector (:func:`repro.core.routing.select`) is the layer that falls back
to DPccp honestly instead.
"""

from __future__ import annotations

from itertools import chain
from typing import List, Optional, Tuple

from repro.baselines.dpccp import enumerate_csg
from repro.context.context import OptimizationContext
from repro.errors import OptimizationError
from repro.graph import bitset
from repro.graph.query_graph import QueryGraph
from repro.plans.join_tree import JoinTree
from repro.plans.memo import MemoTable
from repro.stats.counters import OptimizationStats

__all__ = ["DPconv", "eligible", "sweep_layout", "tree_csgs", "tree_edges"]

_INFINITY = float("inf")

#: Above this the flat arrays (two lists of 2^n slots) stop being a
#: sensible trade — 2^24 slots is already ~128 MiB of list storage.
_MAX_RELATIONS = 24


def eligible(context: OptimizationContext) -> bool:
    """True when DPconv can serve ``context`` with DPccp-identical costs.

    The selector (:func:`repro.core.routing.select`) consults this before
    choosing the fast path and falls back to DPccp honestly when it
    returns False; :func:`_refusal` states the envelope.
    """
    return _refusal(context) is None


def _refusal(context: OptimizationContext) -> Optional[str]:
    """Why DPconv cannot serve ``context``, or ``None`` when it can.

    The three-part envelope: a union-shaped (``C_out``) bound cost model,
    single-best retention (``topk == 1``), and a relation count the dense
    2^n layout can hold.
    """
    if not getattr(context.cost_model, "cout_shaped", False):
        return (
            "DPconv requires a C_out-shaped cost model (operator cost a "
            f"function of the union set); {context.cost_model.name!r} "
            "does not declare cout_shaped — use DPccp instead"
        )
    if context.topk != 1:
        return (
            "DPconv's flat per-size memo retains a single best plan per "
            f"class; ranked retention (topk={context.topk}) needs DPccp"
        )
    if context.query.n_relations > _MAX_RELATIONS:
        return (
            f"DPconv's dense 2^n layout is capped at {_MAX_RELATIONS} "
            f"relations; got {context.query.n_relations}"
        )
    return None


def _splits(size: int) -> int:
    """Splits the lattice sweep probes for one connected set of ``size``."""
    return (1 << (size - 1)) - 1  # repro: disable=bitset-discipline


def tree_edges(graph: QueryGraph) -> Optional[List[Tuple[int, int]]]:
    """``graph``'s edges, rooted, when it is a tree; else ``None``.

    A graph is a tree when it has ``n - 1`` edges and is connected; the
    rooting BFS (from vertex 0) proves connectivity, so a disconnected
    graph with ``n - 1`` edges is no tree.  Each edge comes as its two
    end bits and the subtree mask of its child end.  The one predicate
    behind :func:`sweep_layout`'s choice of sweep.
    """
    n = graph.n_vertices
    if len(graph.edges) != n - 1:
        return None
    singleton = bitset.singleton
    parent = [0] * n
    order = [0]
    reached = singleton(0)
    for index in order:  # grows while it is walked: a BFS queue
        children = graph.adjacency(index) & ~reached
        reached |= children
        for child in bitset.iter_bits(children):
            parent[child] = index
            order.append(child)
    if len(order) != n:
        return None
    subtree = [singleton(index) for index in range(n)]
    for index in reversed(order[1:]):  # children before parents
        subtree[parent[index]] |= subtree[index]
    return [
        (singleton(index) | singleton(parent[index]), subtree[index])
        for index in order[1:]
    ]


def tree_csgs(graph: QueryGraph) -> Optional[List[int]]:
    """``graph``'s connected sets when it is a tree; else ``None``."""
    edges = tree_edges(graph)
    if edges is None:
        return None
    return _subtree_products(graph, edges)


def _subtree_products(graph: QueryGraph, edges: List[Tuple[int, int]]) -> List[int]:
    """The connected sets of the tree ``graph``, rooted as ``edges``.

    The connected sets whose top vertex (the one nearest the root) is
    ``v`` are ``{v}`` joined with, for each child ``c`` of ``v``, nothing
    or a set whose top is ``c``.  The lists are built children first, one
    product per edge, so each set costs one ``|`` and no neighbourhood is
    computed.  The sets are :func:`~repro.baselines.dpccp.enumerate_csg`'s,
    in another order.
    """
    singleton = bitset.singleton
    topped = {
        singleton(index): [singleton(index)] for index in range(graph.n_vertices)
    }
    for ends, below in reversed(edges):  # children before parents
        child = ends & below
        sets = topped[ends ^ child]
        # The product is built in full before it is appended.
        sets += [upper | lower for upper in sets for lower in topped[child]]
    return list(chain.from_iterable(topped.values()))


#: What :func:`sweep_layout` returns: ``(edges, csgs, layers, work)``.
Layout = Tuple[Optional[List[Tuple[int, int]]], List[int], List[List[int]], int]


def sweep_layout(graph: QueryGraph) -> Layout:
    """How DPconv sweeps ``graph``: ``(edges, csgs, layers, work)``.

    ``edges`` is :func:`tree_edges`'s rooting, which the tree sweep
    walks, or ``None``: the lattice sweep runs.  ``csgs`` lists the
    connected sets, a tree's as subtree products and any other graph's
    in EnumerateCsg order (DPccp's).  ``layers[s]`` holds those of size
    ``s``, in any order: a set's result depends only on smaller sets.
    ``work`` is the ``ccps_considered`` the run reports: each set's
    ``|S| - 1`` inner edges (its csg-cmp pairs) on a tree, else all
    ``2^(|S|-1) - 1`` of its splits.
    """
    n = graph.n_vertices
    edges = tree_edges(graph)
    if edges is None:
        csgs = enumerate_csg(graph)
    else:
        csgs = _subtree_products(graph, edges)
    bit_count = bitset.bit_count
    layers: List[List[int]] = [[] for _ in range(n + 1)]
    for subset in csgs:
        layers[bit_count(subset)].append(subset)
    work = sum(
        len(layers[size]) * (_splits(size) if edges is None else size - 1)
        for size in range(1, n + 1)
    )
    return edges, csgs, layers, work


class DPconv:
    """Bottom-up optimal bushy join ordering via layered subset convolution.

    Same plan space and bit-identical optimal costs as :class:`DPccp`, for
    union-shaped (``C_out``) cost models at ``k = 1`` only, built on a
    query's :class:`~repro.context.OptimizationContext` (its budget
    included) like every other algorithm.  ``layout`` hands in the query
    graph's :func:`sweep_layout` when the caller already made it (the
    ``C_out`` route's work prediction does); the run then does not root
    or list the graph again.
    """

    name = "dpconv"

    def __init__(
        self,
        context: OptimizationContext,
        *,
        layout: Optional[Layout] = None,
    ):
        self._context = context
        self._query = context.query
        self._graph = context.query.graph
        self._provider = context.provider
        self._builder = context.builder
        self._memo = MemoTable(k=context.topk)
        self._budget = context.budget
        self._layout = layout
        # The selector checks eligible() before building a DPconv; a
        # refusal here means a caller bypassed it (a named baseline).
        reason = _refusal(context)
        if reason is not None:
            raise OptimizationError(reason)

    # ------------------------------------------------------------------

    @property
    def memo(self) -> MemoTable:
        """Classes of the winning plan only — the dp array is the memo."""
        return self._memo

    @property
    def stats(self) -> OptimizationStats:
        return self._builder.stats

    def ranked_plans(self) -> List[JoinTree]:
        """Retained root plans (``[best]``; DPconv runs at ``k=1`` only)."""
        return self._memo.best_k(self._graph.all_vertices)

    # ------------------------------------------------------------------

    def run(self) -> JoinTree:
        """Build and return the optimal join tree for the whole query."""
        query = self._query
        graph = self._graph
        for index in range(query.n_relations):
            self._memo.register(self._builder.leaf(query, index))
        if query.n_relations == 1:
            return self._memo.best(graph.all_vertices)

        if self._layout is None:
            self._layout = sweep_layout(graph)
        dp, split = self._sweep()
        root = graph.all_vertices
        if dp[root] == _INFINITY:
            raise OptimizationError(
                "DPconv produced no plan for the full query (disconnected "
                "query graph?)"
            )
        # Only the ~2n-1 classes on the winning tree become ``JoinTree``
        # objects (and memotable entries), priced by the context's
        # provider and bound model like any plan DPccp builds.
        return self._builder.build_split_tree(self._memo, root, split, dp[root])

    def _sweep(self):
        """Fill the dp/split tables: the tree sweep on a tree, else the lattice."""
        if self._layout[0] is None:
            return self._lattice_sweep()
        return self._tree_sweep()

    def _lattice_sweep(self):
        """The layered (min, +) sweep: fill the flat dp/split arrays.

        Layer ``s`` reads only layers ``1 .. s-1`` — the size-indexed
        evaluation order of the subset convolution — and every connected
        set of size ``s`` takes the pointwise minimum over its splits.
        ``c(S)`` comes from the provider's factor table
        (:meth:`~repro.cost.statistics.StatisticsProvider.estimate_cardinality`),
        so no swept class gets an ``IntermediateStats``; only the ones
        the reconstruction builds do.  Serves any graph; on a tree it is
        the oracle the tree sweep must match bit for bit.
        """
        graph = self._graph
        n = graph.n_vertices
        stats = self.stats
        budget = self._budget
        cardinality = self._provider.estimate_cardinality
        layers = self._layout[2]

        size = graph.all_vertices + 1
        dp = [_INFINITY] * size
        split = [0] * size
        for index in range(n):
            dp[bitset.singleton(index)] = 0.0

        infinity = _INFINITY
        built = 0
        for layer_size in range(2, n + 1):
            splits_per_class = _splits(layer_size)
            for vertex_set in layers[layer_size]:
                if budget is not None:
                    budget.check()
                best = infinity
                arg = 0
                rest = vertex_set & (vertex_set - 1)  # drop the anchor bit
                sub = rest
                # The innermost loop of the fast path: every proper split
                # with the anchor on the complement side, three list
                # indexings + one add + one compare each.  Disconnected
                # halves carry infinite dp and can never win.
                while sub:
                    cand = dp[vertex_set ^ sub] + dp[sub]
                    if cand < best:
                        best = cand
                        arg = sub
                    sub = (sub - 1) & rest
                dp[vertex_set] = best + cardinality(vertex_set)
                split[vertex_set] = arg
                built += 1
                stats.ccps_enumerated += splits_per_class
                stats.ccps_considered += splits_per_class
        stats.plan_classes_built = built
        return dp, split

    def _tree_sweep(self):
        """The sweep over a tree's inner edges: fill dp/split dicts.

        On a tree the csg-cmp pairs of a connected set ``S`` are its inner
        edges: each of :func:`tree_edges` with both ends in ``S`` cuts it
        into ``S & subtree`` (below the edge) and the rest, both
        connected.  The half without the anchor ``lowest_bit(S)`` is the
        split's ``sub``, as in the lattice, and each candidate sums
        ``(dp[S ^ sub] + dp[sub]) + c(S)``, the lattice's additions.  The
        lattice keeps the first strict minimum in descending ``sub``
        order; this sweep visits the edges in another order, so an exact
        tie goes to the larger ``sub`` once a candidate has won (a NaN
        never wins, and when none wins ``sub`` stays 0, as there).  Both
        tables are keyed by connected set, so they hold the sets, not
        ``2^n`` slots, and the budget is charged once per class, smaller
        sets first, as in the lattice.  The edges and the sets come
        from the run's :func:`sweep_layout`.
        """
        n = self._graph.n_vertices
        stats = self.stats
        budget = self._budget
        cardinality = self._provider.estimate_cardinality
        lowest_bit = bitset.lowest_bit
        edges, _, layers, _ = self._layout

        dp = {bitset.singleton(index): 0.0 for index in range(n)}
        split = {}

        infinity = _INFINITY
        built = 0
        for layer_size in range(2, n + 1):
            inner_edges = layer_size - 1
            for vertex_set in layers[layer_size]:
                if budget is not None:
                    budget.check()
                best = infinity
                arg = 0
                anchor = lowest_bit(vertex_set)
                for ends, below in edges:
                    if vertex_set & ends == ends:
                        sub = vertex_set & below
                        if sub & anchor:
                            sub ^= vertex_set
                        cand = dp[vertex_set ^ sub] + dp[sub]
                        if cand < best or cand == best and sub > arg > 0:
                            best = cand
                            arg = sub
                dp[vertex_set] = best + cardinality(vertex_set)
                split[vertex_set] = arg
                built += 1
                stats.ccps_enumerated += inner_edges
                stats.ccps_considered += inner_edges
        stats.plan_classes_built = built
        return dp, split
