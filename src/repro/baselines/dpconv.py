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
indexings, one add, one compare per split vs. per-ccp pair enumeration,
two ``join_cost`` calls with their statistics lookups and a dict-table
update in DPccp's flat sweep), which is what an order-of-magnitude
wall-clock target on clique-12+ needs before resorting to anything
non-pure-Python.

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
:class:`~repro.core.optimizer.Optimizer` facade is the layer that falls
back to DPccp honestly instead.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, List, Optional, Sequence

from repro.baselines.dpccp import enumerate_csg
from repro.context.context import OptimizationContext
from repro.cost.model import CostModel
from repro.errors import OptimizationError
from repro.graph import bitset
from repro.plans.join_tree import JoinTree
from repro.plans.memo import MemoTable
from repro.query import Query
from repro.stats.counters import OptimizationStats

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a package cycle
    from repro.resilience.budget import Budget

__all__ = ["DPconv", "convolution_work", "eligible"]

_INFINITY = float("inf")

#: Above this the flat arrays (two lists of 2^n slots) stop being a
#: sensible trade — 2^24 slots is already ~128 MiB of list storage.
_MAX_RELATIONS = 24


def eligible(context: OptimizationContext) -> bool:
    """True when DPconv can serve ``context`` with DPccp-identical costs.

    The three-part envelope: a union-shaped (``C_out``) bound cost model,
    single-best retention (``topk == 1``), and a relation count the dense
    2^n layout can hold.  The :class:`~repro.core.optimizer.Optimizer`
    facade consults this before selecting the fast path and falls back to
    DPccp honestly when it returns False.
    """
    return (
        getattr(context.cost_model, "cout_shaped", False)
        and context.topk == 1
        and context.query.n_relations <= _MAX_RELATIONS
    )


def _splits(size: int) -> int:
    """Proper splits the sweep probes for one connected set of ``size``."""
    return (1 << (size - 1)) - 1  # repro: disable=bitset-discipline


def convolution_work(csgs: Iterable[int]) -> int:
    """DPconv's exact work over the connected sets ``csgs``.

    Sum of ``2^(|S|-1) - 1`` over every set ``S``: the split probes the
    sweep makes, and so exactly the ``ccps_considered`` a run reports.
    """
    bit_count = bitset.bit_count
    return sum(_splits(bit_count(subset)) for subset in csgs)


class DPconv:
    """Bottom-up optimal bushy join ordering via layered subset convolution.

    Same plan space and bit-identical optimal costs as :class:`DPccp`, for
    union-shaped (``C_out``) cost models at ``k = 1`` only.  Constructed
    like every other baseline: either from a ``query`` (plus optional cost
    model / stats / budget) or from a ready ``context=``.  ``csgs`` hands
    in the query graph's connected sets when the caller already enumerated
    them (the optimizer's work prediction does); the sweep then does not
    list them again.
    """

    name = "dpconv"

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
                raise TypeError("DPconv needs a query (or a ready context=)")
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
        self._require_eligible(context)

    @staticmethod
    def _require_eligible(context: OptimizationContext) -> None:
        """Refuse configurations the convolution cannot serve correctly.

        The facade checks :func:`eligible` *before* constructing a DPconv
        and falls back to DPccp; reaching these raises means a caller
        bypassed that check.
        """
        if not getattr(context.cost_model, "cout_shaped", False):
            raise OptimizationError(
                "DPconv requires a C_out-shaped cost model (operator cost a "
                f"function of the union set); {context.cost_model.name!r} "
                "does not declare cout_shaped — use DPccp instead"
            )
        if context.topk != 1:
            raise OptimizationError(
                "DPconv's flat per-size memo retains a single best plan per "
                f"class; ranked retention (topk={context.topk}) needs DPccp"
            )
        if context.query.n_relations > _MAX_RELATIONS:
            raise OptimizationError(
                f"DPconv's dense 2^n layout is capped at {_MAX_RELATIONS} "
                f"relations; got {context.query.n_relations}"
            )

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
        plan = self._builder.build_split_tree(self._memo, root, split)
        if plan.cost != dp[root]:  # repro: disable=no-float-cost-eq
            # Bit-exactness is the contract: a model that declared
            # cout_shaped but priced joins differently would silently
            # return a mislabeled cost without this check.
            raise OptimizationError(
                f"DPconv reconstruction cost {plan.cost!r} diverges from the "
                f"convolution value {dp[root]!r}; the cost model's "
                "cout_shaped declaration is wrong"
            )
        return plan

    def _sweep(self):
        """The layered (min, +) sweep: fill the flat dp/split arrays.

        Layer ``s`` reads only layers ``1 .. s-1`` — the size-indexed
        evaluation order of the subset convolution — and every connected
        set of size ``s`` takes the pointwise minimum over its splits.
        ``c(S)`` comes from the provider's factor table
        (:meth:`~repro.cost.statistics.StatisticsProvider.estimate_cardinality`),
        so no swept class gets an ``IntermediateStats``; only the ones
        the reconstruction builds do.
        """
        graph = self._graph
        n = graph.n_vertices
        stats = self.stats
        budget = self._budget
        cardinality = self._provider.estimate_cardinality
        bit_count = bitset.bit_count

        layers: List[List[int]] = [[] for _ in range(n + 1)]
        csgs = enumerate_csg(graph) if self._csgs is None else self._csgs
        for subset in csgs:
            layers[bit_count(subset)].append(subset)

        size = graph.all_vertices + 1
        dp = [_INFINITY] * size
        split = [0] * size
        for index in range(n):
            dp[bitset.singleton(index)] = 0.0

        infinity = _INFINITY
        classes_done = n
        for layer_size in range(2, n + 1):
            splits_per_class = _splits(layer_size)
            for vertex_set in layers[layer_size]:
                if budget is not None:
                    budget.check(classes_done)
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
                classes_done += 1
                stats.ccps_enumerated += splits_per_class
                stats.ccps_considered += splits_per_class
        stats.plan_classes_built = classes_done - n
        return dp, split
