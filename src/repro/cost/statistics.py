"""Derived statistics for intermediate results (plan classes).

The cost model consumes :class:`IntermediateStats` — cardinality, tuple
width and page count of the (possibly intermediate) relation produced by a
plan class.  :class:`StatisticsProvider` computes and memoizes them per
vertex set; this is the shared infrastructure mentioned in §V-A ("estimate
cardinalities ... common functions").

Cardinality estimation follows the classic System-R independence model: the
cardinality of a set ``S`` is the product of the base cardinalities times
the product of the selectivities of all join edges inside ``S``.  With this
model the cardinality of a plan class is a function of the *set* only, never
of the join order — which is exactly what the paper's bounding machinery
(e.g. computing the operator cost ``c_join`` before requesting subtrees)
relies on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter
from typing import Dict, Tuple

from repro.catalog.relation import DEFAULT_PAGE_SIZE
from repro.graph import bitset
from repro.query import Query

__all__ = ["IntermediateStats", "StatisticsProvider"]


@dataclass(frozen=True)
class IntermediateStats:
    """Size facts about one (intermediate) relation.

    One instance exists per memoized plan class, and large enumerations
    memoize hundreds of thousands — ``__slots__`` drops the per-instance
    ``__dict__`` (64 bytes/instance vs. 352 with a dict on CPython 3.11;
    see docs/architecture.md).  Legal on a frozen dataclass here because
    no field has a default.
    """

    __slots__ = ("vertex_set", "cardinality", "tuple_width", "pages")

    vertex_set: int
    cardinality: float
    tuple_width: int
    pages: float

    def __post_init__(self) -> None:
        if self.cardinality < 0:
            raise ValueError("cardinality cannot be negative")


class StatisticsProvider:
    """Memoized cardinality / width / page estimation for one query.

    The catalog is read once, at construction, into one *factor table*:
    every base relation contributes ``(cardinality, its bit)`` and every
    join edge ``(selectivity, both endpoint bits)``, sorted by value.  A
    set's cardinality is then the product, in table order, of the factors
    whose mask lies inside the set (:meth:`estimate_cardinality`) — no
    per-set catalog walk.

    Parameters
    ----------
    query:
        The query whose catalog backs the estimates.

    Page counts are in pages of
    :data:`~repro.catalog.relation.DEFAULT_PAGE_SIZE` bytes.
    """

    __slots__ = ("_factors", "_widths", "_cache")

    def __init__(self, query: Query):
        catalog = query.catalog
        # Relations before edges: a catalog that has lost one relation's
        # statistics raises on that relation's own read, here, before any
        # selectivity mentioning it is asked for (docs/resilience.md).
        relations = [catalog.relation(index) for index in range(query.n_relations)]
        factors = [
            (relation.cardinality, bitset.singleton(index))
            for index, relation in enumerate(relations)
        ]
        factors.extend(
            (catalog.selectivity(u, v), bitset.singleton(u) | bitset.singleton(v))
            for u, v in sorted(query.graph.edges)
        )
        # Value order makes every product bit-identical under vertex
        # renumbering (advancement 6 relabels the query; a label-dependent
        # multiplication order can drift an ulp, which the page ceiling in
        # _compute amplifies into a whole page of cost).
        factors.sort(key=itemgetter(0))
        self._factors = tuple(factors)
        self._widths = tuple(relation.tuple_width for relation in relations)
        self._cache: Dict[int, IntermediateStats] = {}
        for index, relation in enumerate(relations):
            self._cache[bitset.singleton(index)] = IntermediateStats(
                vertex_set=bitset.singleton(index),
                cardinality=relation.cardinality,
                tuple_width=relation.tuple_width,
                pages=relation.pages(),
            )

    def stats(self, vertex_set: int) -> IntermediateStats:
        """Statistics of the intermediate result for ``vertex_set``."""
        cached = self._cache.get(vertex_set)
        if cached is None:
            cached = self._compute(vertex_set)
            self._cache[vertex_set] = cached
        return cached

    def join_stats(self, left: int, right: int) -> IntermediateStats:
        """Statistics of ``left JOIN right`` (their disjoint union)."""
        return self.stats(left | right)

    def cardinality(self, vertex_set: int) -> float:
        return self.stats(vertex_set).cardinality

    def estimate_cardinality(self, vertex_set: int) -> float:
        """Cardinality of ``vertex_set``, priced without memoizing stats.

        Multiplies, in table order, every factor whose mask lies inside
        the set: the sorted product of the set's base cardinalities and
        inner-edge selectivities.  Callers that need only ``c(S)`` (the
        DPconv sweep) use this and build no :class:`IntermediateStats`.
        """
        cardinality = 1.0
        for value, mask in self._factors:
            if mask & vertex_set == mask:
                cardinality *= value
        return cardinality

    def estimate_pages(self, vertex_set: int) -> float:
        """Pages of ``vertex_set``, priced without memoizing stats.

        The same value as ``stats(vertex_set).pages``, computed without
        building an :class:`IntermediateStats`.  Callers that need only a
        class's pages (DPccp's sweep under a ``page_priced`` model, the
        Haas router's live-share sample) use this and grow no memo.
        """
        cached = self._cache.get(vertex_set)
        if cached is not None:
            return cached.pages
        return self._measure(vertex_set)[2]

    def _compute(self, vertex_set: int) -> IntermediateStats:
        return IntermediateStats(vertex_set, *self._measure(vertex_set))

    def _measure(self, vertex_set: int) -> Tuple[float, int, float]:
        """``(cardinality, tuple width, pages)`` of ``vertex_set``, in
        :class:`IntermediateStats` field order (after ``vertex_set``)."""
        cardinality = self.estimate_cardinality(vertex_set)
        widths = self._widths
        width = 0
        remaining = vertex_set
        # Runs once per new plan class: the lowest-bit trick stays inlined
        # rather than paying a bitset.iter_bits() generator per class
        # (QueryGraph.neighborhood does the same).  Widths are integers,
        # so the sum is exact in any order.
        while remaining:
            low = remaining & -remaining  # repro: disable=bitset-discipline
            width += widths[low.bit_length() - 1]  # repro: disable=bitset-discipline
            remaining ^= low
        tuples_per_page = max(1, DEFAULT_PAGE_SIZE // max(1, width))
        pages = max(1.0, math.ceil(cardinality / tuples_per_page))
        return cardinality, width, pages

    def cache_size(self) -> int:
        """Number of memoized plan classes (diagnostics)."""
        return len(self._cache)
