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
from operator import itemgetter
from typing import Dict, Tuple

from repro.catalog.relation import DEFAULT_PAGE_SIZE
from repro.graph import bitset
from repro.query import Query

__all__ = ["IntermediateStats", "StatisticsProvider"]


class IntermediateStats:
    """Size facts about one (intermediate) relation; immutable.

    One instance exists per memoized plan class, and large enumerations
    memoize hundreds of thousands — ``__slots__`` drops the per-instance
    ``__dict__`` (64 bytes/instance vs. 352 with a dict on CPython 3.11;
    see docs/architecture.md), and a field read is a slot read.
    Construction fills the slots through their C-level descriptors, which
    costs about half of a frozen dataclass's guarded
    ``object.__setattr__`` per field; assignment and deletion raise
    ``AttributeError`` afterwards.
    """

    __slots__ = ("vertex_set", "cardinality", "tuple_width", "pages")

    vertex_set: int
    cardinality: float
    tuple_width: int
    pages: float

    def __init__(
        self, vertex_set: int, cardinality: float, tuple_width: int, pages: float
    ) -> None:
        if cardinality < 0:
            raise ValueError("cardinality cannot be negative")
        _set_vertex_set(self, vertex_set)
        _set_cardinality(self, cardinality)
        _set_tuple_width(self, tuple_width)
        _set_pages(self, pages)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"IntermediateStats is immutable: cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"IntermediateStats is immutable: cannot delete {name!r}")

    def _values(self) -> Tuple[int, float, int, float]:
        return (self.vertex_set, self.cardinality, self.tuple_width, self.pages)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        return (
            f"IntermediateStats(vertex_set={self.vertex_set!r}, "
            f"cardinality={self.cardinality!r}, "
            f"tuple_width={self.tuple_width!r}, pages={self.pages!r})"
        )


_set_vertex_set = IntermediateStats.vertex_set.__set__
_set_cardinality = IntermediateStats.cardinality.__set__
_set_tuple_width = IntermediateStats.tuple_width.__set__
_set_pages = IntermediateStats.pages.__set__


class StatisticsProvider:
    """Memoized cardinality / width / page estimation for one query.

    The catalog is read once, at construction, into one *factor table*:
    every base relation contributes ``(cardinality, its bit)`` and every
    join edge ``(selectivity, both endpoint bits)``, sorted by value.  A
    set's cardinality is then the product, in table order, of the factors
    whose mask lies inside the set (:meth:`estimate_cardinality`) — no
    per-set catalog walk.

    Nothing is memoized at construction: a base relation's
    :class:`IntermediateStats` is built on its first :meth:`stats`, from
    the relation read here (its own ``cardinality``, ``tuple_width`` and
    ``pages()``), and every other class's on its first :meth:`stats` from
    the factor table.  So :meth:`cache_size` counts the classes asked
    for, base relations included, and a provider whose caller only
    estimates (plan validation, DPccp's sweeps) builds no statistics
    object at all.

    Parameters
    ----------
    query:
        The query whose catalog backs the estimates.

    Page counts are in pages of
    :data:`~repro.catalog.relation.DEFAULT_PAGE_SIZE` bytes.
    """

    __slots__ = ("_factors", "_widths", "_relations", "_cache")

    def __init__(self, query: Query):
        catalog = query.catalog
        # Relations before edges: a catalog that has lost one relation's
        # statistics raises on that relation's own read, here, before any
        # selectivity mentioning it is asked for (docs/resilience.md).
        relations = [catalog.relation(index) for index in range(query.n_relations)]
        bits = [bitset.singleton(index) for index in range(query.n_relations)]
        factors = [
            (relation.cardinality, bit) for relation, bit in zip(relations, bits)
        ]
        factors.extend(
            (catalog.selectivity(u, v), bits[u] | bits[v])
            for u, v in sorted(query.graph.edges)
        )
        # Value order makes every product bit-identical under vertex
        # renumbering (advancement 6 relabels the query; a label-dependent
        # multiplication order can drift an ulp, which the page ceiling in
        # _compute amplifies into a whole page of cost).
        factors.sort(key=itemgetter(0))
        self._factors = tuple(factors)
        self._widths = tuple(relation.tuple_width for relation in relations)
        #: Each base relation by its singleton set: the source of its
        #: statistics, built on first use.
        self._relations = dict(zip(bits, relations))
        self._cache: Dict[int, IntermediateStats] = {}

    def stats(self, vertex_set: int) -> IntermediateStats:
        """Statistics of the intermediate result for ``vertex_set``."""
        cached = self._cache.get(vertex_set)
        if cached is None:
            relation = self._relations.get(vertex_set)
            if relation is None:
                cached = self._compute(vertex_set)
            else:
                cached = IntermediateStats(
                    vertex_set,
                    relation.cardinality,
                    relation.tuple_width,
                    relation.pages(),
                )
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
        relation = self._relations.get(vertex_set)
        if relation is not None:
            return relation.pages()
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
