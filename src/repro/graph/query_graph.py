"""Query graphs.

A :class:`QueryGraph` is an undirected graph ``G = (V, E)`` whose vertices
stand for the base relations referenced by a query and whose edges stand for
join predicates.  Vertex sets are integer bitsets (see
:mod:`repro.graph.bitset`), so all neighborhood and connectivity operations
are plain bit algebra.

The graph is immutable after construction.  Statistics (cardinalities,
selectivities) deliberately live elsewhere, in :mod:`repro.catalog`: the
enumeration algorithms of the paper depend only on graph *shape*.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

from repro.errors import DisconnectedGraphError, GraphError
from repro.graph import bitset

__all__ = ["QueryGraph"]


class QueryGraph:
    """An immutable, undirected query graph over vertices ``0 .. n-1``.

    Parameters
    ----------
    n_vertices:
        Number of relations in the query.  Must be at least 1.
    edges:
        Iterable of ``(u, v)`` pairs with ``u != v``.  Duplicate edges and
        orientation are normalized away.
    """

    __slots__ = ("_n", "_edges", "_adjacency", "_all", "_nbr_cache")

    def __init__(self, n_vertices: int, edges: Iterable[Tuple[int, int]]):
        if n_vertices < 1:
            raise GraphError(f"a query graph needs >= 1 vertex, got {n_vertices}")
        self._n = n_vertices
        self._all = bitset.full_set(n_vertices)
        adjacency = [0] * n_vertices
        normalized = set()
        for u, v in edges:
            if u == v:
                raise GraphError(f"self-loop on vertex {u} is not a join edge")
            if not (0 <= u < n_vertices and 0 <= v < n_vertices):
                raise GraphError(
                    f"edge ({u}, {v}) out of range for {n_vertices} vertices"
                )
            normalized.add((min(u, v), max(u, v)))
            adjacency[u] |= bitset.singleton(v)
            adjacency[v] |= bitset.singleton(u)
        self._edges = frozenset(normalized)
        self._adjacency = tuple(adjacency)
        # subset -> N(subset) memo; see neighborhood().
        self._nbr_cache: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------

    @property
    def n_vertices(self) -> int:
        """Number of vertices (relations)."""
        return self._n

    @property
    def all_vertices(self) -> int:
        """Bitset containing every vertex."""
        return self._all

    @property
    def edges(self) -> frozenset:
        """Normalized edge set as ``frozenset[(u, v)]`` with ``u < v``."""
        return self._edges

    def adjacency(self, vertex: int) -> int:
        """Bitset of the neighbors of a single vertex."""
        return self._adjacency[vertex]

    def has_edge(self, u: int, v: int) -> bool:
        """Return ``True`` when the join edge ``(u, v)`` exists."""
        return bitset.contains(self._adjacency[u], v)

    # ------------------------------------------------------------------
    # Neighborhoods and connectivity (the vocabulary of the paper, Def. 2.3)
    # ------------------------------------------------------------------

    def neighborhood(self, subset: int, within: int = -1) -> int:
        """Return ``N(subset)``: vertices outside ``subset`` adjacent to it.

        When ``within`` is given, the result is additionally intersected with
        that set, yielding the neighborhood inside an induced subgraph
        ``G|within``.
        """
        # The hottest call in the library (every partitioning strategy
        # funnels through it), and enumeration probes the same subsets over
        # and over — emit/reject/recurse visits each connected subgraph many
        # times.  Memoize the unrestricted N(subset); ``within`` is a cheap
        # mask applied after the lookup, so restricted probes share the
        # cache.  The graph is immutable, so entries never invalidate, and
        # the cache holds only subsets actually probed (bounded by the
        # enumeration's own work, not by 2^n).
        result = self._nbr_cache.get(subset)
        if result is None:
            result = 0
            remaining = subset
            # The lowest-bit trick stays inlined rather than paying a
            # bitset.iter_bits() generator per neighborhood probe.
            while remaining:
                low = remaining & -remaining  # repro: disable=bitset-discipline
                result |= self._adjacency[low.bit_length() - 1]  # repro: disable=bitset-discipline
                remaining ^= low
            result &= ~subset
            self._nbr_cache[subset] = result
        if within >= 0:
            result &= within
        return result

    @property
    def neighborhood_memo(self) -> Dict[int, int]:
        """The live memo behind :meth:`neighborhood`: ``subset -> N(subset)``.

        Holds every subset probed so far.  Enumeration's inner loops read
        it directly and call :meth:`neighborhood` on a miss, which fills
        it; nothing else may write to it.
        """
        return self._nbr_cache

    def connected_component(self, start: int, within: int) -> int:
        """Return the connected component of ``G|within`` containing ``start``.

        ``start`` is a subset of ``within`` that is connected in
        ``G|within``: a singleton, or a region already grown from one.
        """
        component = start
        frontier = start
        while frontier:
            frontier = self.neighborhood(frontier, within) & ~component
            component |= frontier
        return component

    def is_connected(self, subset: int) -> bool:
        """Return ``True`` when the induced subgraph ``G|subset`` is connected.

        The empty set is considered *not* connected; singletons are connected.
        """
        if not subset:
            return False
        start = bitset.lowest_bit(subset)
        return self.connected_component(start, subset) == subset

    def connected_components(self, subset: int) -> List[int]:
        """Split ``subset`` into the connected components of ``G|subset``."""
        components = []
        remaining = subset
        while remaining:
            start = bitset.lowest_bit(remaining)
            component = self.connected_component(start, remaining)
            components.append(component)
            remaining &= ~component
        return components

    def are_connected(self, left: int, right: int) -> bool:
        """Return ``True`` when some edge joins ``left`` and ``right``."""
        return bool(self.neighborhood(left) & right)

    def require_connected(self, subset: int) -> None:
        """Raise :class:`DisconnectedGraphError` unless ``G|subset`` connects."""
        if not self.is_connected(subset):
            raise DisconnectedGraphError(
                f"vertex set {bitset.format_set(subset)} does not induce a "
                "connected subgraph"
            )

    # ------------------------------------------------------------------
    # Edge iteration helpers used by cost estimation
    # ------------------------------------------------------------------

    def edges_between(self, left: int, right: int) -> Iterator[Tuple[int, int]]:
        """Yield normalized edges with one endpoint in each input set."""
        for u, v in self._edges:
            u_bit = bitset.singleton(u)
            v_bit = bitset.singleton(v)
            if (u_bit & left and v_bit & right) or (u_bit & right and v_bit & left):
                yield (u, v)

    def edges_within(self, subset: int) -> Iterator[Tuple[int, int]]:
        """Yield normalized edges whose both endpoints lie in ``subset``."""
        for u, v in self._edges:
            if bitset.contains(subset, u) and bitset.contains(subset, v):
                yield (u, v)

    # ------------------------------------------------------------------
    # Relabeling (advancement 6 re-numbers vertices)
    # ------------------------------------------------------------------

    def relabel(self, mapping: Sequence[int]) -> "QueryGraph":
        """Return a new graph with vertex ``i`` renamed to ``mapping[i]``.

        ``mapping`` must be a permutation of ``range(n_vertices)``.
        """
        if sorted(mapping) != list(range(self._n)):
            raise GraphError("relabel mapping must be a permutation of vertices")
        return QueryGraph(
            self._n, ((mapping[u], mapping[v]) for u, v in self._edges)
        )

    # ------------------------------------------------------------------
    # Dunder conveniences
    # ------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QueryGraph):
            return NotImplemented
        return self._n == other._n and self._edges == other._edges

    def __hash__(self) -> int:
        return hash((self._n, self._edges))

    def __repr__(self) -> str:
        return (
            f"QueryGraph(n_vertices={self._n}, "
            f"edges={sorted(self._edges)})"
        )
