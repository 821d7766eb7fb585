"""Query-graph shape generators.

The paper's workload (§V-B) uses six graph families: chain, star, cycle and
clique queries plus random acyclic and random cyclic graphs.  The random
families are built exactly as described: edges are added by drawing two
relation indices from uniform random numbers; acyclic graphs are uniform
random spanning trees, cyclic graphs are a random spanning tree plus extra
random edges.

All functions return a plain :class:`~repro.graph.query_graph.QueryGraph`;
attaching statistics is the workload generator's job.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.errors import GraphError
from repro.graph.query_graph import QueryGraph

__all__ = [
    "DEFAULT_SEED",
    "chain_graph",
    "star_graph",
    "cycle_graph",
    "clique_graph",
    "random_acyclic_graph",
    "random_cyclic_graph",
    "GRAPH_FAMILIES",
]


#: Seed of the fallback RNG used when callers do not thread their own.
#: A *fixed* default keeps every workload deterministic by construction; the
#: suite generator always passes an explicit per-query RNG, so this only
#: affects ad-hoc callers.
DEFAULT_SEED = 0x5EED


def _require_size(n: int, minimum: int, family: str) -> None:
    if n < minimum:
        raise GraphError(f"a {family} query needs >= {minimum} relations, got {n}")


def chain_graph(n: int) -> QueryGraph:
    """Chain query: ``R0 - R1 - ... - R(n-1)``."""
    _require_size(n, 1, "chain")
    return QueryGraph(n, ((i, i + 1) for i in range(n - 1)))


def star_graph(n: int) -> QueryGraph:
    """Star query: vertex 0 is the hub (fact table), all others are leaves."""
    _require_size(n, 1, "star")
    return QueryGraph(n, ((0, i) for i in range(1, n)))


def cycle_graph(n: int) -> QueryGraph:
    """Cycle query: a chain closed back from ``R(n-1)`` to ``R0``."""
    _require_size(n, 3, "cycle")
    edges = [(i, i + 1) for i in range(n - 1)]
    edges.append((n - 1, 0))
    return QueryGraph(n, edges)


def clique_graph(n: int) -> QueryGraph:
    """Clique query: every pair of relations is joined."""
    _require_size(n, 1, "clique")
    return QueryGraph(
        n, ((i, j) for i in range(n) for j in range(i + 1, n))
    )


def random_acyclic_graph(n: int, rng: Optional[random.Random] = None) -> QueryGraph:
    """Random acyclic (tree-shaped) query of ``n`` relations.

    Each new vertex ``i`` attaches to a uniformly random earlier vertex,
    which produces a random recursive tree — the natural reading of
    "edges are randomly added by selecting two relation's indices using
    uniformly distributed random numbers" under the acyclicity constraint.

    Without an explicit ``rng`` the fixed :data:`DEFAULT_SEED` is used, so
    repeated calls return the *same* graph — reproducibility over variety.
    """
    _require_size(n, 1, "random acyclic")
    rng = rng if rng is not None else random.Random(DEFAULT_SEED)
    edges = [(rng.randrange(i), i) for i in range(1, n)]
    return QueryGraph(n, edges)


def random_cyclic_graph(
    n: int,
    extra_edges: Optional[int] = None,
    rng: Optional[random.Random] = None,
) -> QueryGraph:
    """Random connected cyclic query of ``n`` relations.

    Builds a random spanning tree first (guaranteeing connectivity, as the
    paper presumes connected query graphs) and then adds ``extra_edges``
    uniformly random non-tree edges.  The default adds ``ceil(n / 2)`` extra
    edges, which lands between the cycle and clique extremes the paper
    discusses.

    Without an explicit ``rng`` the fixed :data:`DEFAULT_SEED` is used, so
    repeated calls return the *same* graph — reproducibility over variety.
    """
    _require_size(n, 3, "random cyclic")
    rng = rng if rng is not None else random.Random(DEFAULT_SEED)
    edges = {(rng.randrange(i), i) for i in range(1, n)}
    if extra_edges is None:
        extra_edges = (n + 1) // 2
    possible = n * (n - 1) // 2
    target = min(len(edges) + extra_edges, possible)
    attempts = 0
    # Rejection sampling: the edge budget is far below the clique bound for
    # the sizes we use, so this terminates quickly; the attempt cap is a
    # safety net for adversarial parameters.
    while len(edges) < target and attempts < 100 * possible:
        u = rng.randrange(n)
        v = rng.randrange(n)
        attempts += 1
        if u == v:
            continue
        edges.add((min(u, v), max(u, v)))
    return QueryGraph(n, edges)


#: Family name -> generator callable taking ``(n, rng)``.
GRAPH_FAMILIES = {
    "chain": lambda n, rng=None: chain_graph(n),
    "star": lambda n, rng=None: star_graph(n),
    "cycle": lambda n, rng=None: cycle_graph(n),
    "clique": lambda n, rng=None: clique_graph(n),
    "acyclic": lambda n, rng=None: random_acyclic_graph(n, rng),
    "cyclic": lambda n, rng=None: random_cyclic_graph(n, rng=rng),
}
