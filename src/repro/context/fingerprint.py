"""Canonical query fingerprints — the cross-query plan-cache key.

Two queries that are the *same optimization problem* must map to the same
key even when their relations are numbered differently: a chain
``R0-R1-R2`` and the same chain entering as ``R2-R0-R1`` should share one
cache entry.  The fingerprint therefore canonically relabels the query
(building on the mapping conventions of :mod:`repro.graph.renumber`:
``mapping[old] = new``, invertible with
:func:`~repro.graph.renumber.invert_mapping`) and hashes the relabeled
shape together with **quantized** statistics:

* cardinalities and selectivities are bucketed on a log2 grid with
  :data:`QUANT_STEPS` steps per octave, so estimates that differ by less
  than one bucket (≈ ``2^(1/QUANT_STEPS)``, about 19% at the default) hit
  the same entry — repeated traffic over near-identical parameter bindings
  is exactly the workload a plan cache exists for;
* a perturbation of at least one full quantization step is guaranteed to
  change the bucket (``round(x + 1) == round(x) + 1``), so materially
  different statistics can never collide.

Canonicalization runs Weisfeiler–Lehman color refinement seeded with the
quantized vertex statistics, then places vertices greedily by (refined
color, adjacency-to-placed signature), breaking ties by vertex id.  The
statistics are quantized once per call, and each vertex's signature grows
as its neighbors are placed, so placement never rescans the graph.

The key hashes the full canonical payload, so equal keys imply isomorphic
queries with *bucket*-identical statistics, not identical ones, and a hit
is not always an optimal plan.  Vertices that tie on every bucket are
placed by vertex id, so an exact isomorph numbered differently can be
mapped onto the cached entry with two near-identical relations swapped:
the replayed plan is valid but can cost more than a cold run (a
suboptimal hit).  ``perfbench/README.md`` ("Known defect: suboptimal
cache hits") has a repro on ``acyclic`` n=12, seed 25.  On pathological
regular graphs, where the refinement cannot separate vertices that are
not interchangeable, the failure mode is a cache *miss*: two isomorphic
queries get different keys.
"""

from __future__ import annotations

import hashlib
import math
from typing import List, Sequence, Tuple

from repro.query import Query

__all__ = [
    "QUANT_STEPS",
    "QueryFingerprint",
    "canonical_mapping",
    "fingerprint",
    "quantize",
]

#: Quantization steps per log2 octave.  4 steps ≈ 19% bucket width: coarse
#: enough that sampling noise in repeated estimates stays inside one
#: bucket, fine enough that a materially different selectivity misses.
QUANT_STEPS = 4


def quantize(value: float, steps: int = QUANT_STEPS) -> int:
    """Bucket a positive quantity on a log2 grid with ``steps`` per octave."""
    if value <= 0.0:
        # Degenerate estimates share one sentinel bucket (not a bitset).
        return -(1 << 30)  # repro: disable=bitset-discipline
    return round(math.log2(value) * steps)


class QueryFingerprint:
    """A canonical cache key plus the relabeling that produced it."""

    __slots__ = ("key", "mapping", "payload")

    def __init__(self, key: str, mapping: Tuple[int, ...], payload: str):
        self.key = key
        #: ``mapping[original_index] = canonical_index``.
        self.mapping = mapping
        self.payload = payload

    def __repr__(self) -> str:
        return f"QueryFingerprint({self.key[:12]}…, n={len(self.mapping)})"


def _quantized(
    query: Query, steps: int
) -> Tuple[List[Tuple[int, int]], List[Tuple[int, int, int]]]:
    """The query's statistics, quantized once per fingerprint.

    Returns the initial WL colors, ``(quantized cardinality, tuple width)``
    per vertex, and the edges as ``(u, v, quantized selectivity)``.
    """
    catalog = query.catalog
    seeds = [
        (
            quantize(catalog.cardinality(index), steps),
            catalog.relation(index).tuple_width,
        )
        for index in range(query.n_relations)
    ]
    edges = [
        (u, v, quantize(catalog.selectivity(u, v), steps))
        for u, v in query.graph.edges
    ]
    return seeds, edges


def _ranked(raw: Sequence) -> List[int]:
    # Rank colors by their *sorted structural value*, never by first
    # occurrence: first-seen ids would depend on the original vertex
    # numbering, which is exactly what the fingerprint must ignore.
    order = {value: rank for rank, value in enumerate(sorted(set(raw)))}
    return [order[value] for value in raw]


def _refine(
    seeds: List[Tuple[int, int]], neighbors: List[List[Tuple[int, int]]]
) -> List[int]:
    """Weisfeiler–Lehman refinement; returns a stable color per vertex."""
    n = len(seeds)
    colors = _ranked(seeds)
    for _ in range(n):
        refined = _ranked(
            [
                (
                    colors[vertex],
                    tuple(sorted((colors[u], bucket) for u, bucket in adjacent)),
                )
                for vertex, adjacent in enumerate(neighbors)
            ]
        )
        if refined == colors:
            break
        colors = refined
    return colors


def _canonical(
    seeds: List[Tuple[int, int]], edges: List[Tuple[int, int, int]]
) -> List[int]:
    """``mapping[original] = canonical`` from quantized statistics."""
    n = len(seeds)
    neighbors: List[List[Tuple[int, int]]] = [[] for _ in range(n)]
    for u, v, bucket in edges:
        neighbors[u].append((v, bucket))
        neighbors[v].append((u, bucket))
    colors = _refine(seeds, neighbors)

    # Greedy placement.  attached[v] lists (position, bucket) for v's
    # placed neighbors; positions are handed out in increasing order, so
    # appending keeps it sorted.  Vertices already attached to the placed
    # prefix come first (keeps the prefix connected); among those, lowest
    # refined color, then lexicographically smallest attachment, then
    # lowest vertex id — the numbering must not depend on hash-table
    # layout.
    attached: List[List[Tuple[int, int]]] = [[] for _ in range(n)]
    placed = [False] * n
    remaining = list(range(n))
    mapping = [0] * n
    for position in range(n):
        chosen = min(
            remaining,
            key=lambda v: (0 if attached[v] else 1, colors[v], attached[v], v),
        )
        remaining.remove(chosen)
        placed[chosen] = True
        mapping[chosen] = position
        for neighbor, bucket in neighbors[chosen]:
            if not placed[neighbor]:
                attached[neighbor].append((position, bucket))
    return mapping


def canonical_mapping(query: Query, steps: int = QUANT_STEPS) -> List[int]:
    """A deterministic, numbering-independent relabeling of the query.

    Returns ``mapping[original_index] = canonical_index`` in the
    :mod:`repro.graph.renumber` convention, so
    ``query.relabel(canonical_mapping(query))`` is the canonical form and
    :func:`~repro.graph.renumber.invert_mapping` translates back.
    """
    return _canonical(*_quantized(query, steps))


def fingerprint(query: Query, steps: int = QUANT_STEPS) -> QueryFingerprint:
    """Fingerprint ``query``: canonical key + the relabeling used.

    The key is the SHA-256 of the canonical payload — vertex statistics and
    edge selectivities after canonical relabeling and quantization — so two
    queries share a key iff their canonical forms coincide bucket for
    bucket.
    """
    seeds, edges = _quantized(query, steps)
    mapping = _canonical(seeds, edges)
    vertices = [None] * query.n_relations  # type: List
    for original, canonical in enumerate(mapping):
        vertices[canonical] = seeds[original]
    relabeled = sorted(
        (min(mapping[u], mapping[v]), max(mapping[u], mapping[v]), bucket)
        for u, v, bucket in edges
    )
    payload = (
        f"n={query.n_relations};steps={steps};"
        f"V={vertices!r};E={relabeled!r}"
    )
    key = hashlib.sha256(payload.encode("utf-8")).hexdigest()
    return QueryFingerprint(key, tuple(mapping), payload)
