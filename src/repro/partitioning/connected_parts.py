"""GETCONNECTEDPARTS (Appendix C, Fig. 18).

Given a connected ``S``, a connected ``C`` that is a subset of ``S`` and a
probe set ``T`` (in MinCutConservative always the one-element set holding
the vertex ``v`` just added to ``C``), the routine returns the connected
components ``O_1 .. O_k`` of the complement ``S \\ C``.

It is a twofold strategy: part one is an *improved connection test* that
exploits the invariant that the previous complement ``S \\ (C \\ T)`` was
connected — then it suffices to check that the neighbors of ``T`` inside
the complement can all reach each other.  When that early test discovers a
single reachable group covering all those neighbors, the whole complement
is connected and is returned as one part without ever traversing it fully.
Only when the test fails does part two run a plain component sweep for the
remaining parts.
"""

from __future__ import annotations

from typing import List

from repro.graph.query_graph import QueryGraph

__all__ = ["get_connected_parts", "connected_parts_simple"]


def connected_parts_simple(graph: QueryGraph, s: int, c: int) -> List[int]:
    """Reference implementation: components of ``S \\ C`` by full sweep.

    Used by tests as the oracle for :func:`get_connected_parts` and by the
    reconstructed MinCutLazy strategy, which deliberately re-derives
    connectivity from scratch (see DESIGN.md).
    """
    return graph.connected_components(s & ~c)


def get_connected_parts(graph: QueryGraph, s: int, c: int, t: int) -> List[int]:
    """Fig. 18: components of ``S \\ C``, with the early connectivity test.

    Parameters
    ----------
    graph:
        The query graph.
    s:
        Connected vertex set currently being partitioned.
    c:
        Connected subset of ``s`` (already including the new vertex).
    t:
        Subset of ``c`` whose neighbors seed the test — the vertex just
        moved into ``c``.  Correctness of the early exit relies on
        ``S \\ (C \\ T)`` having been connected.
    """
    complement = s & ~c
    # Line 1: N <- N(T) \ C, restricted to S.
    n = graph.neighborhood(t, s) & ~c
    # Lines 2-3: a single touched neighbor means the old complement minus T
    # stays in one piece.
    if n & (n - 1) == 0:
        return [complement] if complement else []

    # Lines 4-11: expand the indirect neighborhood of one n in N within the
    # complement, generation by generation, until either every element of N
    # was reached (U empty -> connected) or the frontier dies out.
    level_prev = 0
    # L' <- some n in N.  Hot per-ccp helper: the lowest-bit extraction
    # stays inlined here and below.
    level = n & -n  # repro: disable=bitset-discipline
    unreached = n & ~level
    while level_prev != level and unreached:
        delta = level & ~level_prev  # D: the newest generation only
        level_prev = level
        level = level | (graph.neighborhood(delta, complement))
        unreached &= ~level

    # Lines 12-13: all probe neighbors reached -> complement is connected.
    if not unreached:
        return [complement]

    # Line 14 onward: the reached region closed; finish expanding it into a
    # full component, then sweep the remaining probe neighbors.
    parts: List[int] = []
    first = graph.connected_component(level, complement)
    parts.append(first)

    # Lines 15-24: find the other components seeded by untouched neighbors.
    unreached = n & ~first
    while unreached:
        seed = unreached & -unreached  # repro: disable=bitset-discipline
        component = graph.connected_component(seed, complement)
        parts.append(component)
        unreached &= ~component
    return parts

