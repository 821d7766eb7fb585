"""The cross-query plan cache.

An LRU of optimized plans keyed by ``(query fingerprint, algorithm
configuration)``.  Entries store the winning join tree **in canonical
vertex numbering** (the fingerprint's relabeling), so a hit can serve any
query isomorphic to the one that populated the entry: :func:`replay_plan`
translates the canonical tree back into the requesting query's numbering
and *re-prices* it through the requesting context's builder.  Replaying
instead of returning the stored tree verbatim keeps two contracts:

* cardinalities and costs on the returned tree come from the requesting
  query's own statistics (quantization admits hits across queries whose
  estimates differ by less than one bucket — the stored numbers would be
  subtly wrong for them, and
  :func:`repro.plans.validation.validate_plan` would rightly reject them);
* for an exact repeat of the same query the replay reproduces the original
  floats bit for bit (same provider arithmetic, same summation order), so
  a warm cache is observationally identical to a cold run — just without
  the exponential enumeration.

The cache is a plain in-process structure with hit/miss/eviction counters;
one instance is typically shared across every
:class:`~repro.core.optimizer.Optimizer` serving a workload.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, Optional, Sequence, Tuple

from repro.graph import bitset
from repro.graph.renumber import invert_mapping
from repro.plans.join_tree import JoinTree, LeafNode

__all__ = ["CachedPlan", "PlanCache", "replay_plan", "DEFAULT_CACHE_CAPACITY"]

#: Default LRU capacity; a cached entry is one join tree (n-1 nodes), so
#: even thousands of entries are cheap next to a single enumeration.
DEFAULT_CACHE_CAPACITY = 512


class CachedPlan:
    """One cache entry: a canonical-numbered optimal tree plus provenance."""

    __slots__ = (
        "canonical_plan",
        "canonical_cost",
        "payload",
        "canonical_ranked",
        "cold_seconds",
        "expansions",
        "algorithm",
    )

    def __init__(
        self,
        canonical_plan: JoinTree,
        payload: str,
        canonical_ranked: Sequence[JoinTree] = (),
        cold_seconds: float = 0.0,
        expansions: int = 0,
        algorithm: Optional[Tuple[str, str]] = None,
    ):
        self.canonical_plan = canonical_plan
        self.canonical_cost = canonical_plan.cost
        #: The fingerprint payload that keyed this entry (diagnostics).
        self.payload = payload
        #: Canonical-numbered top-k list (rank 1 first) for ranked entries;
        #: empty for single-best entries.  Replayed plan by plan on a hit.
        self.canonical_ranked = tuple(canonical_ranked)
        #: Cold-run provenance: wall time and ccp expansions the original
        #: optimization spent.  Diagnostics and L2 admission only — never
        #: part of any plan decision (the durable tier's
        #: :class:`~repro.context.store.AdmissionPolicy` reads them to
        #: decide whether the entry is worth persisting).
        self.cold_seconds = cold_seconds
        self.expansions = expansions
        #: The ``(enumerator, pruning)`` the cold run ran on, which labels
        #: every hit; ``None`` on entries written before it was recorded.
        self.algorithm = algorithm

    def clone(self) -> "CachedPlan":
        """A deep, independent copy (identity relabel of every tree).

        :meth:`PlanCache.get` hands these out so no caller can mutate the
        entry shared by every other thread behind its back.
        """
        # A tree's vertex set holds every leaf's bit, so the union's
        # highest member bounds every relation index: no leaf walk needed.
        covered = self.canonical_plan.vertex_set
        for tree in self.canonical_ranked:
            covered |= tree.vertex_set
        identity = range(bitset.highest_index(covered) + 1)
        return CachedPlan(
            self.canonical_plan.relabel(identity),
            self.payload,
            tuple(tree.relabel(identity) for tree in self.canonical_ranked),
            cold_seconds=self.cold_seconds,
            expansions=self.expansions,
            algorithm=self.algorithm,
        )

    def __repr__(self) -> str:
        return (
            f"CachedPlan(cost={self.canonical_cost:.6g}, "
            f"set={self.canonical_plan.vertex_set:#x})"
        )


class PlanCache:
    """Thread-safe LRU plan cache with hit / miss / eviction accounting.

    One instance is shared by every optimizer (and, since the optimization
    service arrived, every worker thread) serving a workload, so every
    read-modify-write — the LRU reordering inside :meth:`get`, the
    insert-then-evict inside :meth:`put`, and the counters both maintain —
    happens under a single internal lock.  The critical sections are a few
    dict operations; contention is negligible next to even one replayed
    plan.

    Parameters
    ----------
    capacity:
        Maximum number of entries; the least recently used entry is evicted
        when a ``put`` would exceed it.  ``capacity <= 0`` disables storage
        entirely (every lookup misses) without disturbing callers.
    """

    __slots__ = ("_capacity", "_entries", "_lock", "hits", "misses", "evictions")

    def __init__(self, capacity: int = DEFAULT_CACHE_CAPACITY):
        self._capacity = capacity
        self._entries: "OrderedDict[str, CachedPlan]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    @property
    def capacity(self) -> int:
        return self._capacity

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries

    def get(self, key: str) -> Optional[CachedPlan]:
        """Look up ``key``; counts the hit/miss and refreshes recency.

        Returns a *defensive copy* of the entry, never the live object:
        the cache is shared by every worker thread, and a caller mutating
        the returned trees (or holding them across an eviction) must not
        be able to poison what the next hit replays.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
        # Clone outside the lock: the copy walks the whole tree, and the
        # snapshot taken under the lock is already consistent.
        return entry.clone()

    def put(self, key: str, entry: CachedPlan) -> None:
        """Insert/refresh ``key``, evicting the LRU entry beyond capacity."""
        if self._capacity <= 0:
            return
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = entry
            while len(self._entries) > self._capacity:
                self._entries.popitem(last=False)
                self.evictions += 1

    def clear(self) -> None:
        """Drop all entries; counters are preserved (they tell a story)."""
        with self._lock:
            self._entries.clear()

    @property
    def hit_rate(self) -> float:
        """Hits / lookups, 0.0 before the first lookup.

        Deliberately lock-free: :meth:`snapshot` reads it while already
        holding the (non-reentrant) lock, and a momentarily stale ratio is
        harmless in the reports that consume it.
        """
        lookups = self.hits + self.misses  # repro: unguarded-ok
        return self.hits / lookups if lookups else 0.0  # repro: unguarded-ok

    def snapshot(self) -> Dict[str, object]:
        """Counter summary for JSON reports and benchmark artifacts."""
        with self._lock:
            return {
                "capacity": self._capacity,
                "entries": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "hit_rate": self.hit_rate,
            }

    def __repr__(self) -> str:
        # Diagnostic repr: best-effort lock-free reads so it stays usable
        # from debuggers and log statements even when the cache is busy.
        return (
            f"PlanCache(entries={len(self._entries)}/{self._capacity}, "  # repro: unguarded-ok
            f"hits={self.hits}, misses={self.misses}, "  # repro: unguarded-ok
            f"evictions={self.evictions})"  # repro: unguarded-ok
        )


def replay_plan(canonical_plan: JoinTree, mapping: Sequence[int], context) -> JoinTree:
    """Rebuild a canonical-numbered cached tree for ``context.query``.

    ``mapping`` is the requesting query's fingerprint relabeling
    (``mapping[original] = canonical``); leaves are rebuilt from the
    requesting catalog and joins re-priced through the context's builder,
    so every number on the returned tree is native to the requesting
    query.
    """
    inverse = invert_mapping(mapping)
    builder = context.builder
    query = context.query

    def rebuild(node: JoinTree) -> JoinTree:
        if isinstance(node, LeafNode):
            return builder.leaf(query, inverse[node.relation])
        return builder.create_tree(rebuild(node.left), rebuild(node.right))

    return rebuild(canonical_plan)
