"""QuickPick — randomized join-tree sampling (extension).

After Waas & Pellenkoft: draw join trees by repeatedly picking a *random*
join edge between two current components and merging them; keep the
cheapest of :data:`N_TRIALS` sampled trees.  A classic randomized alternative
to greedy heuristics (cf. Steinbrunn et al. [13]), useful here to study
how sensitive APCBI's advancement 2 is to upper-bound quality: QuickPick
bounds are noisier than GOO's but still sound.
"""

from __future__ import annotations

import random
from typing import List, Optional

from repro.heuristics.base import (
    HeuristicResult,
    JoinHeuristic,
    collect_subtree_costs,
)
from repro.plans.builder import PlanBuilder
from repro.plans.join_tree import JoinTree
from repro.query import Query

__all__ = ["N_TRIALS", "QuickPick"]

#: Random trees sampled per build; the cheapest wins.
N_TRIALS = 16


class QuickPick(JoinHeuristic):
    """Best of :data:`N_TRIALS` random edge-driven join trees.

    Parameters
    ----------
    seed:
        Seed for the internal RNG, so runs are reproducible.
    """

    name = "quickpick"

    def __init__(self, seed: Optional[int] = 20120401):
        self._seed = seed

    def build(self, query: Query, builder: PlanBuilder) -> HeuristicResult:
        rng = random.Random(self._seed)
        best: Optional[JoinTree] = None
        for _ in range(N_TRIALS):
            candidate = self._sample_tree(query, builder, rng)
            if best is None or candidate.cost < best.cost:
                best = candidate
        assert best is not None
        return HeuristicResult(best, collect_subtree_costs(best))

    def _sample_tree(
        self, query: Query, builder: PlanBuilder, rng: random.Random
    ) -> JoinTree:
        graph = query.graph
        forest: List[JoinTree] = [
            builder.leaf(query, index) for index in range(query.n_relations)
        ]
        while len(forest) > 1:
            # Pick a random pair of edge-connected components.
            pairs = [
                (i, j)
                for i in range(len(forest))
                for j in range(i + 1, len(forest))
                if graph.are_connected(forest[i].vertex_set, forest[j].vertex_set)
            ]
            i, j = rng.choice(pairs)
            left, right = forest[i], forest[j]
            first = builder.create_tree(left, right)
            second = builder.create_tree(right, left)
            joined = first if first.cost <= second.cost else second
            forest.pop(j)
            forest.pop(i)
            forest.append(joined)
        return forest[0]
