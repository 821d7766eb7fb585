"""Tests for the advanced generate-and-test partitioner ([5])."""

import pytest
from hypothesis import given, strategies as st

from repro.graph import bitset, generators
from repro.partitioning import PARTITIONINGS
from repro.partitioning.mincut_agat import MinCutAGaT
from tests.conftest import connected_graphs


def canonical(pairs):
    out = sorted((min(a, b), max(a, b)) for a, b in pairs)
    assert len(out) == len(set(out)), "duplicate ccp emitted"
    return out


class TestEquivalence:
    @given(graph=connected_graphs(min_vertices=2, max_vertices=8))
    def test_matches_oracle_on_full_set(self, graph):
        expected = canonical(
            PARTITIONINGS["naive"].partitions(graph, graph.all_vertices)
        )
        got = canonical(
            MinCutAGaT().partitions(graph, graph.all_vertices)
        )
        assert got == expected

    @given(
        graph=connected_graphs(min_vertices=3, max_vertices=7),
        raw=st.integers(1, 2**7 - 1),
    )
    def test_matches_oracle_on_subsets(self, graph, raw):
        subset = raw & graph.all_vertices
        if bitset.bit_count(subset) < 2 or not graph.is_connected(subset):
            return
        expected = canonical(PARTITIONINGS["naive"].partitions(graph, subset))
        assert canonical(MinCutAGaT().partitions(graph, subset)) == expected


class TestGenerateAndTestCharacter:
    def test_visits_exponentially_many_candidates_on_stars(self):
        """The §III-C motivation for the conservative jump: AGaT's
        recursion visits every connected C containing t — on a star,
        ~2^(n-2) candidates for only n-1 emissions."""
        graph = generators.star_graph(10)
        agat = MinCutAGaT()
        visits = [0]
        original_grow = agat._grow

        def counting_grow(g, s, c, x):
            visits[0] += 1
            return original_grow(g, s, c, x)

        agat._grow = counting_grow
        emitted = sum(1 for _ in agat.partitions(graph, graph.all_vertices))
        assert emitted == 9  # the n-1 valid ccps
        # t is a leaf: {t}, then every {t, hub} u (subset of other leaves).
        assert visits[0] >= 2 ** (10 - 2)

    def test_different_order_from_conservative(self):
        # On stars the conservative jump reorders emissions (deepest split
        # first) while AGaT discovers them in plain DFS order.  (On cycles
        # the two coincide: complements of arcs are always connected.)
        graph = generators.star_graph(5)
        agat_order = list(MinCutAGaT().partitions(graph, graph.all_vertices))
        conservative_order = list(
            PARTITIONINGS["mincut_conservative"].partitions(
                graph, graph.all_vertices
            )
        )
        assert agat_order != conservative_order

    def test_works_as_optimizer_enumerator(self, small_query):
        from repro.core.optimizer import Optimizer, run_dpccp

        baseline = run_dpccp(small_query)
        result = Optimizer(
            enumerator="mincut_agat", pruning="apcbi", auto_route=False
        ).optimize(small_query)
        assert result.cost == pytest.approx(baseline.cost)
        assert result.label == "TDMcA_APCBI"
