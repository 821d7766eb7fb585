"""Tests for the DPccp baseline and its csg/cmp enumeration."""

import pytest
from hypothesis import given, strategies as st

from repro.baselines import dpccp as dpccp_module
from repro.baselines.dpccp import (
    DPccp,
    enumerate_csg,
    enumerate_csg_cmp_pairs,
    enumerate_csg_upto,
)
from repro.cost.haas import HaasCostModel
from repro.graph import bitset, generators
from repro.partitioning import PARTITIONINGS
from tests.conftest import connected_graphs, small_queries


def _connected_subsets(graph):
    return [
        s
        for s in range(1, 1 << graph.n_vertices)
        if graph.is_connected(s)
    ]


class TestEnumerateCsg:
    @given(connected_graphs(max_vertices=8))
    def test_emits_every_connected_subset_once(self, graph):
        emitted = list(enumerate_csg(graph))
        assert len(emitted) == len(set(emitted))
        assert sorted(emitted) == sorted(_connected_subsets(graph))

    def test_chain_count(self):
        graph = generators.chain_graph(6)
        # Connected subsets of a chain: n*(n+1)/2 contiguous runs.
        assert len(list(enumerate_csg(graph))) == 21

    def test_clique_count(self):
        graph = generators.clique_graph(5)
        # Every non-empty subset of a clique is connected.
        assert len(list(enumerate_csg(graph))) == 2**5 - 1


class TestEnumerateCsgUpto:
    @given(connected_graphs(max_vertices=8), st.integers(0, 300))
    def test_the_list_at_or_under_the_cap_and_none_over_it(self, graph, cap):
        listed = enumerate_csg(graph)
        capped = enumerate_csg_upto(graph, cap)
        if len(listed) <= cap:
            assert capped == listed
        else:
            assert capped is None

    def test_listing_stops_one_past_the_cap(self, monkeypatch):
        graph = generators.clique_graph(10)  # 1,023 connected sets
        emitted = []
        original = dpccp_module._emit_csgs

        def counting(graph, emit):
            def wrapped(vertex_set):
                emitted.append(vertex_set)
                emit(vertex_set)

            original(graph, wrapped)

        monkeypatch.setattr(dpccp_module, "_emit_csgs", counting)
        assert enumerate_csg_upto(graph, 40) is None
        assert len(emitted) == 41


class TestEnumerateCsgCmpPairs:
    @given(connected_graphs(max_vertices=7))
    def test_matches_partitioning_oracle(self, graph):
        """DPccp's pair enumeration covers exactly P_ccp_sym of the graph."""
        naive = PARTITIONINGS["naive"]
        expected = set()
        for subset in _connected_subsets(graph):
            if subset & (subset - 1):
                for left, right in naive.partitions(graph, subset):
                    expected.add((min(left, right), max(left, right)))
        got = [
            (min(a, b), max(a, b)) for a, b in enumerate_csg_cmp_pairs(graph)
        ]
        assert len(got) == len(set(got))
        assert set(got) == expected

    @pytest.mark.parametrize(
        "family,n,expected",
        [
            ("chain", 10, 165),
            ("star", 10, 2304),
            ("cycle", 10, 405),
            ("clique", 8, 3025),
        ],
    )
    def test_ono_lohman_counts(self, family, n, expected):
        graph = generators.GRAPH_FAMILIES[family](n, None)
        assert sum(1 for _ in enumerate_csg_cmp_pairs(graph)) == expected


class TestDPccpOptimality:
    @given(small_queries(max_n=7))
    def test_plan_covers_query_and_costs_match(self, query):
        algorithm = DPccp(query, HaasCostModel())
        plan = algorithm.run()
        assert plan.vertex_set == query.graph.all_vertices
        assert plan.cost == algorithm.memo.best_cost(query.graph.all_vertices)

    def test_single_relation(self, generator):
        query = generator.generate("chain", 1)
        plan = DPccp(query, HaasCostModel()).run()
        assert plan.cost == 0.0

    def test_plan_class_count_equals_connected_subsets(self, small_query):
        algorithm = DPccp(small_query, HaasCostModel())
        algorithm.run()
        graph = small_query.graph
        connected = sum(
            1 for s in _connected_subsets(graph) if s & (s - 1)
        )
        assert algorithm.stats.plan_classes_built == connected


class TestOracleExport:
    def test_optimal_class_costs_cover_all_classes(self, small_query):
        algorithm = DPccp(small_query, HaasCostModel())
        algorithm.run()
        costs = algorithm.optimal_class_costs()
        assert costs[small_query.graph.all_vertices] == algorithm.memo.best_cost(
            small_query.graph.all_vertices
        )
        for index in range(small_query.n_relations):
            assert costs[bitset.singleton(index)] == 0.0
