"""Tests for intermediate-result statistics and cardinality estimation."""

import math
import random

import pytest
from hypothesis import given

from repro.baselines.dpccp import enumerate_csg
from repro.baselines.dpconv import DPconv
from repro.catalog.catalog import Catalog
from repro.catalog.relation import DEFAULT_PAGE_SIZE, RelationStats
from repro.context.context import OptimizationContext
from repro.cost.cout import CoutCostModel
from repro.cost.statistics import IntermediateStats, StatisticsProvider
from repro.errors import CatalogError
from repro.graph import bitset
from repro.graph.query_graph import QueryGraph
from repro.graph.renumber import remap_bitset
from repro.query import Query
from repro.resilience import FaultInjector
from repro.workload.generator import QueryGenerator
from tests.conftest import small_queries

FAMILIES = ("chain", "star", "cycle", "clique", "acyclic", "cyclic")


@pytest.fixture
def triangle_query():
    graph = QueryGraph(3, [(0, 1), (1, 2), (0, 2)])
    catalog = Catalog(
        [
            RelationStats(cardinality=100, name="A"),
            RelationStats(cardinality=200, name="B"),
            RelationStats(cardinality=50, name="C"),
        ],
        {(0, 1): 0.01, (1, 2): 0.1, (0, 2): 0.5},
    )
    return Query(graph=graph, catalog=catalog)


class TestSingletons:
    def test_base_relation_stats(self, triangle_query):
        provider = StatisticsProvider(triangle_query)
        stats = provider.stats(0b001)
        assert stats.cardinality == 100
        assert stats.pages >= 1


class TestIndependenceModel:
    def test_pair_cardinality(self, triangle_query):
        provider = StatisticsProvider(triangle_query)
        assert provider.cardinality(0b011) == pytest.approx(100 * 200 * 0.01)

    def test_triple_applies_all_edges(self, triangle_query):
        provider = StatisticsProvider(triangle_query)
        expected = 100 * 200 * 50 * 0.01 * 0.1 * 0.5
        assert provider.cardinality(0b111) == pytest.approx(expected)

    def test_join_stats_equals_union_stats(self, triangle_query):
        provider = StatisticsProvider(triangle_query)
        assert provider.join_stats(0b001, 0b010) is provider.stats(0b011)

    def test_width_is_sum_of_member_widths(self, triangle_query):
        provider = StatisticsProvider(triangle_query)
        assert provider.stats(0b111).tuple_width == 300

    @given(small_queries())
    def test_cardinality_is_order_independent(self, query):
        """The plan-class cardinality is a function of the set alone."""
        provider = StatisticsProvider(query)
        full = query.graph.all_vertices
        direct = provider.cardinality(full)
        fresh = StatisticsProvider(query)
        # Touch subsets first in a different order, then the full set.
        for index in range(query.n_relations):
            fresh.cardinality(bitset.singleton(index))
        assert fresh.cardinality(full) == pytest.approx(direct)


class TestCaching:
    def test_stats_are_cached(self, triangle_query):
        provider = StatisticsProvider(triangle_query)
        assert provider.stats(0b011) is provider.stats(0b011)

    def test_cache_size_grows(self, triangle_query):
        provider = StatisticsProvider(triangle_query)
        before = provider.cache_size()
        provider.stats(0b011)
        assert provider.cache_size() == before + 1


class TestIntermediateStats:
    def test_negative_cardinality_rejected(self):
        with pytest.raises(ValueError):
            IntermediateStats(vertex_set=1, cardinality=-1, tuple_width=10, pages=1)

    def test_pages_have_floor_of_one(self, triangle_query):
        provider = StatisticsProvider(triangle_query)
        # Selectivities shrink the result below one tuple; pages stay >= 1.
        assert provider.stats(0b111).pages >= 1.0


def _reference_stats(query, vertex_set, page_size=DEFAULT_PAGE_SIZE):
    """The per-set catalog walk the factor table replaced, kept as an oracle.

    Walks the set's relations and inner edges, then multiplies the factors
    in sorted order: ``(cardinality, tuple_width, pages)``.
    """
    factors = []
    width = 0
    for index in bitset.iter_bits(vertex_set):
        relation = query.catalog.relation(index)
        factors.append(relation.cardinality)
        width += relation.tuple_width
    for u, v in query.graph.edges_within(vertex_set):
        factors.append(query.catalog.selectivity(u, v))
    cardinality = 1.0
    for factor in sorted(factors):
        cardinality *= factor
    tuples_per_page = max(1, page_size // max(1, width))
    pages = max(1.0, math.ceil(cardinality / tuples_per_page))
    return cardinality, width, pages


def _seeded_queries():
    """Every family at n <= 12, under both selectivity schemes."""
    for family in FAMILIES:
        for n, scheme in ((4, "fk"), (7, "random"), (12, "fk")):
            yield QueryGenerator(seed=n).generate(family, n, scheme)


def _relabeling(query, seed):
    mapping = list(range(query.n_relations))
    random.Random(seed).shuffle(mapping)
    return mapping


def _hex_triple(cardinality, width, pages):
    return (float.hex(float(cardinality)), width, float.hex(float(pages)))


class TestFactorTable:
    """The per-query factor table prices exactly like the per-set walk."""

    @pytest.mark.parametrize(
        "query", list(_seeded_queries()), ids=lambda q: q.describe()
    )
    def test_bit_identical_to_the_sorted_product(self, query):
        relabeled_mapping = _relabeling(query, seed=query.n_relations)
        relabeled = query.relabel(relabeled_mapping)
        provider = StatisticsProvider(query)
        relabeled_provider = StatisticsProvider(relabeled)
        for vertex_set in enumerate_csg(query.graph):
            expected = _hex_triple(*_reference_stats(query, vertex_set))
            stats = provider.stats(vertex_set)
            assert _hex_triple(
                stats.cardinality, stats.tuple_width, stats.pages
            ) == expected
            # The same plan class under the renumbering: same bits.
            image = remap_bitset(vertex_set, relabeled_mapping)
            assert _hex_triple(
                *_reference_stats(relabeled, image)
            ) == expected
            moved = relabeled_provider.stats(image)
            assert _hex_triple(
                moved.cardinality, moved.tuple_width, moved.pages
            ) == expected

    @pytest.mark.parametrize("family", FAMILIES)
    def test_estimate_builds_no_stats_objects(self, family):
        query = QueryGenerator(seed=2).generate(family, 8)
        provider = StatisticsProvider(query)
        reference = StatisticsProvider(query)
        for vertex_set in enumerate_csg(query.graph):
            assert float.hex(provider.estimate_cardinality(vertex_set)) == (
                float.hex(float(reference.cardinality(vertex_set)))
            )
        assert provider.cache_size() == query.n_relations

    @pytest.mark.parametrize("family", FAMILIES)
    def test_estimated_pages_build_no_stats_objects(self, family):
        query = QueryGenerator(seed=2).generate(family, 8)
        provider = StatisticsProvider(query)
        reference = StatisticsProvider(query)
        for vertex_set in enumerate_csg(query.graph):
            assert provider.estimate_pages(vertex_set) == (
                reference.stats(vertex_set).pages
            )
        assert provider.cache_size() == query.n_relations

    @pytest.mark.parametrize("family", FAMILIES)
    def test_dpconv_prices_each_class_like_the_provider(self, family, monkeypatch):
        """DPconv's per-class ``c(S)`` is ``provider.cardinality(S)``."""
        query = QueryGenerator(seed=3).generate(family, 9)
        priced = {}
        estimate = StatisticsProvider.estimate_cardinality

        def recording(provider, vertex_set):
            priced[vertex_set] = estimate(provider, vertex_set)
            return priced[vertex_set]

        monkeypatch.setattr(StatisticsProvider, "estimate_cardinality", recording)
        context = OptimizationContext.for_query(query, cost_model=CoutCostModel)
        DPconv(context=context).run()
        monkeypatch.undo()
        csgs = [s for s in enumerate_csg(query.graph) if bitset.bit_count(s) > 1]
        assert sorted(priced) == sorted(csgs)
        reference = StatisticsProvider(query)
        for vertex_set, cardinality in priced.items():
            assert float.hex(cardinality) == float.hex(
                reference.cardinality(vertex_set)
            )


class TestCatalogReads:
    """The provider reads the catalog once, at construction."""

    def test_armed_fault_raises_at_construction(self):
        query = QueryGenerator(seed=4).generate("cyclic", 8)
        injector = FaultInjector(seed=0)
        faulty = injector.query(query, drop=3)
        with injector:
            with pytest.raises(CatalogError, match=r"\[injected\].*R3"):
                StatisticsProvider(faulty)
        assert injector.injected == {"catalog": 1}

    def test_provider_built_disarmed_never_reads_again(self):
        query = QueryGenerator(seed=4).generate("clique", 6)
        injector = FaultInjector(seed=0)
        faulty = injector.query(query, drop=3)
        provider = StatisticsProvider(faulty)
        reference = StatisticsProvider(query)
        with injector:
            for vertex_set in enumerate_csg(query.graph):
                assert provider.stats(vertex_set) == reference.stats(vertex_set)
        assert injector.injected == {}
