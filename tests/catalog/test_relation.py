"""Tests for per-relation statistics."""

import pytest

from repro.catalog import relation
from repro.catalog.relation import DEFAULT_PAGE_SIZE, RelationStats
from repro.errors import CatalogError


class TestValidation:
    def test_valid_relation(self):
        stats = RelationStats(cardinality=1000, domain_sizes=(10, 50))
        assert stats.cardinality == 1000
        assert stats.domain_sizes == (10, 50)

    def test_zero_cardinality_rejected(self):
        with pytest.raises(CatalogError):
            RelationStats(cardinality=0)

    def test_zero_tuple_width_rejected(self):
        with pytest.raises(CatalogError):
            RelationStats(cardinality=10, tuple_width=0)

    def test_zero_domain_rejected(self):
        with pytest.raises(CatalogError):
            RelationStats(cardinality=10, domain_sizes=(0,))


class TestPages:
    def test_small_relation_occupies_one_page(self):
        assert RelationStats(cardinality=1, tuple_width=100).pages() == 1.0

    def test_pages_scale_with_cardinality(self):
        tuples_per_page = DEFAULT_PAGE_SIZE // 100
        stats = RelationStats(cardinality=10 * tuples_per_page, tuple_width=100)
        assert stats.pages() == 10.0

    def test_pages_respect_custom_page_size(self, monkeypatch):
        monkeypatch.setattr(relation, "DEFAULT_PAGE_SIZE", 100)
        stats = RelationStats(cardinality=100, tuple_width=100)
        assert stats.pages() == 100.0

    def test_wide_tuples_one_per_page(self):
        stats = RelationStats(cardinality=7, tuple_width=DEFAULT_PAGE_SIZE * 2)
        assert stats.pages() == 7.0

    def test_name_defaults_empty(self):
        assert RelationStats(cardinality=5).name == ""
