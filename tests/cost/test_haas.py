"""Tests for the Haas et al. I/O cost model."""

import pytest
from hypothesis import given, strategies as st

from repro.cost.haas import HaasCostModel
from repro.cost.statistics import IntermediateStats


def _stats(pages: float, vertex_set: int = 1, width: int = 100) -> IntermediateStats:
    return IntermediateStats(
        vertex_set=vertex_set,
        cardinality=pages * 80,
        tuple_width=width,
        pages=pages,
    )


@pytest.fixture
def model():
    return HaasCostModel(buffer_pages=64)


page_counts = st.floats(min_value=1.0, max_value=1e6, allow_nan=False)


class TestConstruction:
    def test_tiny_buffer_rejected(self):
        with pytest.raises(ValueError):
            HaasCostModel(buffer_pages=2)

    def test_buffer_exposed(self, model):
        assert model.buffer_pages == 64

    def test_repr(self, model):
        assert "64" in repr(model)


class TestBlockedNestedLoop:
    def test_single_chunk(self, model):
        # Outer fits in one chunk: outer + inner.
        assert model.blocked_nested_loop(10, 100) == 110

    def test_multiple_chunks(self, model):
        # 124 outer pages over chunks of 62 -> 2 inner scans.
        assert model.blocked_nested_loop(124, 100) == 124 + 2 * 100

    @given(page_counts, page_counts)
    def test_smaller_outer_never_much_worse(self, left, right):
        """The chunk ceiling can flip near-equal inputs by one inner scan,
        so the commute rule holds only up to that rounding for BNL."""
        model = HaasCostModel(buffer_pages=64)
        small, big = sorted((left, right))
        assert model.blocked_nested_loop(small, big) <= model.blocked_nested_loop(
            big, small
        ) * (1 + 1e-3) + big


class TestSortMerge:
    def test_in_memory_inputs_cost_one_read_each(self, model):
        assert model.sort_merge(10, 20) == 30

    def test_external_sort_costs_more(self, model):
        assert model.sort_merge(1000, 20) > 1000 + 20

    @given(page_counts, page_counts)
    def test_symmetric(self, left, right):
        model = HaasCostModel(buffer_pages=64)
        assert model.sort_merge(left, right) == model.sort_merge(right, left)


class TestHybridHash:
    def test_in_memory_build(self, model):
        assert model.hybrid_hash(10, 1000) == 1010

    def test_spilling_build_costs_more(self, model):
        assert model.hybrid_hash(1000, 1000) > 2000

    def test_grace_limit(self, model):
        # As the build grows far beyond memory, cost approaches 3 (L + R).
        cost = model.hybrid_hash(100000, 100000)
        assert cost == pytest.approx(3 * 200000, rel=0.01)

    @given(page_counts, page_counts)
    def test_building_on_smaller_side_never_worse(self, left, right):
        model = HaasCostModel(buffer_pages=64)
        small, big = sorted((left, right))
        assert model.hybrid_hash(small, big) <= model.hybrid_hash(big, small) + 1e-6


class TestJoinCost:
    def test_picks_cheapest_algorithm(self, model):
        outer, inner = _stats(10), _stats(1000, vertex_set=2)
        cost = model.join_cost(outer, inner)
        assert cost == min(
            model.blocked_nested_loop(10, 1000),
            model.sort_merge(10, 1000),
            model.hybrid_hash(10, 1000),
        )

    @given(page_counts, page_counts)
    def test_commute_rule(self, left_pages, right_pages):
        """Appendix A: smaller outer (equal widths) never costs more.

        Exact up to the BNL chunk ceiling, which can flip near-equal
        inputs by a sliver; BUILDTREE prices both orders anyway, so only
        the approximate property matters.
        """
        model = HaasCostModel(buffer_pages=64)
        small, big = sorted((left_pages, right_pages))
        a = model.join_cost(_stats(small, 1), _stats(big, 2))
        b = model.join_cost(_stats(big, 1), _stats(small, 2))
        assert a <= b * (1 + 1e-3) + big

    @given(page_counts, page_counts)
    def test_min_join_cost_is_min_over_orders(self, left_pages, right_pages):
        model = HaasCostModel(buffer_pages=64)
        left, right = _stats(left_pages, 1), _stats(right_pages, 2)
        assert model.min_join_cost(left, right) == min(
            model.join_cost(left, right), model.join_cost(right, left)
        )


class TestLowerBound:
    @given(page_counts, page_counts)
    def test_admissible(self, left_pages, right_pages):
        """The LBE foundation: lower_bound never exceeds any real cost."""
        model = HaasCostModel(buffer_pages=64)
        left, right = _stats(left_pages, 1), _stats(right_pages, 2)
        bound = model.lower_bound(left, right)
        assert bound <= model.join_cost(left, right) + 1e-9
        assert bound <= model.join_cost(right, left) + 1e-9

    def test_equals_sum_of_input_pages(self, model):
        assert model.lower_bound(_stats(7, 1), _stats(9, 2)) == 16


def _boundary_pages(buffer: int):
    """Page counts on both sides of the buffer and of sort-run boundaries.

    An input fits in memory up to ``buffer`` pages (in-memory sort, hash
    build without spill); above, its run count ``ceil(p / B)`` steps at
    every multiple of ``B`` and its merge-pass count at ``B * (B - 1)^k``
    pages.
    """
    points = {1, buffer - 2, buffer - 1, buffer, buffer + 1, 2 * buffer}
    for passes in range(1, 4):
        edge = buffer * (buffer - 1) ** passes
        points.update((edge - 1, edge, edge + 1))
    return sorted(float(p) for p in points if p >= 1)


class TestJoinCosts:
    """The one-call pricing, on statistics and on page counts, equals two
    ``join_cost`` calls bit for bit, and reads both inputs in each order
    (the ``page_priced`` contract)."""

    @staticmethod
    def _assert_exact(model, left_pages, right_pages):
        left, right = _stats(left_pages, 1), _stats(right_pages, 2)
        separate = [
            model.join_cost(left, right).hex(),
            model.join_cost(right, left).hex(),
        ]
        assert [cost.hex() for cost in model.join_costs(left, right)] == separate
        paged = model.page_join_costs(left_pages, right_pages)
        assert [cost.hex() for cost in paged] == separate
        assert min(paged) >= left_pages + right_pages

    def test_haas_declares_page_pricing(self):
        assert HaasCostModel.page_priced

    @pytest.mark.parametrize("buffer", [3, 4, 8, 64, 128])
    def test_exact_at_boundaries(self, buffer):
        model = HaasCostModel(buffer_pages=buffer)
        pages = _boundary_pages(buffer)
        for left_pages in pages:
            for right_pages in pages:
                self._assert_exact(model, left_pages, right_pages)

    @given(
        st.sampled_from([3, 4, 8, 64, 128]),
        st.data(),
    )
    def test_exact_near_boundaries(self, buffer, data):
        model = HaasCostModel(buffer_pages=buffer)
        near = st.sampled_from(_boundary_pages(buffer)).flatmap(
            lambda p: st.floats(
                min_value=max(1.0, p - 2.0), max_value=p + 2.0, allow_nan=False
            )
        )
        sides = st.one_of(near, page_counts)
        self._assert_exact(model, data.draw(sides), data.draw(sides))

    @given(page_counts, page_counts)
    def test_exact_anywhere(self, left_pages, right_pages):
        self._assert_exact(HaasCostModel(buffer_pages=64), left_pages, right_pages)

    def test_sort_costs_memoized_once_per_input(self):
        model = HaasCostModel(buffer_pages=8)
        model.join_costs(_stats(100.0, 1), _stats(1000.0, 2))
        assert sorted(model._sorted) == [100.0, 1000.0]
