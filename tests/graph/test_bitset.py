"""Unit and property tests for the bitset vocabulary."""

import pytest
from hypothesis import given, strategies as st

from repro.graph import bitset

small_sets = st.sets(st.integers(0, 30), max_size=12)


class TestSingleton:
    def test_singleton_is_power_of_two(self):
        assert bitset.singleton(0) == 1
        assert bitset.singleton(3) == 8

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            bitset.singleton(-1)


class TestFullSet:
    def test_full_set_contains_exactly_first_n(self):
        assert bitset.full_set(0) == bitset.EMPTY
        assert bitset.to_list(bitset.full_set(4)) == [0, 1, 2, 3]

    @given(st.integers(0, 64))
    def test_full_set_cardinality(self, n):
        assert bitset.bit_count(bitset.full_set(n)) == n

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            bitset.full_set(-1)


class TestRoundTrips:
    @given(small_sets)
    def test_from_iterable_to_list_round_trip(self, indices):
        assert bitset.to_list(bitset.from_iterable(indices)) == sorted(indices)

    @given(small_sets)
    def test_bit_count_matches_set_size(self, indices):
        assert bitset.bit_count(bitset.from_iterable(indices)) == len(indices)


class TestBitCountDispatch:
    """The import-time native/portable popcount dispatch (Python 3.9 floor)."""

    def test_dispatch_picked_the_native_implementation_when_available(self):
        if hasattr(int, "bit_count"):
            assert bitset.bit_count is int.bit_count
        else:
            assert bitset.bit_count is bitset._bit_count_portable

    @given(st.integers(0, 2**80))
    def test_portable_and_native_implementations_agree(self, value):
        portable = bitset._bit_count_portable(value)
        assert portable == bitset.bit_count(value)
        if hasattr(int, "bit_count"):
            assert portable == value.bit_count()

    @given(small_sets)
    def test_portable_spelling_matches_set_size(self, indices):
        value = bitset.from_iterable(indices)
        assert bitset._bit_count_portable(value) == len(indices)

    @given(small_sets)
    def test_iter_bits_ascending(self, indices):
        listed = list(bitset.iter_bits(bitset.from_iterable(indices)))
        assert listed == sorted(listed)


class TestExtremes:
    def test_lowest_and_highest_index(self):
        value = bitset.from_iterable({2, 5, 9})
        assert bitset.lowest_index(value) == 2
        assert bitset.highest_index(value) == 9
        assert bitset.lowest_bit(value) == 4

    def test_lowest_of_empty_raises(self):
        with pytest.raises(ValueError):
            bitset.lowest_index(bitset.EMPTY)

    def test_highest_of_empty_raises(self):
        with pytest.raises(ValueError):
            bitset.highest_index(bitset.EMPTY)

    def test_lowest_bit_of_empty_is_zero(self):
        assert bitset.lowest_bit(bitset.EMPTY) == 0

    def test_highest_bit(self):
        value = bitset.from_iterable({2, 5, 9})
        assert bitset.highest_bit(value) == bitset.singleton(9)

    def test_highest_bit_of_empty_is_zero(self):
        assert bitset.highest_bit(bitset.EMPTY) == 0

    @given(small_sets.filter(bool))
    def test_highest_bit_matches_highest_index(self, indices):
        value = bitset.from_iterable(indices)
        assert bitset.highest_bit(value) == bitset.singleton(
            bitset.highest_index(value)
        )


class TestSetAlgebra:
    @given(small_sets, small_sets)
    def test_is_subset_matches_python_sets(self, a, b):
        assert bitset.is_subset(
            bitset.from_iterable(a), bitset.from_iterable(b)
        ) == a.issubset(b)

    @given(small_sets, small_sets)
    def test_without_matches_difference(self, a, b):
        result = bitset.without(bitset.from_iterable(a), bitset.from_iterable(b))
        assert bitset.to_list(result) == sorted(a - b)

    @given(small_sets, st.integers(0, 30))
    def test_contains(self, indices, probe):
        assert bitset.contains(bitset.from_iterable(indices), probe) == (
            probe in indices
        )


class TestSubsetEnumeration:
    @given(st.sets(st.integers(0, 9), min_size=1, max_size=6))
    def test_iter_subsets_enumerates_all_nonempty_subsets(self, indices):
        value = bitset.from_iterable(indices)
        subsets = list(bitset.iter_subsets(value))
        assert len(subsets) == 2 ** len(indices) - 1
        assert len(set(subsets)) == len(subsets)
        assert all(bitset.is_subset(s, value) for s in subsets)
        assert subsets[0] == value  # the improper subset comes first

    def test_iter_subsets_of_empty_is_empty(self):
        assert list(bitset.iter_subsets(0)) == []


class TestFormatting:
    def test_format_set(self):
        assert bitset.format_set(bitset.from_iterable({0, 2})) == "{R0, R2}"

    def test_format_set_custom_prefix(self):
        assert bitset.format_set(1, prefix="T") == "{T0}"

    def test_format_empty(self):
        assert bitset.format_set(0) == "{}"
