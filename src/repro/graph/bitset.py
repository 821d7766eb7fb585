"""Vertex sets represented as integer bitsets.

The whole library encodes a set of query-graph vertices as a plain Python
``int`` whose bit ``i`` is set when vertex ``i`` is a member.  Integers are
immutable and hashable, which makes them perfect memotable keys, and Python's
big-integer bit operations are the fastest set algebra available without
native extensions.

All helpers here are free functions operating on such integers.  They are the
single place in the code base that knows about the encoding; everything else
goes through this vocabulary (``singleton``, ``union`` is ``|``, etc.).
"""

from __future__ import annotations

from typing import Iterable, Iterator, List

__all__ = [
    "EMPTY",
    "singleton",
    "full_set",
    "from_iterable",
    "to_list",
    "iter_bits",
    "bit_count",
    "lowest_bit",
    "lowest_index",
    "highest_bit",
    "highest_index",
    "is_subset",
    "contains",
    "without",
    "iter_subsets",
    "format_set",
]

#: The empty vertex set.
EMPTY = 0


def singleton(index: int) -> int:
    """Return the set containing exactly vertex ``index``."""
    if index < 0:
        raise ValueError(f"vertex index must be non-negative, got {index}")
    return 1 << index


def full_set(n: int) -> int:
    """Return the set containing every vertex ``0 .. n-1``."""
    if n < 0:
        raise ValueError(f"vertex count must be non-negative, got {n}")
    return (1 << n) - 1


def from_iterable(indices: Iterable[int]) -> int:
    """Build a set from an iterable of vertex indices."""
    result = 0
    for index in indices:
        result |= singleton(index)
    return result


def to_list(bitset: int) -> List[int]:
    """Return the member indices of ``bitset`` in ascending order."""
    return list(iter_bits(bitset))


def iter_bits(bitset: int) -> Iterator[int]:
    """Yield the member indices of ``bitset`` in ascending order."""
    while bitset:
        low = bitset & -bitset
        yield low.bit_length() - 1
        bitset ^= low


def _bit_count_portable(bitset: int) -> int:
    """Return the cardinality of the set (portable Python 3.9 spelling)."""
    return bin(bitset).count("1")


#: Return the cardinality of the set.
#:
#: ``int.bit_count()`` landed in Python 3.10 (bpo-29882); where it exists
#: this *is* ``int.bit_count``, the method itself, so every hot loop pays
#: one C call (28 vs 65 ns for a wrapper function on CPython 3.11).  The
#: portable ``bin(s).count("1")`` spelling serves the 3.9 floor
#: (pyproject: ``requires-python >= 3.9``) and the parity test.
bit_count = getattr(int, "bit_count", _bit_count_portable)


def lowest_bit(bitset: int) -> int:
    """Return the singleton set of the lowest member (0 for the empty set)."""
    return bitset & -bitset


def lowest_index(bitset: int) -> int:
    """Return the index of the lowest member of a non-empty set."""
    if not bitset:
        raise ValueError("empty bitset has no lowest index")
    return (bitset & -bitset).bit_length() - 1


def highest_bit(bitset: int) -> int:
    """Return the singleton set of the highest member (0 for the empty set)."""
    if not bitset:
        return 0
    return 1 << (bitset.bit_length() - 1)


def highest_index(bitset: int) -> int:
    """Return the index of the highest member of a non-empty set."""
    if not bitset:
        raise ValueError("empty bitset has no highest index")
    return bitset.bit_length() - 1


def is_subset(small: int, big: int) -> bool:
    """Return ``True`` when every member of ``small`` is in ``big``."""
    return small & ~big == 0


def contains(bitset: int, index: int) -> bool:
    """Return ``True`` when vertex ``index`` is a member of ``bitset``."""
    return bool(bitset >> index & 1)


def without(bitset: int, other: int) -> int:
    """Return the set difference ``bitset \\ other``."""
    return bitset & ~other


def iter_subsets(bitset: int) -> Iterator[int]:
    """Yield all non-empty proper-or-improper subsets of ``bitset``.

    Uses the classic descending-subset trick ``s = (s - 1) & bitset``
    (Vance & Maier, SIGMOD'96), which enumerates every subset exactly once.
    The improper subset (``bitset`` itself) is yielded first and the empty
    set is never yielded.
    """
    subset = bitset
    while subset:
        yield subset
        subset = (subset - 1) & bitset


def format_set(bitset: int, prefix: str = "R") -> str:
    """Render a bitset as ``{R0, R2, R5}`` for logs and ``repr``s."""
    members = ", ".join(f"{prefix}{i}" for i in iter_bits(bitset))
    return "{" + members + "}"
