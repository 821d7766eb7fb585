"""Per-relation statistics.

The cost model of Haas et al. works on pages, so besides the tuple
cardinality we track a tuple width in bytes and derive the page count from a
page size.  Domain sizes are kept because the Steinbrunn-style selectivity
generator (§V-B) derives join selectivities from attribute domain sizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Tuple

from repro.errors import CatalogError

__all__ = ["RelationStats", "DEFAULT_PAGE_SIZE", "DEFAULT_TUPLE_WIDTH"]

#: Bytes per disk page assumed by the I/O cost model.
DEFAULT_PAGE_SIZE = 8192

#: Bytes per tuple when the workload generator does not vary widths.
DEFAULT_TUPLE_WIDTH = 100


@dataclass(frozen=True)
class RelationStats:
    """Statistics for one base relation.

    Parameters
    ----------
    cardinality:
        Number of tuples, must be >= 1.
    tuple_width:
        Width of one tuple in bytes.
    domain_sizes:
        Sizes of the join-attribute domains of this relation.  The
        Steinbrunn selectivity scheme draws one attribute per join edge.
    name:
        Optional human-readable name, used in plan explanations.
    """

    cardinality: float
    tuple_width: int = DEFAULT_TUPLE_WIDTH
    domain_sizes: Tuple[int, ...] = field(default_factory=tuple)
    name: str = ""

    def __post_init__(self) -> None:
        if self.cardinality < 1:
            raise CatalogError(
                f"relation cardinality must be >= 1, got {self.cardinality}"
            )
        if self.tuple_width < 1:
            raise CatalogError(
                f"tuple width must be >= 1 byte, got {self.tuple_width}"
            )
        for size in self.domain_sizes:
            if size < 1:
                raise CatalogError(f"domain size must be >= 1, got {size}")

    def pages(self) -> float:
        """Pages of :data:`DEFAULT_PAGE_SIZE` bytes it occupies (at least one)."""
        tuples_per_page = max(1, DEFAULT_PAGE_SIZE // self.tuple_width)
        return max(1.0, math.ceil(self.cardinality / tuples_per_page))
