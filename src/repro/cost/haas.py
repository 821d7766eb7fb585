"""I/O cost model after Haas, Carey, Livny and Shukla (paper §V-A, [10]).

"Seeking the truth about ad hoc join costs" develops disk-based cost
formulas for the classic ad hoc join algorithms.  We implement the three
representative algorithms — blocked nested-loop join, sort-merge join and
(hybrid) hash join — over a page/buffer model and price a join as the
cheapest of the three for the given argument order.  This gives the paper's
two key properties:

* the formulas are *realistic* and notably more expensive to evaluate than a
  toy ``C_out`` model (the paper attributes its weaker APCB gains vs. [3] to
  exactly this);
* the commute rule of Appendix A holds: for inputs of equal tuple width,
  putting the smaller input on the outer/build side never costs more.

Costs are expressed in page I/Os.  Both inputs are read at least once by
every algorithm, so ``outer.pages + inner.pages`` is an admissible lower
bound — that is what :meth:`HaasCostModel.lower_bound` returns and what the
LBE of §IV-B builds on ("bases its estimate on the intermediate relations
that are the input for the next join").
"""

from __future__ import annotations

import math
from typing import Dict

from repro.cost.model import CostModel
from repro.cost.statistics import IntermediateStats

__all__ = ["HaasCostModel", "DEFAULT_BUFFER_PAGES"]

#: Buffer pool pages available to one join operator.
DEFAULT_BUFFER_PAGES = 128


#: Distinct page counts whose external-sort cost one model memoizes.  A
#: query has at most one page count per plan class; the cap only bounds a
#: model instance shared across many queries.
_SORT_MEMO_LIMIT = 65536


def _nested_loop(buffer: int, outer: float, inner: float) -> float:
    """Blocked NL join: read outer once, inner once per outer chunk.

    The outer is consumed in chunks of ``B - 2`` pages (one page is
    reserved for streaming the inner, one for output).
    """
    return outer + math.ceil(outer / (buffer - 2)) * inner


def _sort_pages(buffer: int, pages: float) -> float:
    """I/O to fully sort ``pages`` with ``B`` buffer pages.

    In-memory sorts cost one read; external sorts pay one read+write for
    run formation plus one read+write per (B-1)-way merge pass, with the
    final pass pipelined into the merge join (hence the ``- 1``).
    """
    if pages <= buffer:
        return pages
    runs = math.ceil(pages / buffer)
    merge_passes = math.ceil(math.log(runs, buffer - 1))
    # Run formation: read + write.  Each merge pass but the last:
    # read + write.  The last pass only reads (pipelined into the join).
    return 2 * pages + max(0, merge_passes - 1) * 2 * pages + pages


def _hybrid_hash(buffer: int, build: float, probe: float) -> float:
    """Hybrid hash join with the build input on the left.

    When the build input fits in memory, both inputs are read exactly
    once.  Otherwise a fraction ``q`` of the build input is kept
    memory-resident and the remaining ``1 - q`` of *both* inputs is
    written to partitions and read back (GRACE behaviour as ``q -> 0``).
    """
    if build <= buffer:
        return build + probe
    resident = max(0.0, min(1.0, buffer / build))
    spilled = 1.0 - resident
    # Round the spill traffic up to whole pages: I/O happens in page
    # units, and integer-valued costs keep the branch-and-bound budget
    # arithmetic exact (fractional costs drift by ulps through the
    # chained subtractions of TDPG_ACB/TDPG_APCBI, which shows up as
    # spurious budget failures at exact-budget boundaries).
    return (build + probe) + math.ceil(2.0 * spilled * (build + probe))


class HaasCostModel(CostModel):
    """Min-over-algorithms ad hoc join I/O cost.

    Parameters
    ----------
    buffer_pages:
        Pages of main memory available to the operator; must be >= 3 (one
        input page, one output page, and at least one page of working
        memory, the minimum for all three algorithms).
    """

    name = "haas"

    def __init__(self, buffer_pages: int = DEFAULT_BUFFER_PAGES):
        if buffer_pages < 3:
            raise ValueError(f"need >= 3 buffer pages, got {buffer_pages}")
        self._buffer = buffer_pages
        # Page count -> external-sort cost: an input's sort cost depends on
        # that input alone, and every ccp of a class re-prices it.
        self._sorted: Dict[float, float] = {}

    @property
    def buffer_pages(self) -> int:
        return self._buffer

    # ------------------------------------------------------------------
    # Individual algorithms (public so tests and docs can exercise them)
    # ------------------------------------------------------------------

    def blocked_nested_loop(self, outer: float, inner: float) -> float:
        """Blocked NL join (see :func:`_nested_loop`)."""
        return _nested_loop(self._buffer, outer, inner)

    def _sort_pages(self, pages: float) -> float:
        """I/O to fully sort ``pages``, memoized per page count."""
        cost = self._sorted.get(pages)
        if cost is None:
            cost = _sort_pages(self._buffer, pages)
            if len(self._sorted) >= _SORT_MEMO_LIMIT:
                self._sorted.clear()
            self._sorted[pages] = cost
        return cost

    def sort_merge(self, outer: float, inner: float) -> float:
        """Sort-merge join: sort both inputs, merge while joining."""
        return self._sort_pages(outer) + self._sort_pages(inner)

    def hybrid_hash(self, build: float, probe: float) -> float:
        """Hybrid hash join with the build input on the left (see
        :func:`_hybrid_hash`)."""
        return _hybrid_hash(self._buffer, build, probe)

    # ------------------------------------------------------------------
    # CostModel interface
    # ------------------------------------------------------------------

    def join_cost(self, outer: IntermediateStats, inner: IntermediateStats) -> float:
        # The formulas are called directly, not through the per-algorithm
        # methods: this runs twice per priced ccp.
        buffer = self._buffer
        left = outer.pages
        right = inner.pages
        sorted_ = self._sorted
        sort_left = sorted_.get(left)
        if sort_left is None:
            sort_left = self._sort_pages(left)
        sort_right = sorted_.get(right)
        if sort_right is None:
            sort_right = self._sort_pages(right)
        return min(
            _nested_loop(buffer, left, right),
            sort_left + sort_right,
            _hybrid_hash(buffer, left, right),
        )

    def lower_bound(
        self, left: IntermediateStats, right: IntermediateStats
    ) -> float:
        """Both inputs must be read at least once by any algorithm."""
        return left.pages + right.pages

    def __repr__(self) -> str:
        return f"HaasCostModel(buffer_pages={self._buffer})"
