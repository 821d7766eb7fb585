"""The ``C_out`` cost model (extension; not used by the paper's evaluation).

``C_out`` charges every join the cardinality of its output and nothing
else.  It is the standard model for analysing join-ordering algorithms in
isolation because it is symmetric, cheap to evaluate and order-sensitive.
We ship it for unit tests and for users who want a faster, simpler model;
the paper's experiments use :class:`~repro.cost.haas.HaasCostModel`.
"""

from __future__ import annotations

from typing import Callable

from repro.cost.model import CostModel
from repro.cost.statistics import IntermediateStats, StatisticsProvider

__all__ = ["CoutCostModel"]


class CoutCostModel(CostModel):
    """``cost(S1 join S2) = |S1 join S2|`` under the independence model.

    The output cardinality depends on the joined *set*, so this model needs
    a :class:`StatisticsProvider` to look it up; :meth:`bind` returns a
    copy attached to one (:class:`~repro.context.OptimizationContext` does
    this automatically when building a context).
    """

    name = "cout"

    #: ``join_cost`` is exactly the union set's output cardinality, which
    #: makes this model eligible for the DPconv subset-convolution fast
    #: path (see :attr:`repro.cost.model.CostModel.cout_shaped`).
    cout_shaped = True

    def __init__(self) -> None:
        self._provider: StatisticsProvider | None = None

    def bind(self, provider: StatisticsProvider) -> "CoutCostModel":
        """Return a copy bound to ``provider``; the receiver is untouched.

        Binding used to mutate ``self``, which meant a single model
        instance reused across two generators or queries silently kept the
        *first* query's statistics — wrong cardinalities, wrong costs, no
        error.  A bound copy per context makes sharing an unbound model
        safe by construction.
        """
        bound = CoutCostModel()
        bound._provider = provider
        return bound

    def _output_cardinality(
        self, left: IntermediateStats, right: IntermediateStats
    ) -> float:
        provider = self._provider
        if provider is None:
            raise RuntimeError(
                "CoutCostModel must be bound to a StatisticsProvider "
                "before pricing joins"
            )
        return provider.stats(left.vertex_set | right.vertex_set).cardinality

    def join_cost(self, outer: IntermediateStats, inner: IntermediateStats) -> float:
        return self._output_cardinality(outer, inner)

    def lower_bound(
        self, left: IntermediateStats, right: IntermediateStats
    ) -> float:
        # The operator cost *is* the output cardinality, which is fixed for
        # the pair, so the exact value is also the tightest bound.
        return self._output_cardinality(left, right)
