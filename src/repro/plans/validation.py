"""Structural and cost validation of join trees.

Used by tests and available to applications as a safety net: given a plan
and its query, :func:`validate_plan` checks every invariant an optimal
bushy cross-product-free join tree must satisfy and recomputes the
accumulated costs from scratch with the given cost model.  Violations
raise :class:`PlanValidationError` with a precise description.

The optimizers run :func:`check_finite` and :func:`validate_plan` on every
plan they serve, cache hits included, so both sit on the hot path.  Each
check therefore tests its condition first and formats its message only
when the condition fails: a valid plan costs the comparisons and nothing
else.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

from repro.cost.compare import COST_ABS_TOLERANCE, cost_is_zero, costs_close
from repro.cost.model import CostModel
from repro.cost.statistics import StatisticsProvider
from repro.errors import ReproError
from repro.graph import bitset
from repro.graph.query_graph import QueryGraph
from repro.plans.join_tree import JoinNode, JoinTree, LeafNode
from repro.query import Query

__all__ = ["PlanValidationError", "validate_plan", "check_finite", "recompute_cost"]

#: Relative tolerance for cost recomputation (costs are sums of
#: integer-valued page counts, so this is generous).
_COST_TOLERANCE = 1e-9


class PlanValidationError(ReproError):
    """Raised when a join tree violates a structural or cost invariant."""


def validate_plan(
    plan: JoinTree,
    query: Query,
    cost_model: Optional[CostModel] = None,
) -> None:
    """Validate ``plan`` against ``query``; raises on the first violation.

    Checks:

    * the plan covers exactly the query's relations, each once, and every
      leaf's vertex set is its own relation's;
    * every join node's vertex set is the disjoint union of its inputs;
    * both inputs of every join induce connected subgraphs and are linked
      by at least one join edge (no cross products, §II-A);
    * cardinalities match the statistics provider's estimates;
    * when a ``cost_model`` is given, every node's accumulated cost equals
      a from-scratch recomputation.

    The tree is walked without recursion (see :func:`_check_nodes`); the
    join checks run in pre-order, left input first, so the first
    violation in that order is the one reported.
    """
    if plan.vertex_set != query.graph.all_vertices:
        raise PlanValidationError(
            "plan does not cover exactly the query's relations: "
            f"{bitset.format_set(plan.vertex_set)} != "
            f"{bitset.format_set(query.graph.all_vertices)}"
        )
    nodes, leaf_set = _preorder(plan)
    # Imported lazily: repro.context builds on repro.plans, so a module-level
    # import here would close a package cycle during interpreter start-up.
    from repro.context.context import statistics_for

    # Validation's own provider, never the caller's: the estimates are
    # re-read from the catalog, which a chaos-wrapped query may answer
    # differently the second time.
    provider = statistics_for(query)
    _check_nodes(nodes, leaf_set, query, provider)
    if cost_model is not None:
        recomputed = recompute_cost(plan, provider, cost_model)
        if not costs_close(plan.cost, recomputed, rel=_COST_TOLERANCE):
            raise PlanValidationError(
                f"plan cost {plan.cost!r} does not match recomputation "
                f"{recomputed!r}"
            )


def check_finite(plan: JoinTree) -> None:
    """Reject plans carrying non-finite or negative numbers.

    A cost model that fails open (``NaN``/``Inf`` returns, e.g. under fault
    injection or a broken statistics pipeline) produces trees whose shape
    is fine but whose numbers are garbage; executing or benchmarking such a
    plan silently corrupts every downstream total.  This walk raises
    :class:`PlanValidationError` on the first node whose cost or
    cardinality is not a finite non-negative float (negativity judged with
    the shared epsilon of :mod:`repro.cost.compare`).
    """
    stack = [plan]
    while stack:
        node = stack.pop()
        if not math.isfinite(node.cost):
            raise PlanValidationError(
                f"non-finite cost {node.cost!r} at "
                f"{bitset.format_set(node.vertex_set)}"
            )
        if not node.cost >= -COST_ABS_TOLERANCE:
            raise PlanValidationError(
                f"negative cost {node.cost!r} at "
                f"{bitset.format_set(node.vertex_set)}"
            )
        if not math.isfinite(node.cardinality):
            raise PlanValidationError(
                f"non-finite cardinality {node.cardinality!r} at "
                f"{bitset.format_set(node.vertex_set)}"
            )
        if not node.cardinality >= 0:
            raise PlanValidationError(
                f"negative cardinality {node.cardinality!r} at "
                f"{bitset.format_set(node.vertex_set)}"
            )
        if isinstance(node, JoinNode):
            stack.append(node.left)
            stack.append(node.right)


def _preorder(tree: JoinTree) -> Tuple[List[JoinTree], int]:
    """``tree``'s nodes in pre-order, left input first, and its leaves' set.

    Leaves come out left to right, which is the order their two checks
    run in: a relation seen before (the bitset of the leaves so far) and
    a leaf whose vertex set is not its own relation's bit.  Coverage is
    read from vertex sets, so without the second check a leaf could carry
    another relation's bit and hide that relation's absence.
    """
    nodes: List[JoinTree] = []
    seen = 0
    stack = [tree]
    while stack:
        node = stack.pop()
        nodes.append(node)
        if isinstance(node, LeafNode):
            bit = bitset.singleton(node.relation)
            if seen & bit:
                raise PlanValidationError(
                    f"relation R{node.relation} appears more than once in the plan"
                )
            seen |= bit
            if node.vertex_set != bit:
                raise PlanValidationError(
                    f"leaf R{node.relation} carries vertex set "
                    f"{bitset.format_set(node.vertex_set)}, not "
                    f"{bitset.format_set(bit)}"
                )
        else:
            stack.append(node.right)
            stack.append(node.left)
    return nodes, seen


def _check_nodes(
    nodes: List[JoinTree],
    leaf_set: int,
    query: Query,
    provider: StatisticsProvider,
) -> None:
    """Check every node of a :func:`_preorder` listing, in that order.

    A bottom-up pass first proves joins *sound*: inputs disjoint, their
    union the join's vertex set, both inputs proven connected, and a join
    edge between them.  A leaf is one relation, so it is connected; a
    sound join is the union of two connected sets that share an edge, so
    it is connected too.  No breadth-first search runs on a valid plan.

    The checks then run top-down, in pre-order: a sound join skips its
    structural checks (all pass), any other join runs them in full
    (:func:`_check_join_inputs`, which searches the graph), so the first
    violation and its message are the same as checking every join in
    full.  The proof pass runs only when every leaf names a relation of
    the query, so it never asks the graph about a vertex it lacks.
    Cardinalities are priced with
    :meth:`~repro.cost.statistics.StatisticsProvider.estimate_cardinality`,
    which builds no statistics object.
    """
    graph = query.graph
    sound = [False] * len(nodes)
    if leaf_set | graph.all_vertices == graph.all_vertices:
        connected: List[bool] = []  # one flag per subtree below, left on top
        for index in range(len(nodes) - 1, -1, -1):
            node = nodes[index]
            if isinstance(node, LeafNode):
                connected.append(True)
                continue
            left_connected = connected.pop()
            right_connected = connected.pop()
            left_set = node.left.vertex_set
            right_set = node.right.vertex_set
            proven = (
                left_connected
                and right_connected
                and not left_set & right_set
                and left_set | right_set == node.vertex_set
                and graph.are_connected(left_set, right_set)
            )
            sound[index] = proven
            connected.append(proven)
    catalog = query.catalog
    estimate = provider.estimate_cardinality
    for index, node in enumerate(nodes):
        if isinstance(node, LeafNode):
            if node.cardinality != catalog.cardinality(node.relation):
                raise PlanValidationError(
                    f"leaf R{node.relation} carries cardinality "
                    f"{node.cardinality}, catalog says "
                    f"{catalog.cardinality(node.relation)}"
                )
            if not cost_is_zero(node.cost):
                raise PlanValidationError("leaf nodes must have zero cost")
            continue
        if not sound[index]:
            _check_join_inputs(node, graph)
        expected_cardinality = estimate(node.vertex_set)
        if not (
            abs(node.cardinality - expected_cardinality)
            <= 1e-9 * max(1.0, expected_cardinality)
        ):
            raise PlanValidationError(
                f"cardinality mismatch at {bitset.format_set(node.vertex_set)}: "
                f"plan says {node.cardinality}, estimator says "
                f"{expected_cardinality}"
            )


def _check_join_inputs(node: JoinNode, graph: QueryGraph) -> None:
    """The structural checks of one join, each in full, in report order."""
    left, right = node.left, node.right
    if left.vertex_set & right.vertex_set != 0:
        raise PlanValidationError(
            f"join inputs overlap at {bitset.format_set(node.vertex_set)}"
        )
    if left.vertex_set | right.vertex_set != node.vertex_set:
        raise PlanValidationError(
            f"join vertex set is not the union of its inputs at "
            f"{bitset.format_set(node.vertex_set)}"
        )
    if not graph.is_connected(left.vertex_set):
        raise PlanValidationError(
            f"left input {bitset.format_set(left.vertex_set)} is disconnected"
        )
    if not graph.is_connected(right.vertex_set):
        raise PlanValidationError(
            f"right input {bitset.format_set(right.vertex_set)} is disconnected"
        )
    if not graph.are_connected(left.vertex_set, right.vertex_set):
        raise PlanValidationError(
            f"cross product at {bitset.format_set(node.vertex_set)}: no join "
            "edge between the inputs"
        )


def recompute_cost(
    node: JoinTree, provider: StatisticsProvider, cost_model: CostModel
) -> float:
    """Re-price a tree bottom-up, ignoring the costs stored on its nodes."""
    if isinstance(node, LeafNode):
        return 0.0
    assert isinstance(node, JoinNode)
    left_cost = recompute_cost(node.left, provider, cost_model)
    right_cost = recompute_cost(node.right, provider, cost_model)
    operator = cost_model.join_cost(
        provider.stats(node.left.vertex_set),
        provider.stats(node.right.vertex_set),
    )
    return left_cost + right_cost + operator
