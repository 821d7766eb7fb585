"""The iterative validation walk against the recursive validator.

``validate_plan`` used to check a plan with a ``leaves()`` generator pass
for duplicates and a recursive ``_validate_node`` that searched the graph
for the connectivity of both inputs of every join.  It now walks the tree
iteratively, proves connectivity bottom-up and searches only where the
proof fails.  The old code lives on here, and only here, as the oracle:
over valid plans of every family at n = 2-12 and over eight kinds of
corruption, the walk raises exactly when the oracle does, with the same
message.  The one difference is a check the oracle lacks: a leaf whose
vertex set is not its own relation's bit is rejected.
"""

from __future__ import annotations

import math
import random
from typing import List, Optional

import pytest
from hypothesis import given, settings, strategies as st

from repro.context.context import OptimizationContext
from repro.cost.compare import cost_is_zero, costs_close
from repro.cost.haas import HaasCostModel
from repro.cost.statistics import StatisticsProvider
from repro.graph import bitset
from repro.plans.join_tree import JoinNode, JoinTree, LeafNode
from repro.plans.validation import (
    PlanValidationError,
    _COST_TOLERANCE,
    recompute_cost,
    validate_plan,
)
from repro.query import Query
from repro.workload.generator import QueryGenerator

FAMILIES = ("chain", "cycle", "star", "clique", "acyclic", "cyclic")

CORRUPTIONS = (
    "none",
    "swap_leaves",
    "duplicate",
    "ulp_cardinality",
    "leaf_cost",
    "join_vertex_set",
    "no_edge_split",
    "disconnected_input",
    "leaf_vertex_set",
)


# -- the oracle: the recursive validator, as it was -----------------------


def _oracle_validate_plan(plan, query, cost_model=None):
    if plan.vertex_set != query.graph.all_vertices:
        raise PlanValidationError(
            "plan does not cover exactly the query's relations: "
            f"{bitset.format_set(plan.vertex_set)} != "
            f"{bitset.format_set(query.graph.all_vertices)}"
        )
    seen = set()
    for leaf in plan.leaves():
        if leaf.relation in seen:
            raise PlanValidationError(
                f"relation R{leaf.relation} appears more than once in the plan"
            )
        seen.add(leaf.relation)
    provider = StatisticsProvider(query)
    _oracle_validate_node(plan, query, provider)
    if cost_model is not None:
        recomputed = recompute_cost(plan, provider, cost_model)
        if not costs_close(plan.cost, recomputed, rel=_COST_TOLERANCE):
            raise PlanValidationError(
                f"plan cost {plan.cost!r} does not match recomputation "
                f"{recomputed!r}"
            )


def _oracle_validate_node(node, query, provider):
    graph = query.graph
    if isinstance(node, LeafNode):
        if node.cardinality != query.catalog.cardinality(node.relation):
            raise PlanValidationError(
                f"leaf R{node.relation} carries cardinality {node.cardinality}, "
                f"catalog says {query.catalog.cardinality(node.relation)}"
            )
        if not cost_is_zero(node.cost):
            raise PlanValidationError("leaf nodes must have zero cost")
        return
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
    expected_cardinality = provider.cardinality(node.vertex_set)
    if not (
        abs(node.cardinality - expected_cardinality)
        <= 1e-9 * max(1.0, expected_cardinality)
    ):
        raise PlanValidationError(
            f"cardinality mismatch at {bitset.format_set(node.vertex_set)}: "
            f"plan says {node.cardinality}, estimator says {expected_cardinality}"
        )
    _oracle_validate_node(left, query, provider)
    _oracle_validate_node(right, query, provider)


# -- plans: random bushy trees, optionally with a split off the edges -----


def _random_plan(query: Query, rng: random.Random, stray_merges: int = 0) -> JoinTree:
    """A priced bushy tree: merge two components joined by an edge, until
    one is left.  The first ``stray_merges`` merges join two components
    with no edge between them instead, while there are such pairs."""
    builder = OptimizationContext.for_query(query).builder
    trees = [builder.leaf(query, index) for index in range(query.n_relations)]
    graph = query.graph
    while len(trees) > 1:
        pairs = {True: [], False: []}
        for i, outer in enumerate(trees):
            for j, inner in enumerate(trees):
                if i != j:
                    linked = graph.are_connected(outer.vertex_set, inner.vertex_set)
                    pairs[linked].append((i, j))
        stray = stray_merges > 0 and pairs[False]
        i, j = rng.choice(pairs[not stray])
        joined = builder.create_tree(trees[i], trees[j])
        trees = [tree for k, tree in enumerate(trees) if k not in (i, j)]
        trees.append(joined)
        stray_merges -= 1
    return trees[0]


def _nodes(tree: JoinTree) -> List[JoinTree]:
    found = [tree]
    if isinstance(tree, JoinNode):
        found += _nodes(tree.left) + _nodes(tree.right)
    return found


def _slot(tree: JoinTree, target: JoinTree):
    """``(join, side)``: where ``target`` hangs below ``tree``."""
    return next(
        (node, side)
        for node in _nodes(tree)
        if isinstance(node, JoinNode)
        for side in ("left", "right")
        if getattr(node, side) is target
    )


def _leaves(tree: JoinTree) -> List[LeafNode]:
    return [node for node in _nodes(tree) if isinstance(node, LeafNode)]


def _refresh_vertex_sets(node: JoinTree) -> int:
    if isinstance(node, JoinNode):
        node.vertex_set = _refresh_vertex_sets(node.left) | _refresh_vertex_sets(
            node.right
        )
    return node.vertex_set


def _corrupt(plan: JoinTree, query: Query, kind: str, rng: random.Random) -> JoinTree:
    leaves = _leaves(plan)
    joins = [node for node in _nodes(plan) if isinstance(node, JoinNode)]
    if kind == "swap_leaves" and joins:
        # One leaf from each side of the root; the vertex sets above them
        # are left stale or recomputed.
        a = _slot(plan, rng.choice(_leaves(plan.left)))
        b = _slot(plan, rng.choice(_leaves(plan.right)))
        a_leaf, b_leaf = getattr(*a), getattr(*b)
        setattr(*a, b_leaf)
        setattr(*b, a_leaf)
        if rng.random() < 0.5:
            _refresh_vertex_sets(plan)
    elif kind == "duplicate" and joins:
        source, target = rng.sample(leaves, 2)
        setattr(*_slot(plan, target), LeafNode(source.relation, source.cardinality))
    elif kind == "ulp_cardinality":
        node = rng.choice(_nodes(plan))
        direction = math.inf if rng.random() < 0.5 else -math.inf
        node.cardinality = math.nextafter(node.cardinality, direction)
    elif kind == "leaf_cost":
        rng.choice(leaves).cost = rng.choice((1e-12, 1e-6, 0.5, 7.0))
    elif kind == "join_vertex_set" and joins:
        node = rng.choice(joins)
        node.vertex_set ^= bitset.singleton(rng.randrange(query.n_relations))
    elif kind == "leaf_vertex_set":
        leaf = rng.choice(leaves)
        other = rng.choice([i for i in range(query.n_relations) if i != leaf.relation])
        leaf.vertex_set |= bitset.singleton(other)
    return plan


def _outcome(call, *args) -> Optional[str]:
    try:
        call(*args)
    except PlanValidationError as error:
        return str(error)
    return None


def _assert_agrees(plan: JoinTree, query: Query, priced: bool) -> Optional[str]:
    model = HaasCostModel() if priced else None
    expected = _outcome(_oracle_validate_plan, plan, query, model)
    actual = _outcome(validate_plan, plan, query, model)
    foreign_leaves = [
        leaf
        for leaf in _leaves(plan)
        if leaf.vertex_set != bitset.singleton(leaf.relation)
    ]
    if foreign_leaves:
        assert actual is not None
    if actual is not None and " carries vertex set " in actual:
        # The one check the oracle lacks, at the first such leaf.
        leaf = foreign_leaves[0]
        assert actual == (
            f"leaf R{leaf.relation} carries vertex set "
            f"{bitset.format_set(leaf.vertex_set)}, not "
            f"{bitset.format_set(bitset.singleton(leaf.relation))}"
        )
    else:
        assert actual == expected
    return actual


@st.composite
def _cases(draw, kind: str):
    family = draw(st.sampled_from(FAMILIES))
    n = draw(st.integers(3 if family in ("cycle", "cyclic") else 2, 12))
    query = QueryGenerator(seed=draw(st.integers(0, 2**16))).generate(family, n)
    rng = random.Random(draw(st.integers(0, 2**32)))
    stray = 0
    if kind in ("no_edge_split", "disconnected_input"):
        # A stray merge joins two components with no edge between them;
        # a later merge then takes their disconnected union as an input.
        stray = 1 if kind == "no_edge_split" else rng.randint(2, max(2, n - 2))
    plan = _random_plan(query, rng, stray)
    return _corrupt(plan, query, kind, rng), query, draw(st.booleans())


@pytest.mark.parametrize("kind", CORRUPTIONS)
@settings(max_examples=60)
@given(data=st.data())
def test_the_walk_agrees_with_the_recursive_oracle(kind, data):
    plan, query, priced = data.draw(_cases(kind))
    _assert_agrees(plan, query, priced)


@pytest.mark.parametrize("family", FAMILIES)
def test_every_size_of_every_family_validates(family):
    for n in range(3 if family in ("cycle", "cyclic") else 2, 13):
        query = QueryGenerator(seed=n).generate(family, n)
        plan = _random_plan(query, random.Random(n))
        assert _assert_agrees(plan, query, priced=True) is None


def test_a_leaf_cannot_hide_a_missing_relation():
    # The leaf for R0 claims R1's bit too, so every vertex set above it
    # looks complete although R1 never appears in the plan.
    query = QueryGenerator(seed=1).generate("chain", 3)
    builder = OptimizationContext.for_query(query).builder
    leaf = builder.leaf(query, 0)
    leaf.vertex_set = 0b011
    plan = JoinNode(
        leaf,
        builder.leaf(query, 2),
        StatisticsProvider(query).cardinality(0b111),
        1.0,
    )
    assert _outcome(_oracle_validate_plan, plan, query) is None
    with pytest.raises(PlanValidationError) as raised:
        validate_plan(plan, query)
    assert str(raised.value) == "leaf R0 carries vertex set {R0, R1}, not {R0}"
