"""Tests for join-tree validation."""

import pytest
from hypothesis import given

from repro.cost.haas import HaasCostModel
from repro.core.optimizer import optimize
from repro.graph import bitset
from repro.plans.join_tree import JoinNode, LeafNode
from repro.plans.validation import (
    PlanValidationError,
    _check_nodes,
    _preorder,
    check_finite,
    recompute_cost,
    validate_plan,
)
from repro.cost.statistics import StatisticsProvider
from tests.conftest import small_queries


class TestAcceptsRealPlans:
    @given(query=small_queries(max_n=6))
    def test_optimizer_output_validates(self, query):
        result = optimize(query, pruning="apcbi")
        validate_plan(result.plan, query, HaasCostModel())

    def test_unpruned_output_validates(self, small_query):
        result = optimize(small_query, pruning="none")
        validate_plan(result.plan, small_query, HaasCostModel())


class TestRejectsBrokenPlans:
    def _leaves(self, query):
        return {
            i: LeafNode(i, query.catalog.cardinality(i))
            for i in range(query.n_relations)
        }

    def test_incomplete_plan_rejected(self, small_query):
        leaves = self._leaves(small_query)
        u, v = sorted(small_query.graph.edges)[0]
        partial = JoinNode(leaves[u], leaves[v], 10.0, 1.0)
        with pytest.raises(PlanValidationError, match="cover"):
            validate_plan(partial, small_query)

    def test_cross_product_rejected(self, generator):
        query = generator.generate("chain", 4)
        provider = StatisticsProvider(query)
        leaves = self._leaves(query)
        # Join R0 with R2: no edge in a chain.  Use correct cardinalities
        # so the cross-product check is the violation that fires.
        cross = JoinNode(
            leaves[0], leaves[2], provider.cardinality(0b0101), 1.0
        )
        inner = JoinNode(cross, leaves[1], provider.cardinality(0b0111), 1.0)
        plan = JoinNode(inner, leaves[3], provider.cardinality(0b1111), 1.0)
        with pytest.raises(PlanValidationError, match="cross product|disconnected"):
            validate_plan(plan, query)

    def test_wrong_leaf_cardinality_rejected(self, generator):
        query = generator.generate("chain", 2)
        wrong = LeafNode(0, query.catalog.cardinality(0) + 1)
        plan = JoinNode(
            wrong, LeafNode(1, query.catalog.cardinality(1)), 10.0, 1.0
        )
        with pytest.raises(PlanValidationError, match="cardinality"):
            validate_plan(plan, query)

    def test_wrong_cost_rejected(self, generator):
        query = generator.generate("chain", 2)
        provider = StatisticsProvider(query)
        plan = JoinNode(
            LeafNode(0, query.catalog.cardinality(0)),
            LeafNode(1, query.catalog.cardinality(1)),
            provider.cardinality(0b11),
            operator_cost=123456.0,  # made-up operator cost
        )
        with pytest.raises(PlanValidationError, match="cost"):
            validate_plan(plan, query, HaasCostModel())


class TestCheckFinite:
    def _two_way_plan(self, generator, cost=10.0, cardinality=None):
        query = generator.generate("chain", 2)
        provider = StatisticsProvider(query)
        if cardinality is None:
            cardinality = provider.cardinality(0b11)
        return JoinNode(
            LeafNode(0, query.catalog.cardinality(0)),
            LeafNode(1, query.catalog.cardinality(1)),
            cardinality,
            cost,
        )

    def test_real_plan_passes(self, small_query):
        check_finite(optimize(small_query).plan)

    @pytest.mark.parametrize("bogus", [float("nan"), float("inf")])
    def test_non_finite_cost_rejected(self, generator, bogus):
        with pytest.raises(PlanValidationError, match="non-finite cost"):
            check_finite(self._two_way_plan(generator, cost=bogus))

    def test_negative_cost_rejected(self, generator):
        with pytest.raises(PlanValidationError, match="negative cost"):
            check_finite(self._two_way_plan(generator, cost=-5.0))

    @pytest.mark.parametrize("bogus", [float("nan"), float("inf")])
    def test_non_finite_cardinality_rejected(self, generator, bogus):
        with pytest.raises(PlanValidationError, match="non-finite cardinality"):
            check_finite(self._two_way_plan(generator, cardinality=bogus))

    def test_poison_deep_in_the_tree_is_found(self, generator):
        query = generator.generate("chain", 3)
        provider = StatisticsProvider(query)
        poisoned = JoinNode(
            LeafNode(0, query.catalog.cardinality(0)),
            LeafNode(1, query.catalog.cardinality(1)),
            provider.cardinality(0b011),
            float("nan"),
        )
        plan = JoinNode(
            poisoned,
            LeafNode(2, query.catalog.cardinality(2)),
            provider.cardinality(0b111),
            1.0,
        )
        with pytest.raises(PlanValidationError, match="non-finite cost"):
            check_finite(plan)


class TestRecomputeCost:
    @given(query=small_queries(max_n=6))
    def test_matches_stored_costs_for_real_plans(self, query):
        result = optimize(query, pruning="none")
        provider = StatisticsProvider(query)
        recomputed = recompute_cost(result.plan, provider, HaasCostModel())
        assert recomputed == pytest.approx(result.cost, rel=1e-9)

    def test_leaf_costs_zero(self, small_query):
        provider = StatisticsProvider(small_query)
        leaf = LeafNode(0, small_query.catalog.cardinality(0))
        assert recompute_cost(leaf, provider, HaasCostModel()) == 0.0


def _leaf(query, relation):
    return LeafNode(relation, query.catalog.cardinality(relation))


def _join(provider, left, right, operator_cost=1.0):
    return JoinNode(
        left,
        right,
        provider.cardinality(left.vertex_set | right.vertex_set),
        operator_cost,
    )


def _message(call, *args):
    with pytest.raises(PlanValidationError) as raised:
        call(*args)
    return str(raised.value)


class TestExactMessages:
    """Every check, broken on its own, raises its message verbatim.

    Each test breaks one node of the valid plan ``((R0 R1) R2)`` over a
    3-chain, so the check under test is the first to fire and the
    assertion pins both its text and the order of the checks before it.
    """

    @pytest.fixture
    def query(self, generator):
        return generator.generate("chain", 3)

    @pytest.fixture
    def provider(self, query):
        return StatisticsProvider(query)

    @pytest.fixture
    def plan(self, query, provider):
        inner = _join(provider, _leaf(query, 0), _leaf(query, 1))
        return _join(provider, inner, _leaf(query, 2))

    def test_cover(self, query, plan):
        assert _message(validate_plan, plan.left, query) == (
            "plan does not cover exactly the query's relations: "
            "{R0, R1} != {R0, R1, R2}"
        )

    def test_duplicate_relation(self, query, plan):
        plan.left.right = _leaf(query, 0)
        assert _message(validate_plan, plan, query) == (
            "relation R0 appears more than once in the plan"
        )

    def test_leaf_cardinality(self, query, plan):
        catalog = query.catalog.cardinality(0)
        plan.left.left = LeafNode(0, catalog + 1)
        assert _message(validate_plan, plan, query) == (
            f"leaf R0 carries cardinality {catalog + 1}, catalog says {catalog}"
        )

    def test_leaf_cost(self, query, plan):
        plan.left.left.cost = 5.0
        assert _message(validate_plan, plan, query) == (
            "leaf nodes must have zero cost"
        )

    def test_overlap(self, query, plan):
        plan.left.vertex_set = 0b111
        assert _message(validate_plan, plan, query) == (
            "join inputs overlap at {R0, R1, R2}"
        )

    def test_union(self, query, plan):
        plan.left.vertex_set = 0b001
        assert _message(validate_plan, plan, query) == (
            "join vertex set is not the union of its inputs at {R0, R1, R2}"
        )

    def test_left_disconnected(self, query, provider):
        outer = _join(provider, _leaf(query, 0), _leaf(query, 2))
        plan = _join(provider, outer, _leaf(query, 1))
        assert _message(validate_plan, plan, query) == (
            "left input {R0, R2} is disconnected"
        )

    def test_right_disconnected(self, query, provider):
        inner = _join(provider, _leaf(query, 0), _leaf(query, 2))
        plan = _join(provider, _leaf(query, 1), inner)
        assert _message(validate_plan, plan, query) == (
            "right input {R0, R2} is disconnected"
        )

    def test_cross_product(self, query, provider):
        # A parent's connectivity check always fires before a cross
        # product below it can be seen, so the walk is driven on the
        # offending subtree itself.
        cross = _join(provider, _leaf(query, 0), _leaf(query, 2))
        assert _message(_check_nodes, *_preorder(cross), query, provider) == (
            "cross product at {R0, R2}: no join edge between the inputs"
        )

    def test_cardinality_mismatch(self, query, provider, plan):
        expected = provider.cardinality(0b011)
        plan.left.cardinality = expected * 2
        assert _message(validate_plan, plan, query) == (
            f"cardinality mismatch at {{R0, R1}}: plan says {expected * 2}, "
            f"estimator says {expected}"
        )

    def test_cost_mismatch(self, query, provider):
        inner = _join(provider, _leaf(query, 0), _leaf(query, 1))
        plan = _join(provider, inner, _leaf(query, 2), operator_cost=123456.0)
        recomputed = recompute_cost(plan, provider, HaasCostModel())
        assert _message(validate_plan, plan, query, HaasCostModel()) == (
            f"plan cost {plan.cost!r} does not match recomputation "
            f"{recomputed!r}"
        )

    @pytest.mark.parametrize(
        "attribute, value, expected",
        [
            ("cost", float("nan"), "non-finite cost nan at {R0, R1}"),
            ("cost", float("inf"), "non-finite cost inf at {R0, R1}"),
            ("cost", -5.0, "negative cost -5.0 at {R0, R1}"),
            ("cardinality", float("nan"), "non-finite cardinality nan at {R0, R1}"),
            ("cardinality", -2.0, "negative cardinality -2.0 at {R0, R1}"),
        ],
    )
    def test_check_finite(self, plan, attribute, value, expected):
        setattr(plan.left, attribute, value)
        assert _message(check_finite, plan) == expected


class TestValidPlansFormatNothing:
    """A plan that passes builds no message: ``format_set`` never runs."""

    @pytest.mark.parametrize(
        "family, n",
        [("chain", 9), ("cycle", 8), ("star", 7), ("clique", 6),
         ("acyclic", 9), ("cyclic", 8)],
    )
    def test_valid_plan_of_every_family(self, generator, monkeypatch, family, n):
        query = generator.generate(family, n)
        plan = optimize(query).plan

        def refuse(*args, **kwargs):
            raise AssertionError("format_set called while validating a valid plan")

        monkeypatch.setattr(bitset, "format_set", refuse)
        check_finite(plan)
        validate_plan(plan, query)
        validate_plan(plan, query, HaasCostModel())
