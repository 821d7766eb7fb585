"""Join trees (§II-A).

A join tree is a binary tree whose leaves are base relations and whose
inner nodes are two-way joins.  Trees are immutable; the accumulated cost
(sum of all operator costs below and including a node) is stored on every
node so plan comparison is O(1).

Leaves carry cost zero: the Haas et al. operator formulas charge reading
both inputs to the join itself, so a scan has no separate cost.
"""

from __future__ import annotations

from typing import Iterator, List, Sequence

from repro.graph import bitset

__all__ = [
    "JoinTree",
    "LeafNode",
    "JoinNode",
    "plan_fingerprint",
    "join_fingerprint",
]


def plan_fingerprint(tree: "JoinTree") -> str:
    """Canonical structural identity of a join tree.

    Built from relation indices and parenthesis structure only —
    ``"(0.(1.2))"`` — so it is independent of relation names, costs,
    cardinalities and any floating-point state, and identical across
    processes for structurally identical plans.  The memotable uses it as
    the second component of its (cost, fingerprint) total order, making
    exact-cost tie-breaks deterministic regardless of insertion order.

    Trees are immutable, so the fingerprint is computed once per node and
    cached; a join's fingerprint composes its children's cached strings,
    which makes repeated tie-breaks over shared subtrees O(1) amortized
    instead of O(tree size) per comparison (cost models with many exact
    ties — ``C_out`` on symmetric graphs — hit this hard).
    """
    cached = tree._fingerprint
    if cached is not None:
        return cached
    if isinstance(tree, LeafNode):
        fingerprint = str(tree.relation)
    else:
        fingerprint = join_fingerprint(
            plan_fingerprint(tree.left), plan_fingerprint(tree.right)
        )
    tree._fingerprint = fingerprint
    return fingerprint


def join_fingerprint(outer: str, inner: str) -> str:
    """The fingerprint of a join of two trees with these fingerprints.

    For the two orders of one ccp, ``join_fingerprint(a, b) <
    join_fingerprint(b, a)`` exactly when ``a < b``: the two strings first
    differ where ``a`` and ``b`` do, unless one is a prefix of the other —
    which disjoint trees allow only for leaves (``"1"``, ``"12"``), and
    there ``"."`` sorts below every digit.  So the cheaper order of a cost
    tie is found from the two inputs' fingerprints, with no join built.
    """
    return "(" + outer + "." + inner + ")"


class JoinTree:
    """Common interface of leaf and join nodes.

    Each subclass sets every slot in its own ``__init__``, with no call up
    to this class: a cache hit builds a tree's nodes twice (the clone,
    then the replay).  ``_fingerprint`` starts as ``None`` and is filled
    lazily by :func:`plan_fingerprint`; structural identity never changes
    after construction.
    """

    __slots__ = ("vertex_set", "cost", "cardinality", "_fingerprint")

    # -- structure ------------------------------------------------------

    def leaves(self) -> Iterator["LeafNode"]:
        """Yield leaf nodes left-to-right."""
        raise NotImplementedError

    def n_joins(self) -> int:
        """Number of join operators in the tree."""
        raise NotImplementedError

    def depth(self) -> int:
        """Height of the tree (a leaf has depth 0)."""
        raise NotImplementedError

    def relation_indices(self) -> List[int]:
        """Relation indices in left-to-right leaf order."""
        return [leaf.relation for leaf in self.leaves()]

    def relabel(self, mapping: Sequence[int]) -> "JoinTree":
        """Rename every leaf's relation index through ``mapping``."""
        raise NotImplementedError

    # -- rendering -------------------------------------------------------

    def explain(self, indent: int = 0) -> str:
        """Multi-line operator-tree rendering (EXPLAIN-style)."""
        raise NotImplementedError

    def sexpr(self) -> str:
        """Compact one-line rendering, e.g. ``((R0 x R1) x R2)``."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(set={bitset.format_set(self.vertex_set)}, "
            f"cost={self.cost:.4g}, card={self.cardinality:.4g})"
        )


class LeafNode(JoinTree):
    """A base-relation scan."""

    __slots__ = ("relation", "name")

    def __init__(self, relation: int, cardinality: float, name: str = ""):
        self.vertex_set = bitset.singleton(relation)
        self.cost = 0.0
        self.cardinality = cardinality
        self._fingerprint = None
        self.relation = relation
        self.name = name or f"R{relation}"

    def leaves(self) -> Iterator["LeafNode"]:
        yield self

    def n_joins(self) -> int:
        return 0

    def depth(self) -> int:
        return 0

    def relabel(self, mapping: Sequence[int]) -> "LeafNode":
        return LeafNode(mapping[self.relation], self.cardinality, self.name)

    def explain(self, indent: int = 0) -> str:
        return f"{'  ' * indent}Scan {self.name}  (card={self.cardinality:.6g})"

    def sexpr(self) -> str:
        return self.name


class JoinNode(JoinTree):
    """A two-way join of two disjoint subtrees; left is the outer input."""

    __slots__ = ("left", "right", "operator_cost")

    def __init__(
        self,
        left: JoinTree,
        right: JoinTree,
        cardinality: float,
        operator_cost: float,
    ):
        left_set = left.vertex_set
        right_set = right.vertex_set
        if left_set & right_set:
            raise ValueError("join inputs must be disjoint vertex sets")
        self.vertex_set = left_set | right_set
        self.cost = left.cost + right.cost + operator_cost
        self.cardinality = cardinality
        self._fingerprint = None
        self.left = left
        self.right = right
        self.operator_cost = operator_cost

    def leaves(self) -> Iterator[LeafNode]:
        yield from self.left.leaves()
        yield from self.right.leaves()

    def n_joins(self) -> int:
        return 1 + self.left.n_joins() + self.right.n_joins()

    def depth(self) -> int:
        return 1 + max(self.left.depth(), self.right.depth())

    def relabel(self, mapping: Sequence[int]) -> "JoinNode":
        return JoinNode(
            self.left.relabel(mapping),
            self.right.relabel(mapping),
            self.cardinality,
            self.operator_cost,
        )

    def explain(self, indent: int = 0) -> str:
        pad = "  " * indent
        lines = [
            f"{pad}Join {bitset.format_set(self.vertex_set)}  "
            f"(card={self.cardinality:.6g}, op_cost={self.operator_cost:.6g}, "
            f"total={self.cost:.6g})"
        ]
        lines.append(self.left.explain(indent + 1))
        lines.append(self.right.explain(indent + 1))
        return "\n".join(lines)

    def sexpr(self) -> str:
        return f"({self.left.sexpr()} x {self.right.sexpr()})"
