"""Algebraic plan rewrites applied before fusion planning.

A small, conservative set (the paper inherits SystemML's rewrites; we keep the
ones that matter for its queries):

* double transpose elimination: ``(A^T)^T -> A``
* transpose-of-matmul distribution is *not* applied (it changes the MM-space
  orientation the planner reasons about); only identity-level cleanups run.
* scalar chain folding: ``(A + c1) + c2 -> A + (c1 + c2)`` for associative
  kernels with scalars on the same side.
"""

from __future__ import annotations

from typing import Dict

from repro.lang.dag import (
    AggNode,
    BinaryNode,
    DAG,
    InputNode,
    MatMulNode,
    Node,
    TransposeNode,
    UnaryNode,
)

_FOLDABLE = {"add": lambda a, b: a + b, "mul": lambda a, b: a * b}


def simplify_dag(dag: DAG) -> DAG:
    """Return an equivalent DAG with the standard cleanups applied."""
    rebuilt: Dict[int, Node] = {}
    for node in dag.nodes():
        rebuilt[node.node_id] = _rewrite(
            node, [rebuilt[c.node_id] for c in node.inputs]
        )
    return DAG([rebuilt[root.node_id] for root in dag.roots])


def _rewrite(node: Node, children: list[Node]) -> Node:
    if isinstance(node, InputNode):
        return node
    if isinstance(node, TransposeNode):
        child = children[0]
        if isinstance(child, TransposeNode):
            return child.inputs[0]  # (A^T)^T -> A
        return TransposeNode(child)
    if isinstance(node, UnaryNode):
        return UnaryNode(node.kernel, children[0])
    if isinstance(node, BinaryNode):
        if node.has_scalar:
            child = children[0]
            folded = _fold_scalar_chain(node, child)
            if folded is not None:
                return folded
            left = None if node.scalar_on_left else child
            right = child if node.scalar_on_left else None
            return BinaryNode(node.kernel, left, right, scalar=node.scalar)
        return BinaryNode(node.kernel, children[0], children[1])
    if isinstance(node, AggNode):
        return AggNode(node.kernel, children[0])
    if isinstance(node, MatMulNode):
        return MatMulNode(children[0], children[1])
    raise TypeError(f"unknown node type {type(node).__name__}")


def _fold_scalar_chain(node: BinaryNode, child: Node) -> Node | None:
    """Fold ``(A op c1) op c2`` for associative-commutative scalar ops."""
    fold = _FOLDABLE.get(node.kernel)
    if fold is None:
        return None
    if not (
        isinstance(child, BinaryNode)
        and child.has_scalar
        and child.kernel == node.kernel
    ):
        return None
    inner = child.inputs[0]
    merged = fold(child.scalar, node.scalar)
    return BinaryNode(node.kernel, inner, None, scalar=merged)
