"""Single-node numpy reference interpreter.

Evaluates any DAG node against dense numpy bindings.  Every distributed
execution path in the library is tested against this interpreter, so fusion
never changes results — only cost.  The environment may bind *any* node id,
not just inputs, which lets partial fusion plans be evaluated with their
frontier (the outputs of other plans) pre-bound.
"""

from __future__ import annotations

from typing import Dict, Mapping, Sequence, Union

import numpy as np

from repro.blocks.kernels import AGGREGATION_KERNELS, BINARY_KERNELS, UNARY_KERNELS
from repro.errors import PlanError
from repro.lang.dag import (
    AggNode,
    BinaryNode,
    InputNode,
    MatMulNode,
    Node,
    TransposeNode,
    UnaryNode,
    post_order,
)

Bindings = Mapping[Union[str, int], np.ndarray]


def _lookup(node: Node, env: Bindings) -> np.ndarray | None:
    """A binding for *node*: by node id first, then by input name."""
    if node.node_id in env:
        return np.asarray(env[node.node_id], dtype=np.float64)
    if isinstance(node, InputNode) and node.name in env:
        return np.asarray(env[node.name], dtype=np.float64)
    return None


def evaluate(root: Node, env: Bindings) -> np.ndarray:
    """Evaluate *root* bottom-up with memoization.

    Parameters
    ----------
    root:
        Any DAG node.
    env:
        Bindings from input name (or node id for arbitrary frontier nodes)
        to dense arrays.
    """
    return evaluate_many((root,), env)[0]


def evaluate_many(roots: Sequence[Node], env: Bindings) -> list[np.ndarray]:
    """Evaluate several roots sharing one memo table (multi-output plans).

    One iterative post-order walk that stops at bound nodes: the memo of
    dense intermediates is freed by refcount when this returns, and a
    plan's depth is not limited by the recursion limit.
    """
    memo: Dict[int, np.ndarray] = {}

    def bound(node: Node) -> bool:
        value = _lookup(node, env)
        if value is not None:
            memo[node.node_id] = value
        return value is not None

    for node in post_order(roots, stop=bound):
        if node.node_id not in memo:
            memo[node.node_id] = _apply(
                node, [memo[child.node_id] for child in node.inputs]
            )
    return [memo[root.node_id] for root in roots]


def _apply(node: Node, args: list[np.ndarray]) -> np.ndarray:
    """Apply one operator to already-evaluated dense operands."""
    if isinstance(node, InputNode):
        raise PlanError(f"input {node.name!r} has no binding")
    if isinstance(node, UnaryNode):
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            return UNARY_KERNELS[node.kernel].fn(args[0])
    if isinstance(node, BinaryNode):
        fn = BINARY_KERNELS[node.kernel].fn
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            if node.has_scalar:
                if node.scalar_on_left:
                    return fn(node.scalar, args[0])
                return fn(args[0], node.scalar)
            return fn(args[0], args[1])
    if isinstance(node, AggNode):
        return AGGREGATION_KERNELS[node.kernel].fn(args[0])
    if isinstance(node, MatMulNode):
        return args[0] @ args[1]
    if isinstance(node, TransposeNode):
        return args[0].T
    raise PlanError(f"cannot evaluate node type {type(node).__name__}")
