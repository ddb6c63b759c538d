"""Fused local evaluation of a partial plan over per-task slices.

Every distributed fused operator (CFO, BFO, RFO) ultimately runs the same
thing inside a task: the partial plan's operator chain applied to *slices* of
the input matrices, with no intermediate materialization between operators.
This module implements that local execution once, on :class:`Block` payloads
(so dense/sparse dispatch and flop counting stay consistent with the rest of
the library), plus the masked (SDDMM) evaluation path that realises the
paper's sparsity exploitation: when a sparse element-wise multiplication
masks the main product, only the masked cells are ever computed, as 1-D
gathered vectors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from repro.blocks import (
    Block,
    aggregate,
    binary,
    binary_flops,
    matmul,
    matmul_flops,
    sddmm,
    sddmm_flops,
    unary,
    unary_flops,
)
from repro.blocks.kernels import (
    BINARY_KERNELS,
    UNARY_KERNELS,
    aggregate_flops,
)
from repro.core.plan import PartialFusionPlan
from repro.core.spaces import SparsityMask
from repro.errors import ExecutionError, PlanError
from repro.lang.dag import (
    AggNode,
    BinaryNode,
    MatMulNode,
    Node,
    TransposeNode,
    UnaryNode,
)

#: A frontier consumption point bound to this task's slice of the input.
Edge = Tuple[Node, int]


@dataclass
class SliceEnv:
    """Per-task bindings: frontier edges to block slices, plus an optional
    pre-computed value for one plan node (the aggregated main product)."""

    frontier: Dict[Edge, Block]
    bound_nodes: Dict[int, Block] = field(default_factory=dict)
    flops: int = 0

    def bind_node(self, node: Node, value: Block) -> None:
        self.bound_nodes[node.node_id] = value


def evaluate_slice(
    plan: PartialFusionPlan,
    env: SliceEnv,
    root: Optional[Node] = None,
) -> Block:
    """Evaluate the plan (or the sub-plan rooted at *root*) on slice bindings.

    Intermediates flow operator-to-operator as in-memory blocks and are never
    "materialized" in the distributed sense.  Flops accumulate on *env*.
    """
    root = root if root is not None else plan.root
    sources = plan.operand_sources()
    frontier = env.frontier
    # pre-bound values (the aggregated main product) win over evaluation;
    # seeding the memo with them leaves the common nothing-bound case with
    # no per-node probe
    bound = env.bound_nodes
    memo: Dict[int, Block] = dict(bound) if bound else {}

    def rec(node: Node) -> Block:
        node_id = node.node_id
        cached = memo.get(node_id)
        if cached is not None:
            return cached
        children = sources.get(node_id)
        if children is None:
            raise PlanError(
                f"unbound frontier node {node!r} reached without an edge lookup"
            )
        operands: list[Block] = []
        for idx, child in enumerate(children):
            if child is not None:
                operands.append(rec(child))
                continue
            value = bound.get(node.inputs[idx].node_id) if bound else None
            if value is None:
                try:
                    value = frontier[(node, idx)]
                except KeyError:
                    raise ExecutionError(
                        f"no slice bound for operand {idx} of {node!r}"
                    ) from None
            operands.append(value)
        result = _apply(node, operands, env)
        memo[node_id] = result
        return result

    return rec(root)


def _apply(node: Node, operands: list[Block], env: SliceEnv) -> Block:
    if isinstance(node, UnaryNode):
        env.flops += unary_flops(node.kernel, operands[0])
        return unary(node.kernel, operands[0])
    if isinstance(node, BinaryNode):
        if node.has_scalar:
            if node.scalar_on_left:
                env.flops += binary_flops(node.kernel, node.scalar, operands[0])
                return binary(node.kernel, node.scalar, operands[0])
            env.flops += binary_flops(node.kernel, operands[0], node.scalar)
            return binary(node.kernel, operands[0], node.scalar)
        env.flops += binary_flops(node.kernel, operands[0], operands[1])
        return binary(node.kernel, operands[0], operands[1])
    if isinstance(node, MatMulNode):
        env.flops += matmul_flops(operands[0], operands[1])
        return matmul(operands[0], operands[1])
    if isinstance(node, TransposeNode):
        env.flops += operands[0].nnz if operands[0].is_sparse else (
            operands[0].shape[0] * operands[0].shape[1]
        )
        return operands[0].transpose()
    if isinstance(node, AggNode):
        env.flops += aggregate_flops(node.kernel, operands[0])
        return aggregate(node.kernel, operands[0])
    raise PlanError(f"cannot evaluate node type {type(node).__name__}")


# ---------------------------------------------------------------------------
# masked (SDDMM) evaluation — sparsity exploitation
# ---------------------------------------------------------------------------


@dataclass
class MaskedResult:
    """Outcome of one masked evaluation over a task's tile."""

    value: Block
    positions: int


def mask_positions(
    plan: PartialFusionPlan, env: SliceEnv, mask: SparsityMask
) -> tuple[np.ndarray, np.ndarray]:
    """Non-zero positions of the mask-side expression on this task's slices.

    These are the only output cells of the main product that can survive the
    masking multiplication — everything else is skipped entirely.
    """
    mask_block = _eval_operand(plan, env, mask.mask_mul, mask.mask_operand_index)
    mask_csr = mask_block.to_sparse().data
    return mask_csr.nonzero()


def masked_product(
    plan: PartialFusionPlan,
    env: SliceEnv,
    mm: MatMulNode,
    rows: np.ndarray,
    cols: np.ndarray,
) -> Block:
    """The main product computed only at the masked cells, via SDDMM.

    L- and R-space (everything under ``mm``) evaluate as usual on this task's
    slices; the multiplication itself touches only ``len(rows)`` cells.
    """
    left = _eval_operand(plan, env, mm, 0)
    right = _eval_operand(plan, env, mm, 1)
    shape = (left.shape[0], right.shape[1])
    if rows.size == 0:
        return Block(sp.csr_matrix(shape))
    pattern = Block(sp.csr_matrix((np.ones(rows.size), (rows, cols)), shape=shape))
    env.flops += sddmm_flops(pattern, left, right)
    return sddmm(pattern, left, right)


def finish_masked(
    plan: PartialFusionPlan,
    env: SliceEnv,
    mm: MatMulNode,
    mask: SparsityMask,
    product: Block,
    tile_shape: tuple[int, int],
    positions: Optional[tuple[np.ndarray, np.ndarray]] = None,
) -> Block:
    """Apply the O-space operator chain at the masked cells only.

    ``product`` is the (possibly k-aggregated) masked main product.  Values
    are gathered to 1-D vectors at the mask positions, the element-wise
    O-space chain runs positionally, and the result scatters into a sparse
    output tile (or aggregates, when the plan root is an aggregation).
    """
    rows, cols = positions if positions is not None else mask_positions(plan, env, mask)
    if rows.size == 0:
        empty = Block(sp.csr_matrix(tile_shape))
        if isinstance(plan.root, AggNode):
            return aggregate(plan.root.kernel, empty)
        return empty
    product_vals = np.asarray(product.to_sparse().data[rows, cols]).ravel()
    gathered = _GatheredEvaluator(plan, env, mm, rows, cols, product_vals)
    out_vals = gathered.evaluate(plan.root, stop_before_agg=True)
    result = sp.csr_matrix((out_vals, (rows, cols)), shape=tile_shape)
    result.eliminate_zeros()
    if isinstance(plan.root, AggNode):
        env.flops += rows.size
        return aggregate(plan.root.kernel, Block(result))
    return Block(result)


def evaluate_masked_slice(
    plan: PartialFusionPlan,
    env: SliceEnv,
    mm: MatMulNode,
    mask: SparsityMask,
    tile_shape: tuple[int, int],
) -> Block:
    """Single-pass sparsity-exploiting evaluation (used when ``R == 1``)."""
    rows, cols = mask_positions(plan, env, mask)
    product = masked_product(plan, env, mm, rows, cols)
    return finish_masked(
        plan, env, mm, mask, product, tile_shape, positions=(rows, cols)
    )


def _eval_operand(
    plan: PartialFusionPlan, env: SliceEnv, consumer: Node, index: int
) -> Block:
    child = consumer.inputs[index]
    if child in plan.nodes:
        return evaluate_slice(plan, env, root=child)
    bound = env.bound_nodes.get(child.node_id)
    if bound is not None:
        return bound
    return env.frontier[(consumer, index)]


class _GatheredEvaluator:
    """Evaluates O-space operators on 1-D vectors gathered at mask positions.

    Element-wise operators apply positionally; transposes are identities
    because orientation was already resolved when the slice was gathered
    through its axis tag; the main product is pre-bound to the SDDMM values.
    """

    def __init__(
        self,
        plan: PartialFusionPlan,
        env: SliceEnv,
        mm: MatMulNode,
        rows: np.ndarray,
        cols: np.ndarray,
        product_vals: np.ndarray,
    ):
        self.plan = plan
        self.env = env
        self.mm = mm
        self.rows = rows
        self.cols = cols
        self.product_vals = product_vals
        self._memo: Dict[int, np.ndarray] = {}

    def evaluate(self, node: Node, stop_before_agg: bool = False) -> np.ndarray:
        if isinstance(node, AggNode) and stop_before_agg:
            return self._rec_edge(node, 0)
        return self._rec(node)

    def _rec(self, node: Node) -> np.ndarray:
        if node is self.mm:
            return self.product_vals
        cached = self._memo.get(node.node_id)
        if cached is not None:
            return cached
        result = self._apply(node)
        self._memo[node.node_id] = result
        return result

    def _rec_edge(self, consumer: Node, index: int) -> np.ndarray:
        """Value of one operand, gathered to the mask positions."""
        child = consumer.inputs[index]
        if child is self.mm:
            return self.product_vals
        if child in self.plan.nodes:
            return self._rec(child)
        block = self.env.frontier[(consumer, index)]
        return self._gather(block)

    def _gather(self, block: Block) -> np.ndarray:
        if block.is_sparse:
            return np.asarray(block.data[self.rows, self.cols]).ravel()
        return block.data[self.rows, self.cols]

    def _apply(self, node: Node) -> np.ndarray:
        self.env.flops += self.rows.size
        if isinstance(node, UnaryNode):
            arg = self._rec_edge(node, 0)
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                return UNARY_KERNELS[node.kernel].fn(arg)
        if isinstance(node, BinaryNode):
            fn = BINARY_KERNELS[node.kernel].fn
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                if node.has_scalar:
                    arg = self._rec_edge(node, 0)
                    if node.scalar_on_left:
                        return fn(node.scalar, arg)
                    return fn(arg, node.scalar)
                return fn(self._rec_edge(node, 0), self._rec_edge(node, 1))
        raise PlanError(
            f"masked evaluation cannot handle {type(node).__name__} in O-space"
        )
