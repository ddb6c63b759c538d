"""Fused local evaluation of a partial plan over per-task slices.

Every distributed fused operator (CFO, BFO, RFO, cell, multi-aggregation)
ultimately runs the same thing inside a task: the partial plan's operator
chain applied to *slices* of the input matrices, with no intermediate
materialization between operators.  This module is that task body, once.

A plan is compiled — once per ``(root, bound-node set)``, kept with the plan
through :meth:`PartialFusionPlan.derived` — into a flat *slab program*: a
topologically ordered tuple of ``(kernel, operand slots, out slot)`` steps.
One loop runs it over raw payloads.  A step whose operands are all dense
calls the numpy function directly and tallies its flops from shapes; a step
with a sparse operand goes through the :class:`Block` kernel and its
``*_flops`` estimator, so dense/sparse dispatch and flop counting stay those
of the rest of the library.  Only the value that leaves the task becomes a
``Block``; the intermediates live in the call's slot list and die with it,
by refcount.

The masked (SDDMM) path realises the paper's sparsity exploitation: when a
sparse element-wise multiplication masks the main product, only the masked
cells are ever computed.  A masked task works on one canonical CSR pattern of
its mask: the product, its k-partials and every O-space operand are data
vectors aligned with the pattern, and the O-space chain runs as the same
program over those vectors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, FrozenSet, NamedTuple, Optional, Tuple

import numpy as np

from repro.blocks import (
    Block, aggregate, binary, binary_flops, matmul, matmul_flops, sddmm,
    sddmm_flops, unary, unary_flops,
)
from repro.blocks.kernels import (
    AGGREGATION_KERNELS, BINARY_KERNELS, UNARY_KERNELS, aggregate_flops,
    nonzero_on_pattern, nonzero_pattern, on_pattern, values_on,
)
from repro.core.plan import PartialFusionPlan
from repro.core.spaces import SparsityMask
from repro.errors import ExecutionError, MatrixShapeError, PlanError
from repro.lang.dag import (
    AggNode, BinaryNode, MatMulNode, Node, TransposeNode, UnaryNode,
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


# ---------------------------------------------------------------------------
# the slab program
# ---------------------------------------------------------------------------

#: Step opcodes, one per operator node type; a binary operator over a scalar
#: (``_SCALAR``) reads the scalar from a constant slot.
_UNARY, _BINARY, _SCALAR, _MATMUL, _TRANSPOSE, _AGG = range(6)
_ELEMENTWISE = (_UNARY, _BINARY, _SCALAR)
#: Node type -> (opcode, kernel table whose ``fn`` the dense path calls).
_OPCODES = {
    UnaryNode: (_UNARY, UNARY_KERNELS),
    BinaryNode: (_BINARY, BINARY_KERNELS),
    MatMulNode: (_MATMUL, None),
    TransposeNode: (_TRANSPOSE, None),
    AggNode: (_AGG, AGGREGATION_KERNELS),
}
_UNBOUND: FrozenSet[int] = frozenset()


class _Step(NamedTuple):
    """``slots[out] = node's kernel(*slots[ins])``."""

    op: int
    node: Node
    fn: Optional[Callable]
    ins: Tuple[int, ...]
    out: int


class _SlabProgram(NamedTuple):
    """A compiled task body: the loads fill a copy of *slots* (scalar
    constants, ``None`` elsewhere), the steps run in order, *out* is read."""

    slots: Tuple[object, ...]
    bound_loads: Tuple[Tuple[int, int], ...]  # (slot, bound node id)
    edge_loads: Tuple[Tuple[int, Edge], ...]  # (slot, frontier edge)
    steps: Tuple[_Step, ...]
    out: int


def _program(
    plan: PartialFusionPlan, root: Node, bound: FrozenSet[int]
) -> _SlabProgram:
    return plan.derived(
        ("slab_program", root.node_id, bound),
        partial(_compile, plan, root, bound),
    )


def _compile(
    plan: PartialFusionPlan, root: Node, bound: FrozenSet[int]
) -> _SlabProgram:
    """Lower the sub-plan under *root* to a slab program.

    A node whose id is in *bound* is loaded, never evaluated, and nothing is
    reached through it: a pre-bound value wins over both evaluation and a
    frontier edge.
    """
    nodes = plan.nodes
    if root.node_id not in bound and root not in nodes:
        raise PlanError(
            f"unbound frontier node {root!r} reached without an edge lookup"
        )
    needed = set() if root.node_id in bound else {root}
    topo = plan.topo_nodes()
    for node in reversed(topo):
        if node in needed:
            needed.update(
                c for c in node.inputs if c in nodes and c.node_id not in bound
            )
    slots: list = []
    slot_of: Dict[object, int] = {}
    bound_loads: list = []
    edge_loads: list = []
    steps = []
    for node in topo:
        if node not in needed:
            continue
        ins = []
        for index, child in enumerate(node.inputs):
            is_bound = child.node_id in bound
            key = child.node_id if is_bound or child in nodes else (node, index)
            if key not in slot_of:  # a load: fused children are steps above
                slot_of[key] = len(slots)
                slots.append(None)
                (bound_loads if is_bound else edge_loads).append((len(slots) - 1, key))
            ins.append(slot_of[key])
        try:
            op, kernels = _OPCODES[type(node)]
        except KeyError:
            raise PlanError(
                f"cannot evaluate node type {type(node).__name__}"
            ) from None
        if op == _BINARY and node.has_scalar:
            op = _SCALAR
            ins.insert(0 if node.scalar_on_left else 1, len(slots))
            slots.append(node.scalar)
        fn = kernels[node.kernel].fn if kernels else None
        slot_of[node.node_id] = len(slots)
        slots.append(None)
        steps.append(_Step(op, node, fn, tuple(ins), slot_of[node.node_id]))
    if root.node_id not in slot_of:  # the root itself is bound
        slot_of[root.node_id] = len(slots)
        slots.append(None)
        bound_loads.append((len(slots) - 1, root.node_id))
    return _SlabProgram(
        tuple(slots), tuple(bound_loads), tuple(edge_loads), tuple(steps),
        slot_of[root.node_id],
    )


def _run(program: _SlabProgram, slots: list) -> tuple[object, int]:
    """Run *program* over loaded *slots*; return the out value and flops.

    A slot holds a dense value as its bare ``ndarray`` and anything else (a
    sparse slice, a Block-kernel result) as a :class:`Block`.
    """
    flops = 0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for step in program.steps:
            args = [slots[i] for i in step.ins]
            if Block in map(type, args):
                value, cost = _block_step(step, args)
            else:
                value, cost = _dense_step(step, args)
            slots[step.out] = value
            flops += cost
    return slots[program.out], flops


def _dense_step(step: _Step, args: list) -> tuple[np.ndarray, int]:
    """One step on bare arrays: the very numpy call the Block kernel makes
    on dense operands, with the flops its estimator charges them."""
    op, a = step.op, args[0]
    if op == _MATMUL:
        b = args[1]
        if a.shape[1] != b.shape[0]:
            raise MatrixShapeError(
                f"cannot multiply {a.shape} by {b.shape}: inner dimensions differ"
            )
        return a @ b, 2 * a.shape[0] * a.shape[1] * b.shape[1]
    if op == _BINARY and a.shape != args[1].shape:
        raise MatrixShapeError(
            f"binary operands must match: {a.shape} vs {args[1].shape}"
        )
    if op == _TRANSPOSE:
        return np.ascontiguousarray(a.T), a.size
    value = step.fn(*args)
    # the operand's size: an aggregation's output is smaller, and a scalar
    # may come first
    return value, (value if op == _SCALAR else a).size


def _block_step(step: _Step, args: list) -> tuple[Block, int]:
    """One step through the Block kernels (some operand is sparse)."""
    args = [Block(x) if type(x) is np.ndarray else x for x in args]
    op, a = step.op, args[0]
    if op == _UNARY:
        return unary(step.node.kernel, a), unary_flops(step.node.kernel, a)
    if op == _BINARY or op == _SCALAR:
        name = step.node.kernel
        return binary(name, *args), binary_flops(name, *args)
    if op == _MATMUL:
        return matmul(*args), matmul_flops(*args)
    if op == _TRANSPOSE:
        return a.transpose(), a.nnz if a.is_sparse else a.shape[0] * a.shape[1]
    return aggregate(step.node.kernel, a), aggregate_flops(step.node.kernel, a)


def evaluate_slice(
    plan: PartialFusionPlan,
    env: SliceEnv,
    root: Optional[Node] = None,
) -> Block:
    """Evaluate the plan (or the sub-plan rooted at *root*) on slice bindings.

    Intermediates flow step-to-step as bare payloads and are never
    "materialized" in the distributed sense.  Flops accumulate on *env*.
    """
    root = root if root is not None else plan.root
    bound = env.bound_nodes
    if bound:
        value = bound.get(root.node_id)
        if value is not None:
            return value
        program = _program(plan, root, frozenset(bound))
    else:
        program = _program(plan, root, _UNBOUND)
    slots = list(program.slots)
    for slot, node_id in program.bound_loads:
        block = bound[node_id]
        slots[slot] = block if block.is_sparse else block.data
    frontier = env.frontier
    for slot, edge in program.edge_loads:
        block = frontier.get(edge)
        if block is None:
            raise ExecutionError(
                f"no slice bound for operand {edge[1]} of {edge[0]!r}"
            )
        slots[slot] = block if block.is_sparse else block.data
    value, flops = _run(program, slots)
    env.flops += flops
    return value if type(value) is Block else Block(value)


# ---------------------------------------------------------------------------
# masked (SDDMM) evaluation — sparsity exploitation
# ---------------------------------------------------------------------------


class MaskPattern(NamedTuple):
    """A task's mask on its canonical CSR pattern, and the flops it cost."""

    mask: Block
    flops: int


def mask_pattern(
    plan: PartialFusionPlan, env: SliceEnv, mask: SparsityMask
) -> MaskPattern:
    """The non-zeros of the mask-side expression on this task's slices.

    These are the only output cells of the main product that can survive the
    masking multiplication — everything else is skipped entirely.
    """
    before = env.flops
    block = _eval_operand(plan, env, mask.mask_mul, mask.mask_operand_index).to_sparse()
    csr = nonzero_pattern(block.data)
    return MaskPattern(block if csr is block.data else Block(csr), env.flops - before)


def masked_product(
    plan: PartialFusionPlan, env: SliceEnv, mm: MatMulNode, pattern: MaskPattern
) -> Block:
    """The main product computed only at the masked cells, via SDDMM.

    L- and R-space (everything under ``mm``) evaluate as usual on this task's
    slices; the multiplication itself touches only the pattern's cells and
    stores its values on the pattern.
    """
    left = _eval_operand(plan, env, mm, 0)
    right = _eval_operand(plan, env, mm, 1)
    env.flops += sddmm_flops(pattern.mask, left, right)
    return sddmm(pattern.mask, left, right)


def finish_masked(
    plan: PartialFusionPlan,
    env: SliceEnv,
    mm: MatMulNode,
    product: Block,
    pattern: MaskPattern,
) -> Block:
    """Apply the O-space operator chain at the masked cells only.

    ``product`` is the (possibly k-aggregated) masked main product.  It and
    every frontier slice are read as vectors aligned with the mask's pattern
    (:func:`~repro.blocks.kernels.values_on`), and the element-wise O-space
    chain runs over them: it is the chain's slab program with the main
    product bound.  The result is a sparse tile on the pattern with its
    zeros dropped, or its aggregate when the plan root is an aggregation.
    """
    csr = pattern.mask.data
    is_agg = isinstance(plan.root, AggNode)
    chain = plan.root.inputs[0] if is_agg else plan.root
    program = _program(plan, chain, frozenset((mm.node_id,)))
    for step in program.steps:
        if step.op not in _ELEMENTWISE:
            raise PlanError(f"masked evaluation cannot handle "
                            f"{type(step.node).__name__} in O-space")
    slots = list(program.slots)
    for slot, _ in program.bound_loads:
        slots[slot] = values_on(product, csr)
    for slot, edge in program.edge_loads:
        slots[slot] = values_on(env.frontier[edge], csr)
    out_vals, flops = _run(program, slots)
    env.flops += flops
    if not is_agg:
        return nonzero_on_pattern(csr, out_vals)
    env.flops += csr.nnz
    return aggregate(plan.root.kernel, Block(on_pattern(csr, out_vals)))


def evaluate_masked_slice(
    plan: PartialFusionPlan, env: SliceEnv, mm: MatMulNode, mask: SparsityMask
) -> Block:
    """Single-pass sparsity-exploiting evaluation (used when ``R == 1``)."""
    pattern = mask_pattern(plan, env, mask)
    product = masked_product(plan, env, mm, pattern)
    return finish_masked(plan, env, mm, product, pattern)


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
