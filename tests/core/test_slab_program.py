"""Safety net for the compiled task body (the slab program).

Two layers, both over random DAGs of all five operator types — unary,
binary (matrix-matrix and with a scalar on either side), multiplication,
transpose and aggregation:

* **Oracle.**  The recursive walker ``evaluate_slice`` ran before slab
  programs existed is copied below, as is the gathered evaluator of the
  masked path.  On every generated plan, root and bound-node set, with each
  slice bound dense or sparse, the compiled program must return the same
  representation with bit-identical values and charge exactly the same
  flops.  The masked task as a whole (mask, SDDMM, k-aggregation, O-space
  finish) is held the same way to the COO-based path it replaced, copied
  below too.
* **End to end.**  All five engines, with graph passes off and on, execute
  the random DAG and must match :mod:`repro.lang.interpreter`.
"""

from __future__ import annotations

from functools import reduce
from typing import Dict

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import HealthCheck, assume, given, note, settings, strategies as st

from repro import (
    DistMELikeEngine,
    FuseMEEngine,
    LocalXLAEngine,
    MatFastLikeEngine,
    SystemDSLikeEngine,
)
from repro.blocks import (
    Block,
    aggregate,
    binary,
    binary_flops,
    matmul,
    matmul_flops,
    unary,
    unary_flops,
)
from repro.blocks.kernels import (
    AGGREGATION_KERNELS,
    BINARY_KERNELS,
    UNARY_KERNELS,
    aggregate_flops,
    on_pattern,
    pattern_rows,
    sddmm,
)
from repro.core.fused_eval import (
    _ELEMENTWISE,
    SliceEnv,
    _eval_operand,
    _program,
    _run,
    evaluate_masked_slice,
    evaluate_slice,
    finish_masked,
    mask_pattern,
    masked_product,
)
from repro.core.stages import add_blocks
from repro.core.plan import PartialFusionPlan
from repro.core.spaces import find_sparsity_mask, plan_layout
from repro.errors import ExecutionError, PlanError
from repro.lang import DAG, evaluate
from repro.lang.dag import (
    AggNode,
    BinaryNode,
    InputNode,
    MatMulNode,
    Node,
    TransposeNode,
    UnaryNode,
)
from repro.matrix import rand_dense, rand_sparse
from repro.matrix.meta import MatrixMeta

from tests.conftest import make_config

BS = 5
M, N, K = 10, 15, 5
X_DENSITY = 0.1

INPUTS = {
    "X": rand_sparse(M, N, X_DENSITY, BS, seed=1),
    "Y": rand_dense(M, N, BS, seed=2),
    "U": rand_dense(M, K, BS, seed=3),
    "V": rand_dense(N, K, BS, seed=4),
}
DENSE = {name: matrix.to_numpy() for name, matrix in INPUTS.items()}


def leaves() -> list[Node]:
    return [
        InputNode("X", MatrixMeta(M, N, BS, density=X_DENSITY)),
        InputNode("Y", MatrixMeta(M, N, BS)),
        InputNode("U", MatrixMeta(M, K, BS)),
        InputNode("V", MatrixMeta(N, K, BS)),
    ]


# ---------------------------------------------------------------------------
# random DAGs
# ---------------------------------------------------------------------------

#: Kernels the oracle draws from: all of them.
ORACLE_KERNELS = {
    "unary": sorted(UNARY_KERNELS),
    "binary": sorted(BINARY_KERNELS),
    "scalar": sorted(BINARY_KERNELS),
    "agg": sorted(AGGREGATION_KERNELS),
}
#: Kernels the end-to-end layer draws from: those whose result cannot turn
#: a last-bit difference (distributed sums add in another order) into a
#: different answer, and that keep values finite, so the sparse and dense
#: representations agree with the dense interpreter cell for cell.
E2E_KERNELS = {
    "unary": ["abs", "cos", "neg", "relu", "sigmoid", "sin", "sq", "tanh"],
    "binary": ["add", "max", "min", "mul", "sub"],
    "scalar": ["add", "mul", "sub"],
    "agg": sorted(AGGREGATION_KERNELS),
}
SCALARS = [0.0, 0.5, 2.0, -1.5]


@st.composite
def random_dags(draw, kernels=ORACLE_KERNELS, max_ops=7) -> Node:
    """A random operator DAG over the inputs; returns its root.

    Each step applies one operator to nodes drawn from the pool built so
    far (shapes permitting), so subexpressions are shared and the result is
    a DAG, not only a tree.
    """
    pool = leaves()
    for _ in range(draw(st.integers(1, max_ops))):
        a = draw(st.sampled_from(pool))
        kind = draw(st.sampled_from(
            ["unary", "binary", "scalar", "matmul", "transpose", "agg"]
        ))
        if kind == "unary":
            node = UnaryNode(draw(st.sampled_from(kernels["unary"])), a)
        elif kind == "binary":
            partners = [b for b in pool if b.meta.shape == a.meta.shape]
            b = draw(st.sampled_from(partners))
            node = BinaryNode(draw(st.sampled_from(kernels["binary"])), a, b)
        elif kind == "scalar":
            name = draw(st.sampled_from(kernels["scalar"]))
            scalar = draw(st.sampled_from(SCALARS))
            if draw(st.booleans()):
                node = BinaryNode(name, None, a, scalar=scalar)
            else:
                node = BinaryNode(name, a, None, scalar=scalar)
        elif kind == "matmul":
            partners = [b for b in pool if b.meta.rows == a.meta.cols]
            b = (draw(st.sampled_from(partners)) if partners
                 else TransposeNode(a))
            node = MatMulNode(a, b)
        elif kind == "transpose":
            node = TransposeNode(a)
        else:
            node = AggNode(draw(st.sampled_from(kernels["agg"])), a)
        pool.append(node)
    return pool[-1]


# ---------------------------------------------------------------------------
# the oracle: the recursive walker the slab program replaced, verbatim
# ---------------------------------------------------------------------------


def reference_walk(plan: PartialFusionPlan, env: SliceEnv, root: Node) -> Block:
    nodes = plan.nodes
    sources = {
        node.node_id: tuple(c if c in nodes else None for c in node.inputs)
        for node in nodes
    }
    frontier = env.frontier
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
        result = reference_apply(node, operands, env)
        memo[node_id] = result
        return result

    return rec(root)


def reference_apply(node: Node, operands: list[Block], env: SliceEnv) -> Block:
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


def reference_finish(plan, env, mm, rows, cols, product, tile_shape) -> Block:
    """The masked path's former O-space finish (gathered recursive walk)."""
    memo: Dict[int, np.ndarray] = {}
    product_vals = np.asarray(product.to_sparse().data[rows, cols]).ravel()

    def edge(consumer: Node, index: int) -> np.ndarray:
        child = consumer.inputs[index]
        if child is mm:
            return product_vals
        if child in plan.nodes:
            return node_value(child)
        block = env.frontier[(consumer, index)]
        if block.is_sparse:
            return np.asarray(block.data[rows, cols]).ravel()
        return block.data[rows, cols]

    def node_value(node: Node) -> np.ndarray:
        if node is mm:
            return product_vals
        if node.node_id not in memo:
            env.flops += rows.size
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                if isinstance(node, UnaryNode):
                    value = UNARY_KERNELS[node.kernel].fn(edge(node, 0))
                else:
                    assert isinstance(node, BinaryNode)
                    fn = BINARY_KERNELS[node.kernel].fn
                    if not node.has_scalar:
                        value = fn(edge(node, 0), edge(node, 1))
                    elif node.scalar_on_left:
                        value = fn(node.scalar, edge(node, 0))
                    else:
                        value = fn(edge(node, 0), node.scalar)
            memo[node.node_id] = value
        return memo[node.node_id]

    is_agg = isinstance(plan.root, AggNode)
    out_vals = edge(plan.root, 0) if is_agg else node_value(plan.root)
    result = sp.csr_matrix((out_vals, (rows, cols)), shape=tile_shape)
    result.eliminate_zeros()
    if is_agg:
        env.flops += rows.size
        return aggregate(plan.root.kernel, Block(result))
    return Block(result)


def as_block(value: np.ndarray, sparse: bool) -> Block:
    return Block(sp.csr_matrix(value)) if sparse else Block(value)


def assert_same_block(got: Block, want: Block) -> None:
    assert got.is_sparse == want.is_sparse
    assert got.shape == want.shape
    assert np.array_equal(got.to_numpy(), want.to_numpy(), equal_nan=True)


# ---------------------------------------------------------------------------
# oracle: plans, roots and bound sets
# ---------------------------------------------------------------------------


@st.composite
def slice_cases(draw):
    """A random plan, evaluation root and bound set, with a value and a
    representation (sparse or dense) for every frontier and bound node.

    A bound node's value is its true value times -2, so evaluating through
    a bound node instead of around it (or the reverse) changes the answer.
    """
    dag = DAG(draw(random_dags()))
    operators = [n for n in dag.nodes() if n.is_operator]
    plan_root = draw(st.sampled_from(operators))
    # the plan: the root's operator descendants, cut below a random few
    cut = set(draw(st.lists(st.sampled_from(operators), max_size=3)))
    members, stack = {plan_root}, [plan_root]
    while stack:
        for child in stack.pop().inputs:
            if child.is_operator and child not in cut and child not in members:
                members.add(child)
                stack.append(child)
    plan = PartialFusionPlan(members, dag)
    ordered = sorted(members, key=lambda n: n.node_id)
    root = draw(st.sampled_from(ordered))
    frontier_nodes = sorted(plan.frontier(), key=lambda n: n.node_id)
    bound = draw(st.lists(
        st.sampled_from(ordered + frontier_nodes), max_size=3, unique=True
    ))
    values = {}
    with np.errstate(all="ignore"):
        for kind, nodes, scale in (("edge", frontier_nodes, 1.0),
                                   ("bound", bound, -2.0)):
            for node in nodes:
                value = np.asarray(evaluate(node, DENSE), dtype=np.float64)
                values[(kind, node.node_id)] = scale * value.reshape(node.meta.shape)
    sparse = draw(st.lists(
        st.booleans(), min_size=len(values), max_size=len(values)
    ))
    return plan, root, bound, values, dict(zip(values, sparse))


def bind(plan, bound, values, sparse) -> SliceEnv:
    def block(kind, node):
        key = (kind, node.node_id)
        return as_block(values[key], sparse[key])

    env = SliceEnv(frontier={
        (node, index): block("edge", child)
        for node in plan.nodes
        for index, child in enumerate(node.inputs)
        if child not in plan.nodes
    })
    for node in bound:
        env.bind_node(node, block("bound", node))
    return env


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(slice_cases())
def test_program_matches_recursive_walker(case):
    plan, root, bound, values, sparse = case
    # the same program runs twice: with the drawn representations, then
    # with every slice flipped between dense and sparse
    flipped = {key: not is_sparse for key, is_sparse in sparse.items()}
    for representation in (sparse, flipped):
        want_env = bind(plan, bound, values, representation)
        got_env = SliceEnv(
            frontier=dict(want_env.frontier),
            bound_nodes=dict(want_env.bound_nodes),
        )
        with np.errstate(all="ignore"):
            try:
                want = reference_walk(plan, want_env, root)
            except Exception as exc:  # the program must fail the same way
                with pytest.raises(type(exc)):
                    evaluate_slice(plan, got_env, root=root)
                continue
            got = evaluate_slice(plan, got_env, root=root)
        assert_same_block(got, want)
        assert got_env.flops == want_env.flops


def test_missing_edge_is_an_execution_error_after_compilation():
    """The program is cached per (root, bound set), but a later binding
    without one of its slices still fails as ExecutionError."""
    x, y, *_ = leaves()
    dag = DAG(BinaryNode("add", UnaryNode("sq", x), y))
    plan = PartialFusionPlan(set(dag.operators()), dag)
    env = bind(plan, [],
               {("edge", x.node_id): DENSE["X"], ("edge", y.node_id): DENSE["Y"]},
               {("edge", x.node_id): True, ("edge", y.node_id): False})
    evaluate_slice(plan, env)
    del env.frontier[(plan.root, 1)]
    with pytest.raises(ExecutionError):
        evaluate_slice(plan, env)


def test_bound_root_is_returned_as_bound():
    x, y, *_ = leaves()
    dag = DAG(BinaryNode("add", UnaryNode("sq", x), y))
    plan = PartialFusionPlan(set(dag.operators()), dag)
    env = SliceEnv(frontier={})
    value = Block(DENSE["Y"])
    env.bind_node(plan.root, value)
    assert evaluate_slice(plan, env) is value
    assert env.flops == 0


# ---------------------------------------------------------------------------
# oracle: the masked path's gathered O-space chain
# ---------------------------------------------------------------------------


@st.composite
def masked_plans(draw):
    """``[agg](... X * chain(U @ V.T) ...)``: an O-space element-wise chain
    masked by the sparse input."""
    x, y, u, v = leaves()
    node: Node = MatMulNode(u, TransposeNode(v))
    masked = False
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(["unary", "scalar", "binary", "mask"]))
        if kind == "mask" and not masked:
            node, masked = BinaryNode("mul", x, node), True
        elif kind == "unary":
            node = UnaryNode(draw(st.sampled_from(sorted(UNARY_KERNELS))), node)
        elif kind == "scalar":
            name = draw(st.sampled_from(sorted(BINARY_KERNELS)))
            scalar = draw(st.sampled_from(SCALARS))
            node = (BinaryNode(name, None, node, scalar=scalar)
                    if draw(st.booleans())
                    else BinaryNode(name, node, None, scalar=scalar))
        else:
            name = draw(st.sampled_from(sorted(BINARY_KERNELS)))
            node = BinaryNode(name, node, draw(st.sampled_from([x, y])))
    if not masked:
        node = BinaryNode("mul", x, node)
    if draw(st.booleans()):
        node = AggNode(draw(st.sampled_from(sorted(AGGREGATION_KERNELS))), node)
    return node


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(masked_plans())
def test_gathered_program_matches_gathered_walker(root):
    dag = DAG(root)
    plan = PartialFusionPlan(set(dag.operators()), dag)
    layout = plan_layout(plan)
    mask = find_sparsity_mask(plan, layout.mm, layout.tree)
    assume(mask is not None)
    frontier = {
        (node, index): as_block(DENSE[child.name], child.name == "X")
        for node in plan.nodes
        for index, child in enumerate(node.inputs)
        if child not in plan.nodes
    }
    with np.errstate(all="ignore"):
        env = SliceEnv(frontier=dict(frontier))
        pattern = mask_pattern(plan, env, mask)
        rows, cols = pattern_rows(pattern.mask.data), pattern.mask.data.indices
        assume(rows.size > 0)
        product = masked_product(plan, env, layout.mm, pattern)
        want_env = SliceEnv(frontier=dict(frontier))
        want = reference_finish(
            plan, want_env, layout.mm, rows, cols, product, (M, N)
        )
        got_env = SliceEnv(frontier=dict(frontier))
        got = finish_masked(plan, got_env, layout.mm, product, pattern)
    assert_same_block(got, want)
    assert got_env.flops == want_env.flops


# ---------------------------------------------------------------------------
# oracle: the whole masked task against the COO path it replaced
# ---------------------------------------------------------------------------


def coo_mask_positions(plan, env, mask):
    mask_block = _eval_operand(plan, env, mask.mask_mul, mask.mask_operand_index)
    mask_csr = mask_block.to_sparse().data
    return mask_csr.nonzero()


def coo_sddmm(mask, a, b):
    csr = mask.data
    rows, cols = csr.nonzero()
    if rows.size == 0:
        return Block(sp.csr_matrix(mask.shape, dtype=np.float64))
    dense_a = a.dense_view()
    dense_b = b.dense_view()
    values = np.einsum("ij,ji->i", dense_a[rows, :], dense_b[:, cols])
    result = sp.csr_matrix((values, (rows, cols)), shape=mask.shape)
    return Block(result)


def coo_masked_product(plan, env, mm, rows, cols):
    left = _eval_operand(plan, env, mm, 0)
    right = _eval_operand(plan, env, mm, 1)
    shape = (left.shape[0], right.shape[1])
    if rows.size == 0:
        return Block(sp.csr_matrix(shape))
    pattern = Block(sp.csr_matrix((np.ones(rows.size), (rows, cols)), shape=shape))
    env.flops += 2 * pattern.nnz * left.shape[1]
    return coo_sddmm(pattern, left, right)


def coo_add_blocks(a, b):
    if a.is_sparse and b.is_sparse:
        return Block((a.data + b.data).tocsr())
    return Block(a.dense_view() + b.dense_view())


def coo_finish_masked(plan, env, mm, mask, product, tile_shape, positions=None):
    rows, cols = (positions if positions is not None
                  else coo_mask_positions(plan, env, mask))
    if rows.size == 0:
        empty = Block(sp.csr_matrix(tile_shape))
        if isinstance(plan.root, AggNode):
            return aggregate(plan.root.kernel, empty)
        return empty
    product_vals = np.asarray(product.to_sparse().data[rows, cols]).ravel()
    is_agg = isinstance(plan.root, AggNode)
    chain = plan.root.inputs[0] if is_agg else plan.root
    program = _program(plan, chain, frozenset((mm.node_id,)))
    for step in program.steps:
        if step.op not in _ELEMENTWISE:
            raise PlanError(f"masked evaluation cannot handle "
                            f"{type(step.node).__name__} in O-space")
    slots = list(program.slots)
    for slot, _ in program.bound_loads:
        slots[slot] = product_vals
    for slot, edge in program.edge_loads:
        block = env.frontier[edge]
        gathered = block.data[rows, cols]
        slots[slot] = np.asarray(gathered).ravel() if block.is_sparse else gathered
    out_vals, flops = _run(program, slots)
    env.flops += flops
    result = sp.csr_matrix((out_vals, (rows, cols)), shape=tile_shape)
    result.eliminate_zeros()
    if is_agg:
        env.flops += rows.size
        return aggregate(plan.root.kernel, Block(result))
    return Block(result)


def x_stored_as(form: str) -> Block:
    """The sparse input X in one of the storage forms a mask may arrive in."""
    x = DENSE["X"]
    if form == "dense":
        return Block(x.copy())
    if form == "empty":
        return Block(sp.csr_matrix(x.shape))
    csr = sp.csr_matrix(x)
    if form == "zeros_only":
        return Block(sp.csr_matrix(
            (np.zeros(csr.nnz), csr.indices, csr.indptr), shape=x.shape
        ))
    if form == "explicit_zeros":
        # a third of the stored values zeroed, plus stored zeros at empty cells
        rows, cols = csr.nonzero()
        values = csr.data.copy()
        values[::3] = 0.0
        empty_rows, empty_cols = np.nonzero(x == 0)
        rows = np.concatenate([rows, empty_rows[::7]])
        cols = np.concatenate([cols, empty_cols[::7]])
        values = np.concatenate([values, np.zeros(empty_rows[::7].size)])
        csr = sp.csr_matrix((values, (rows, cols)), shape=x.shape)
        assert np.count_nonzero(csr.data) < csr.nnz
        return Block(csr)
    if form == "unsorted":
        order = np.concatenate([
            np.arange(lo, hi)[::-1] for lo, hi in zip(csr.indptr, csr.indptr[1:])
        ])
        csr = sp.csr_matrix(
            (csr.data[order], csr.indices[order], csr.indptr), shape=x.shape
        )
        assert not csr.has_sorted_indices
        return Block(csr)
    assert form == "canonical"
    return Block(csr)


def assert_same_stored(got: Block, want: Block) -> None:
    """Same representation, shape, stored entries and bits; same nnz and
    nbytes (what the memory ledger charges)."""
    assert (got.is_sparse, got.shape, got.nnz, got.nbytes) == (
        want.is_sparse, want.shape, want.nnz, want.nbytes
    )
    if not got.is_sparse:
        assert got.data.tobytes() == want.data.tobytes()
        return
    for block in (got, want):
        assert block.data.has_canonical_format
    assert np.array_equal(got.data.indptr, want.data.indptr)
    assert np.array_equal(got.data.indices, want.data.indices)
    assert got.data.data.tobytes() == want.data.data.tobytes()


@pytest.mark.parametrize(
    "form",
    ["canonical", "explicit_zeros", "unsorted", "zeros_only", "empty", "dense"],
)
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(root=masked_plans(), r=st.sampled_from([1, 2, 3]), y_sparse=st.booleans())
def test_masked_task_matches_coo_path(form, root, r, y_sparse):
    """One ``(p, q)`` tile's masked task, its k axis split into *r*
    partials: each partial product, their sum and the finished tile match
    the COO path bit for bit, with equal flops on every task.  Y, holding
    zeros at cells the mask keeps, is bound dense or on a CSR pattern of
    its own."""
    dag = DAG(root)
    plan = PartialFusionPlan(set(dag.operators()), dag)
    layout = plan_layout(plan)
    mask = find_sparsity_mask(plan, layout.mm, layout.tree)
    assume(mask is not None)
    x = x_stored_as(form)
    y = DENSE["Y"].copy()
    y.flat[::3] = 0.0
    y = as_block(y, y_sparse)

    def task_env(lo, hi):
        frontier = {}
        for node in plan.nodes:
            for index, child in enumerate(node.inputs):
                if child in plan.nodes:
                    continue
                if child.name == "X":
                    frontier[(node, index)] = x
                elif child.name in ("U", "V"):
                    frontier[(node, index)] = Block(DENSE[child.name][:, lo:hi].copy())
                else:
                    frontier[(node, index)] = y
        return SliceEnv(frontier=frontier)

    splits = [(int(c[0]), int(c[-1]) + 1) for c in np.array_split(np.arange(K), r)]
    with np.errstate(all="ignore"):
        if r == 1:
            want_env, got_env = task_env(0, K), task_env(0, K)
            rows, cols = coo_mask_positions(plan, want_env, mask)
            product = coo_masked_product(plan, want_env, layout.mm, rows, cols)
            want = coo_finish_masked(plan, want_env, layout.mm, mask, product,
                                     (M, N), positions=(rows, cols))
            got = evaluate_masked_slice(plan, got_env, layout.mm, mask)
            assert_same_stored(got, want)
            assert got_env.flops == want_env.flops
            return

        want_parts, got_parts, pattern = [], [], None
        for lo, hi in splits:
            want_env, got_env = task_env(lo, hi), task_env(lo, hi)
            rows, cols = coo_mask_positions(plan, want_env, mask)
            want_parts.append(
                coo_masked_product(plan, want_env, layout.mm, rows, cols)
            )
            # every task of the tile reads one pattern and pays for the mask
            if pattern is None:
                pattern = mask_pattern(plan, got_env, mask)
            else:
                got_env.flops += pattern.flops
            got_parts.append(masked_product(plan, got_env, layout.mm, pattern))
            assert_same_stored(got_parts[-1], want_parts[-1])
            assert got_env.flops == want_env.flops
        want_sum = reduce(coo_add_blocks, want_parts)
        got_sum = reduce(add_blocks, got_parts)
        assert_same_stored(got_sum, want_sum)

        want_env, got_env = task_env(0, K), task_env(0, K)
        want = coo_finish_masked(plan, want_env, layout.mm, mask, want_sum, (M, N))
        got_env.flops += pattern.flops
        got = finish_masked(plan, got_env, layout.mm, got_sum, pattern)
    assert_same_stored(got, want)
    assert got_env.flops == want_env.flops


@pytest.mark.parametrize("k", [64, 100, 257])
@pytest.mark.parametrize("order", ["C", "F"])
def test_sddmm_matches_coo_sddmm_at_long_k(k, order):
    """At K long enough for numpy's vectorised summation loops, the SDDMM
    on the mask's pattern still sums each cell bit for bit as the COO
    kernel did, whatever the operands' memory order."""
    rng = np.random.default_rng(k)
    mask = Block(sp.random(60, 40, density=0.15, random_state=k, format="csr"))
    assert mask.nnz >= 300
    a = Block(np.asarray(rng.standard_normal((60, k)), order=order))
    b = Block(np.asarray(rng.standard_normal((k, 40)), order=order))
    got, want = sddmm(mask, a, b), coo_sddmm(mask, a, b)
    assert_same_stored(got, want)


def test_partials_on_one_pattern_add_as_scipy_does():
    """Partials on one pattern add their data vectors: an exactly-zero sum
    (-0.0 too) is dropped as scipy's sparse sum drops it, and a sum with
    no zero keeps the shared pattern."""
    pattern = sp.csr_matrix(DENSE["X"])
    values = pattern.data.copy()
    values[1] = -0.0
    other = -values
    other[::2] = 1.0
    a = Block(on_pattern(pattern, values))
    b = Block(on_pattern(pattern, other))
    summed = add_blocks(a, b)
    assert summed.nnz < a.nnz
    assert_same_stored(summed, coo_add_blocks(a, b))
    kept = add_blocks(a, Block(on_pattern(pattern, np.abs(values) + 1.0)))
    assert np.shares_memory(kept.data.indices, pattern.indices)


# ---------------------------------------------------------------------------
# end to end: five engines x graph passes off/all against the interpreter
# ---------------------------------------------------------------------------

ENGINES = [
    FuseMEEngine,
    DistMELikeEngine,
    SystemDSLikeEngine,
    MatFastLikeEngine,
    LocalXLAEngine,
]


@pytest.mark.parametrize("passes", ["off", "all"])
@pytest.mark.parametrize("engine_cls", ENGINES, ids=lambda c: c.name)
@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(root=random_dags(kernels=E2E_KERNELS, max_ops=6))
def test_engines_match_interpreter_on_random_dags(engine_cls, passes, root):
    note(DAG(root).dump())
    engine = engine_cls(make_config(block_size=BS, graph_passes=passes))
    result = engine.execute(DAG(root), INPUTS)
    expected = np.asarray(evaluate(root, DENSE)).reshape(root.meta.shape)
    np.testing.assert_allclose(
        result.output().to_numpy(), expected, rtol=1e-9, atol=1e-9
    )
