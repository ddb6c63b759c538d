"""Safety net for the compiled task body (the slab program).

Two layers, both over random DAGs of all five operator types — unary,
binary (matrix-matrix and with a scalar on either side), multiplication,
transpose and aggregation:

* **Oracle.**  The recursive walker ``evaluate_slice`` ran before slab
  programs existed is copied below, as is the gathered evaluator of the
  masked path.  On every generated plan, root and bound-node set, with each
  slice bound dense or sparse, the compiled program must return the same
  representation with bit-identical values and charge exactly the same
  flops.
* **End to end.**  All five engines, with graph passes off and on, execute
  the random DAG and must match :mod:`repro.lang.interpreter`.
"""

from __future__ import annotations

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
)
from repro.core.fused_eval import (
    SliceEnv,
    evaluate_slice,
    finish_masked,
    mask_positions,
    masked_product,
)
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
        rows, cols = mask_positions(plan, env, mask)
        assume(rows.size > 0)
        product = masked_product(plan, env, layout.mm, rows, cols)
        want_env = SliceEnv(frontier=dict(frontier))
        want = reference_finish(
            plan, want_env, layout.mm, rows, cols, product, (M, N)
        )
        got_env = SliceEnv(frontier=dict(frontier))
        got = finish_masked(
            plan, got_env, layout.mm, mask, product, (M, N),
            positions=(rows, cols),
        )
    assert_same_block(got, want)
    assert got_env.flops == want_env.flops


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
