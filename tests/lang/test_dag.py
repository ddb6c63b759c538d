"""Unit tests for DAG nodes and the query-plan container."""

import numpy as np
import pytest

from repro.errors import PlanError
from repro.lang import (
    DAG,
    AggNode,
    BinaryNode,
    InputNode,
    MatMulNode,
    TransposeNode,
    UnaryNode,
    evaluate_many,
    matrix_input,
    parse_expression,
    simplify_dag,
    sum_of,
)
from repro.lang.dag import post_order
from repro.matrix import MatrixMeta


def leaf(name="X", rows=100, cols=100, density=1.0):
    return InputNode(name, MatrixMeta(rows, cols, 25, density))


class TestNodeMetaInference:
    def test_unary_preserves_shape(self):
        node = UnaryNode("sq", leaf())
        assert node.meta.shape == (100, 100)

    def test_unary_zero_preserving_keeps_density(self):
        node = UnaryNode("sq", leaf(density=0.1))
        assert node.meta.density == pytest.approx(0.1)

    def test_unary_densifying_sets_density_one(self):
        node = UnaryNode("log", leaf(density=0.1))
        assert node.meta.density == 1.0

    def test_binary_sparse_safe_takes_min_density(self):
        node = BinaryNode("mul", leaf(density=0.05), leaf(density=0.9))
        assert node.meta.density == pytest.approx(0.05)

    def test_binary_scalar_mul_keeps_density(self):
        node = BinaryNode("mul", leaf(density=0.1), None, scalar=3.0)
        assert node.meta.density == pytest.approx(0.1)

    def test_binary_scalar_add_densifies(self):
        node = BinaryNode("add", leaf(density=0.1), None, scalar=1.0)
        assert node.meta.density == 1.0

    def test_binary_neq_zero_keeps_pattern(self):
        node = BinaryNode("neq", leaf(density=0.1), None, scalar=0.0)
        assert node.meta.density == pytest.approx(0.1)

    def test_matmul_shape(self):
        node = MatMulNode(leaf(rows=100, cols=50), leaf(rows=50, cols=75))
        assert node.meta.shape == (100, 75)
        assert node.common_dim == 50

    def test_matmul_mm_dims_in_blocks(self):
        node = MatMulNode(leaf(rows=100, cols=50), leaf(rows=50, cols=75))
        assert node.mm_dims() == (4, 3, 2)

    def test_transpose(self):
        node = TransposeNode(leaf(rows=100, cols=50))
        assert node.meta.shape == (50, 100)

    def test_agg_shapes(self):
        assert AggNode("sum", leaf()).meta.shape == (1, 1)
        assert AggNode("rowSum", leaf(rows=80)).meta.shape == (80, 1)
        assert AggNode("colSum", leaf(cols=60)).meta.shape == (1, 60)

    def test_unknown_kernels_rejected(self):
        with pytest.raises(KeyError):
            UnaryNode("nope", leaf())
        with pytest.raises(KeyError):
            BinaryNode("nope", leaf(), leaf())
        with pytest.raises(KeyError):
            AggNode("nope", leaf())

    def test_estimated_flops_matmul_dense(self):
        node = MatMulNode(leaf(rows=100, cols=50), leaf(rows=50, cols=75))
        assert node.estimated_flops() == 2 * 100 * 50 * 75

    def test_estimated_flops_matmul_sparse_left(self):
        node = MatMulNode(
            leaf(rows=100, cols=50, density=0.01), leaf(rows=50, cols=75)
        )
        assert node.estimated_flops() == 2 * 50 * 75  # 2 * nnz * J


class TestDAG:
    def build(self):
        x = matrix_input("X", 100, 100, 25, density=0.1)
        u = matrix_input("U", 100, 50, 25)
        v = matrix_input("V", 100, 50, 25)
        expr = x * (u @ v.T)
        return DAG(expr.node), x, u, v

    def test_topological_order(self):
        dag, *_ = self.build()
        nodes = dag.nodes()
        position = {n: i for i, n in enumerate(nodes)}
        for node in nodes:
            for child in node.inputs:
                assert position[child] < position[node]

    def test_inputs(self):
        dag, *_ = self.build()
        assert sorted(n.name for n in dag.inputs()) == ["U", "V", "X"]

    def test_consumers(self):
        x = matrix_input("X", 10, 10, 25)
        shared = x * 2.0
        root = shared.node
        dag = DAG(BinaryNode("add", root, root))
        assert dag.consumers(root) == 2

    def test_consumers_unknown_node(self):
        dag, *_ = self.build()
        stranger = leaf("Z")
        with pytest.raises(PlanError):
            dag.consumers(stranger)

    def test_parents(self):
        dag, x, u, v = self.build()
        mm = dag.matmul_nodes()[0]
        parents = dag.parents(mm)
        assert len(parents) == 1
        assert isinstance(parents[0], BinaryNode)

    def test_parents_name_each_consumer_once_in_topological_order(self):
        x = matrix_input("X", 10, 10, 25)
        doubled = x + x
        dag = DAG([(doubled * 2.0).node, (doubled + x).node])
        order = {node: i for i, node in enumerate(dag.nodes())}
        for node in dag.nodes():
            expected = [n for n in dag.nodes() if node in n.inputs]
            assert list(dag.parents(node)) == expected
            assert sorted(expected, key=order.get) == expected
        assert len(dag.parents(x.node)) == 2  # x + x counts once
        assert dag.parents(leaf("Z")) == ()

    def test_multi_root(self):
        x = matrix_input("X", 10, 10, 25)
        dag = DAG([(x * 2.0).node, sum_of(x).node])
        assert len(dag.roots) == 2

    def test_empty_roots_rejected(self):
        with pytest.raises(PlanError):
            DAG([])

    def test_validate_inputs_reports_missing(self):
        dag, *_ = self.build()
        with pytest.raises(PlanError, match="missing input bindings"):
            dag.validate_inputs(["X", "U"])

    def test_dump_contains_labels(self):
        dag, *_ = self.build()
        dump = dag.dump()
        assert "ba(x)" in dump and "b(mul)" in dump


class TestPostOrder:
    def build(self):
        x = matrix_input("X", 10, 10, 25)
        y = matrix_input("Y", 10, 10, 25)
        shared = x * 2.0
        inner = y + shared
        return x, y, shared, inner, shared + inner

    def test_operands_in_order_each_node_once(self):
        x, y, shared, inner, root = self.build()
        assert post_order([root.node]) == [
            x.node, shared.node, y.node, inner.node, root.node
        ]

    def test_stop_emits_a_node_without_its_operands(self):
        x, y, shared, inner, root = self.build()
        order = post_order([root.node], stop=lambda node: node is inner.node)
        assert order == [x.node, shared.node, inner.node, root.node]

    def test_a_cycle_is_reported(self):
        x, y, shared, inner, root = self.build()
        shared.node.inputs = (root.node,)  # a hand-made back edge
        with pytest.raises(PlanError, match="cycle"):
            DAG(root.node)

    def test_a_2000_operator_chain_needs_no_recursion(self):
        """Parsing, construction, simplification and the reference
        interpreter walk a plan with loops or an explicit stack: depth is not
        capped by the interpreter's recursion limit (1000 by default)."""
        x = matrix_input("X", 4, 3, 2)
        chain = x
        for _ in range(2000):
            chain = chain + x
        parsed = parse_expression("X" + " + X" * 2000, {"X": x})
        negated = parse_expression("-" * 2000 + "X", {"X": x})
        for expr, kernel, value in (
            (chain, "add", 2001.0), (parsed, "add", 2001.0), (negated, "neg", 1.0)
        ):
            dag = DAG(expr.node)
            assert len(dag) == 2001
            assert {node.kernel for node in dag.operators()} == {kernel}
            simplified = simplify_dag(dag)
            (out,) = evaluate_many(simplified.roots, {"X": np.ones((4, 3))})
            np.testing.assert_array_equal(out, np.full((4, 3), value))
