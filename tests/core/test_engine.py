"""End-to-end tests for the FuseME engine."""

import sys

import numpy as np
import pytest

from repro import FuseMEEngine
from repro.errors import PlanError
from repro.lang import (
    DAG, evaluate, log, matrix_input, nnz_mask, parse_expression, sq, sum_of,
)
from repro.matrix import rand_dense, rand_sparse

from tests.conftest import make_config

BS = 25


@pytest.fixture
def nmf():
    x = rand_sparse(200, 150, 0.05, BS, seed=1)
    u = rand_dense(200, 50, BS, seed=2)
    v = rand_dense(150, 50, BS, seed=3)
    xe = matrix_input("X", 200, 150, BS, density=0.05)
    ue = matrix_input("U", 200, 50, BS)
    ve = matrix_input("V", 150, 50, BS)
    return (xe, ue, ve), {"X": x, "U": u, "V": v}


class TestExecute:
    def test_nmf_query(self, nmf):
        (xe, ue, ve), inputs = nmf
        expr = xe * log(ue @ ve.T + 1e-8)
        engine = FuseMEEngine(make_config())
        result = engine.execute(expr, inputs)
        expected = evaluate(
            DAG(expr.node).roots[0],
            {k: m.to_numpy() for k, m in inputs.items()},
        )
        np.testing.assert_allclose(result.output().to_numpy(), expected, atol=1e-8)

    def test_single_fused_unit_for_simple_query(self, nmf):
        (xe, ue, ve), inputs = nmf
        expr = xe * log(ue @ ve.T + 1e-8)
        result = FuseMEEngine(make_config()).execute(expr, inputs)
        assert len(result.fusion_plan.units) == 1
        assert result.fusion_plan.units[0].is_fused

    def test_multi_root_query(self, nmf):
        (xe, ue, ve), inputs = nmf
        product = ue @ ve.T
        loss = sum_of(nnz_mask(xe) * sq(xe - product))
        scaled = xe * 2.0
        result = FuseMEEngine(make_config()).execute([loss, scaled], inputs)
        assert len(result.outputs) == 2
        dense = {k: m.to_numpy() for k, m in inputs.items()}
        roots = list(result.dag.roots)
        np.testing.assert_allclose(
            result.outputs[roots[0]].to_numpy(),
            evaluate(loss.node, dense).reshape(1, 1),
            rtol=1e-9,
        )
        np.testing.assert_allclose(
            result.outputs[roots[1]].to_numpy(), dense["X"] * 2.0
        )

    def test_missing_input_rejected(self, nmf):
        (xe, ue, ve), inputs = nmf
        expr = xe * log(ue @ ve.T + 1e-8)
        del inputs["V"]
        with pytest.raises(PlanError, match="missing input"):
            FuseMEEngine(make_config()).execute(expr, inputs)

    def test_shape_mismatch_rejected(self, nmf):
        (xe, ue, ve), inputs = nmf
        expr = xe * log(ue @ ve.T + 1e-8)
        inputs["U"] = rand_dense(200, 40, BS, seed=9)
        with pytest.raises(PlanError, match="shape"):
            FuseMEEngine(make_config()).execute(expr, inputs)

    def test_block_size_mismatch_rejected(self, nmf):
        (xe, ue, ve), inputs = nmf
        expr = xe * log(ue @ ve.T + 1e-8)
        inputs["U"] = rand_dense(200, 50, 50, seed=9)
        with pytest.raises(PlanError, match="block size"):
            FuseMEEngine(make_config()).execute(expr, inputs)

    def test_simplification_applied(self, nmf):
        (xe, ue, ve), inputs = nmf
        expr = (xe.T.T * 2.0) * 3.0
        result = FuseMEEngine(make_config()).execute(expr, inputs)
        np.testing.assert_allclose(
            result.output().to_numpy(), inputs["X"].to_numpy() * 6.0
        )
        labels = [n.label() for n in result.dag.nodes()]
        assert "r(T)" not in labels

    def test_metrics_populated(self, nmf):
        (xe, ue, ve), inputs = nmf
        expr = xe * log(ue @ ve.T + 1e-8)
        result = FuseMEEngine(make_config()).execute(expr, inputs)
        assert result.comm_bytes > 0
        assert result.elapsed_seconds > 0
        assert result.metrics.flops > 0

    def test_exploitation_report_available(self, nmf):
        (xe, ue, ve), inputs = nmf
        engine = FuseMEEngine(make_config())
        engine.execute(xe * log(ue @ ve.T + 1e-8), inputs)
        assert engine.last_report is not None

    def test_input_as_root(self, nmf):
        """A root that is itself an input simply passes through."""
        (xe, ue, ve), inputs = nmf
        result = FuseMEEngine(make_config()).execute([xe * 1.0, xe], inputs)
        roots = list(result.dag.roots)
        assert result.outputs[roots[1]] is inputs["X"]


def test_a_2000_level_query_explains_at_a_recursion_limit_of_120():
    """Parsing, simplification, CFG, lowering and the (P,Q,R) search hold no
    stack frame per level of the query."""
    x = matrix_input("X", 100, 80, 25)
    w = matrix_input("W", 80, 60, 25)
    y = matrix_input("Y", 100, 60, 25)
    engine = FuseMEEngine(make_config())
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(120)
    try:
        query = parse_expression("X %*% W" + " + 1" * 2000, {"X": x, "W": w})
        rendered = engine.explain(query)
        # CFG's exploration grows the multiplication's candidate through
        # all 1,000 matrix additions above it
        chain = parse_expression(
            "X %*% W" + " + Y" * 1000, {"X": x, "W": w, "Y": y}
        )
        chained = engine.explain(chain)
    finally:
        sys.setrecursionlimit(limit)
    # the 2,000 scalar additions fold into one, fused into the one CFO unit
    assert "1 unit(s)" in rendered
    assert "b(add:,s2000)" in rendered
    assert "1 unit(s)" in chained


class TestSparseScalarComparisons:
    """A comparison of a sparse matrix against a scalar is dense wherever
    ``fn(0, scalar) != 0``, and ``X != 0`` ignores explicitly stored zeros."""

    def test_neq_nonzero_scalar_matches_interpreter(self):
        x = rand_sparse(100, 75, 0.05, BS, seed=1)
        expr = matrix_input("X", 100, 75, BS, density=0.05) != 2
        result = FuseMEEngine(make_config()).execute(expr, {"X": x})
        got = result.output().to_numpy()
        np.testing.assert_array_equal(
            got, evaluate(DAG(expr.node).roots[0], {"X": x.to_numpy()})
        )
        assert np.count_nonzero(got) == 100 * 75

    def test_nnz_mask_skips_explicit_zeros(self):
        x = rand_sparse(100, 75, 0.05, BS, seed=1)
        block = x.blocks[(0, 0)].data.copy()
        block.data[::2] = 0.0  # stored, but zero
        x.blocks[(0, 0)] = type(x.blocks[(0, 0)])(block)
        expr = nnz_mask(matrix_input("X", 100, 75, BS, density=0.05))
        result = FuseMEEngine(make_config()).execute(expr, {"X": x})
        assert result.output().to_numpy().sum() == np.count_nonzero(x.to_numpy())
