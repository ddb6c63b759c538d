"""Tests for Multi-aggregation fusion (Figure 2(d))."""

import numpy as np
import pytest

from repro import FuseMEEngine, SystemDSLikeEngine
from repro.cluster import SimulatedCluster
from repro.core.plan import MultiAggPlan, PartialFusionPlan
from repro.errors import PlanError
from repro.lang import DAG, colsum, matrix_input, rowsum, sum_of
from repro.matrix import rand_dense, rand_sparse
from repro.operators.cell import FusedCellOperator

from tests.conftest import make_config

BS = 25
M, N = 100, 75


@pytest.fixture
def data():
    return {
        "X": rand_sparse(M, N, 0.1, BS, seed=1),
        "U": rand_dense(M, N, BS, seed=2),
        "V": rand_dense(M, N, BS, seed=3),
    }


def exprs():
    x = matrix_input("X", M, N, BS, density=0.1)
    u = matrix_input("U", M, N, BS)
    v = matrix_input("V", M, N, BS)
    return x, u, v


class TestPlanConstruction:
    def test_figure2d_pattern(self, data):
        x, u, v = exprs()
        dag = DAG([sum_of(u * x).node, sum_of(x * v).node])
        plan = MultiAggPlan({n for n in dag.nodes() if n.is_operator}, dag)
        assert len(plan.roots) == 2
        assert plan.label().startswith("MultiAgg")

    def test_single_root_rejected(self, data):
        x, u, v = exprs()
        dag = DAG(sum_of(u * x).node)
        with pytest.raises(PlanError, match="at least 2 roots"):
            MultiAggPlan({n for n in dag.nodes() if n.is_operator}, dag)

    def test_non_agg_roots_rejected(self, data):
        x, u, v = exprs()
        dag = DAG([(u * x).node, (x * v).node])
        with pytest.raises(PlanError, match="aggregate"):
            MultiAggPlan({n for n in dag.nodes() if n.is_operator}, dag)


class TestOperator:
    def run(self, dag, data, config=None):
        config = config or make_config()
        plan = MultiAggPlan({n for n in dag.nodes() if n.is_operator}, dag)
        op = FusedCellOperator(plan, config)
        cluster = SimulatedCluster(config)
        outputs = op.execute(cluster, data)
        return plan, outputs, cluster

    def test_figure2d_values(self, data):
        x, u, v = exprs()
        dag = DAG([sum_of(u * x).node, sum_of(x * v).node])
        plan, outputs, _ = self.run(dag, data)
        xn, un, vn = (data[k].to_numpy() for k in ("X", "U", "V"))
        assert outputs[plan.roots[0]].to_numpy()[0, 0] == pytest.approx(
            (un * xn).sum()
        )
        assert outputs[plan.roots[1]].to_numpy()[0, 0] == pytest.approx(
            (xn * vn).sum()
        )

    def test_mixed_axes(self, data):
        x, u, v = exprs()
        dag = DAG([rowsum(u * x).node, colsum(x * v).node])
        plan, outputs, _ = self.run(dag, data)
        xn, un, vn = (data[k].to_numpy() for k in ("X", "U", "V"))
        np.testing.assert_allclose(
            outputs[plan.roots[0]].to_numpy(),
            (un * xn).sum(axis=1, keepdims=True),
        )
        np.testing.assert_allclose(
            outputs[plan.roots[1]].to_numpy(),
            (xn * vn).sum(axis=0, keepdims=True),
        )

    def test_shared_input_moves_once(self, data):
        """The whole point: X is scanned once for both aggregations."""
        x, u, v = exprs()
        dag = DAG([sum_of(u * x).node, sum_of(x * v).node])
        _, _, fused_cluster = self.run(dag, data)
        # run separately for comparison
        config = make_config()
        separate = SimulatedCluster(config)
        for expr in (sum_of(u * x), sum_of(x * v)):
            sub = DAG(expr.node)
            plan = PartialFusionPlan(set(sub.operators()), sub)
            FusedCellOperator(plan, config).execute(separate, data)
        saved = (
            separate.metrics.consolidation_bytes
            - fused_cluster.metrics.consolidation_bytes
        )
        assert saved == pytest.approx(data["X"].nbytes, rel=0.05)

    def test_matmul_plans_rejected(self, data):
        x, u, v = exprs()
        w = matrix_input("W", N, M, BS)
        dag = DAG([sum_of(u @ w).node, sum_of(x * v).node])
        nodes = {n for n in dag.nodes() if n.is_operator}
        plan = MultiAggPlan(nodes, dag)
        with pytest.raises(PlanError, match="element-wise"):
            FusedCellOperator(plan, make_config())


class TestEngineIntegration:
    @pytest.mark.parametrize("engine_cls", [FuseMEEngine, SystemDSLikeEngine])
    def test_engines_fuse_and_agree(self, data, engine_cls):
        x, u, v = exprs()
        query = [sum_of(u * x), sum_of(x * v)]
        result = engine_cls(make_config()).execute(query, data)
        multi = [
            unit for unit in result.fusion_plan.units
            if isinstance(unit.plan, MultiAggPlan)
        ]
        assert len(multi) == 1
        xn, un, vn = (data[k].to_numpy() for k in ("X", "U", "V"))
        roots = list(result.dag.roots)
        assert result.outputs[roots[0]].to_numpy()[0, 0] == pytest.approx(
            (un * xn).sum()
        )
        assert result.outputs[roots[1]].to_numpy()[0, 0] == pytest.approx(
            (xn * vn).sum()
        )

    def test_unrelated_aggregations_stay_separate(self, data):
        """No shared input -> no multi-aggregation fusion."""
        x, u, v = exprs()
        query = [sum_of(u * 2.0), sum_of(v * 3.0)]
        result = FuseMEEngine(make_config()).execute(query, data)
        multi = [
            unit for unit in result.fusion_plan.units
            if isinstance(unit.plan, MultiAggPlan)
        ]
        assert not multi
