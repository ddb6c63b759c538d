"""Standalone distributed matrix multiplication: a one-node plan.

An engine that does not fuse a multiplication (MatFast, DistME, SystemDS'
mapmm/rmm) runs it as a one-node partial fusion plan on a fused operator:
broadcast on the BFO, replication on the RFO, cuboids on the CFO.
"""

import numpy as np
import pytest

from repro.cluster import SimulatedCluster
from repro.core.cfo import CuboidFusedOperator
from repro.core.plan import PartialFusionPlan
from repro.lang import DAG, matrix_input
from repro.matrix import rand_dense, rand_sparse
from repro.operators import BroadcastFusedOperator, ReplicationFusedOperator

from tests.conftest import make_config

BS = 25


def matmul_plan(rows, common, cols):
    ae = matrix_input("A", rows, common, BS)
    be = matrix_input("B", common, cols, BS)
    dag = DAG((ae @ be).node)
    return PartialFusionPlan({dag.matmul_nodes()[0]}, dag)


@pytest.fixture
def setting():
    a = rand_dense(200, 100, BS, seed=1)
    b = rand_dense(100, 150, BS, seed=2)
    expected = a.to_numpy() @ b.to_numpy()
    return matmul_plan(200, 100, 150), {"A": a, "B": b}, expected


class TestStrategies:
    def test_broadcast(self, setting):
        plan, inputs, expected = setting
        out = BroadcastFusedOperator(plan, make_config()).execute(
            SimulatedCluster(make_config()), inputs
        )
        np.testing.assert_allclose(out.to_numpy(), expected, atol=1e-8)

    def test_replication(self, setting):
        plan, inputs, expected = setting
        out = ReplicationFusedOperator(plan, make_config()).execute(
            SimulatedCluster(make_config()), inputs
        )
        np.testing.assert_allclose(out.to_numpy(), expected, atol=1e-8)

    def test_cuboid(self, setting):
        plan, inputs, expected = setting
        out = CuboidFusedOperator(plan, make_config()).execute(
            SimulatedCluster(make_config()), inputs
        )
        np.testing.assert_allclose(out.to_numpy(), expected, atol=1e-8)

    def test_cuboid_with_fixed_pqr(self, setting):
        plan, inputs, expected = setting
        op = CuboidFusedOperator(plan, make_config(), pqr=(4, 3, 2))
        out = op.execute(SimulatedCluster(make_config()), inputs)
        np.testing.assert_allclose(out.to_numpy(), expected, atol=1e-8)

    def test_sparse_operand(self, setting):
        plan, inputs, expected = setting
        sparse_a = rand_sparse(200, 100, 0.05, BS, seed=3)
        inputs = {"A": sparse_a, "B": inputs["B"]}
        expected = sparse_a.to_numpy() @ inputs["B"].to_numpy()
        out = CuboidFusedOperator(plan, make_config()).execute(
            SimulatedCluster(make_config()), inputs
        )
        np.testing.assert_allclose(out.to_numpy(), expected, atol=1e-8)

    def test_cuboid_cheaper_than_replication_on_common_dim(self):
        """With a large common dimension, k-partitioning pays off — the
        DistME argument the CFO inherits."""
        a = rand_dense(100, 300, BS, seed=1)
        b = rand_dense(300, 100, BS, seed=2)
        plan = matmul_plan(100, 300, 100)
        config = make_config()
        inputs = {"A": a, "B": b}
        cub = SimulatedCluster(config)
        CuboidFusedOperator(plan, config).execute(cub, inputs)
        rep = SimulatedCluster(config)
        ReplicationFusedOperator(plan, config).execute(rep, inputs)
        assert cub.metrics.comm_bytes < rep.metrics.comm_bytes

    def test_non_matmul_node_rejected(self):
        from repro.errors import PlanError

        x = matrix_input("X", 100, 100, BS)
        dag = DAG((x * 2.0).node)
        plan = PartialFusionPlan({dag.roots[0]}, dag)
        for operator_cls in (
            CuboidFusedOperator, ReplicationFusedOperator, BroadcastFusedOperator
        ):
            with pytest.raises(PlanError):
                operator_cls(plan, make_config())
