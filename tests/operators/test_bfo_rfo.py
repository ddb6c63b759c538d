"""Tests for the Broadcast- and Replication-based Fused Operators.

Beyond correctness, these check the paper's Table 1 signatures: BFO's
communication scales with the number of tasks, RFO's with the block grid
extents, and BFO is the one that dies with O.O.M. when sides outgrow the
task budget.
"""

import numpy as np
import pytest

from repro.cluster import SimulatedCluster
from repro.core.plan import PartialFusionPlan
from repro.core.stages import resolve_frontier
from repro.errors import TaskOutOfMemoryError
from repro.lang import DAG, evaluate, log, matrix_input, sum_of
from repro.matrix import rand_dense, rand_sparse
from repro.operators import BroadcastFusedOperator, ReplicationFusedOperator

from tests.conftest import make_config

BS = 25


def nmf_setting(density=0.05, rows=200, cols=150, k=50):
    xe = matrix_input("X", rows, cols, BS, density=density)
    ue = matrix_input("U", rows, k, BS)
    ve = matrix_input("V", cols, k, BS)
    expr = xe * log(ue @ ve.T + 1e-8)
    dag = DAG(expr.node)
    plan = PartialFusionPlan(set(dag.operators()), dag)
    inputs = {
        "X": rand_sparse(rows, cols, density, BS, seed=1),
        "U": rand_dense(rows, k, BS, seed=2),
        "V": rand_dense(cols, k, BS, seed=3),
    }
    expected = evaluate(dag.roots[0], {n: m.to_numpy() for n, m in inputs.items()})
    return plan, inputs, expected


class TestBFO:
    def test_correctness(self):
        plan, inputs, expected = nmf_setting()
        op = BroadcastFusedOperator(plan, make_config())
        cluster = SimulatedCluster(make_config())
        out = op.execute(cluster, inputs)
        np.testing.assert_allclose(out.to_numpy(), expected, atol=1e-8)

    def test_dense_main_correctness(self):
        plan, inputs, expected = nmf_setting(density=0.8)
        op = BroadcastFusedOperator(plan, make_config())
        out = op.execute(SimulatedCluster(make_config()), inputs)
        np.testing.assert_allclose(out.to_numpy(), expected, atol=1e-8)

    def test_main_source_is_largest(self):
        plan, inputs, _ = nmf_setting(density=0.8)
        op = BroadcastFusedOperator(plan, make_config())
        values = resolve_frontier(plan, inputs)
        assert op.main_source(values).name == "X"

    def test_sparse_main_yields_few_partitions(self):
        """A very sparse X repartitions into few tasks (Section 6.2)."""
        plan, inputs, _ = nmf_setting(density=0.005)
        config = make_config(input_split_bytes=64 * 1024)
        op = BroadcastFusedOperator(plan, config)
        values = resolve_frontier(plan, inputs)
        assert op.num_partitions(values) <= 2

    def test_comm_scales_with_tasks(self):
        """Table 1: BFO traffic = |X| + T * (|U| + |V|)."""
        plan, inputs, _ = nmf_setting(density=0.8)
        few = make_config(input_split_bytes=120_000)
        many = make_config(input_split_bytes=30_000)
        got = {}
        for name, config in (("few", few), ("many", many)):
            op = BroadcastFusedOperator(plan, config)
            cluster = SimulatedCluster(config)
            op.execute(cluster, inputs)
            values = resolve_frontier(plan, inputs)
            got[name] = (
                cluster.metrics.consolidation_bytes,
                op.num_partitions(values),
            )
        sides = inputs["U"].nbytes + inputs["V"].nbytes
        for name in got:
            bytes_, tasks = got[name]
            expected = inputs["X"].nbytes + tasks * sides
            assert bytes_ == pytest.approx(expected, rel=0.01)
        assert got["many"][0] > got["few"][0]

    def test_oom_on_large_sides(self):
        plan, inputs, _ = nmf_setting()
        config = make_config(task_memory_budget=100_000)
        op = BroadcastFusedOperator(plan, config)
        with pytest.raises(TaskOutOfMemoryError):
            op.execute(SimulatedCluster(config), inputs)

    def test_agg_root(self):
        xe = matrix_input("X", 100, 75, BS, density=0.1)
        ue = matrix_input("U", 100, 25, BS)
        ve = matrix_input("V", 75, 25, BS)
        expr = sum_of(xe * (ue @ ve.T))
        dag = DAG(expr.node)
        plan = PartialFusionPlan(set(dag.operators()), dag)
        inputs = {
            "X": rand_sparse(100, 75, 0.1, BS, seed=1),
            "U": rand_dense(100, 25, BS, seed=2),
            "V": rand_dense(75, 25, BS, seed=3),
        }
        expected = evaluate(dag.roots[0], {n: m.to_numpy() for n, m in inputs.items()})
        out = BroadcastFusedOperator(plan, make_config()).execute(
            SimulatedCluster(make_config()), inputs
        )
        assert out.to_numpy()[0, 0] == pytest.approx(expected[0, 0])


class TestRFO:
    def test_correctness(self):
        plan, inputs, expected = nmf_setting()
        op = ReplicationFusedOperator(plan, make_config())
        out = op.execute(SimulatedCluster(make_config()), inputs)
        np.testing.assert_allclose(out.to_numpy(), expected, atol=1e-8)

    def test_pinned_to_grid_corner(self):
        plan, inputs, _ = nmf_setting()
        op = ReplicationFusedOperator(plan, make_config())
        assert op.pqr == (8, 6, 1)  # (I, J, 1)

    def test_comm_matches_table1(self):
        """Table 1: RFO traffic = |X| + J*|U| + I*|V|."""
        plan, inputs, _ = nmf_setting(density=0.8)
        config = make_config()
        op = ReplicationFusedOperator(plan, config)
        cluster = SimulatedCluster(config)
        op.execute(cluster, inputs)
        expected = (
            inputs["X"].nbytes + 6 * inputs["U"].nbytes + 8 * inputs["V"].nbytes
        )
        assert cluster.metrics.consolidation_bytes == pytest.approx(
            expected, rel=0.01
        )

    def test_rfo_traffic_exceeds_bfo_on_large_grids(self):
        plan, inputs, _ = nmf_setting(density=0.8)
        config = make_config(input_split_bytes=1 << 30)  # BFO: 1 task
        bfo_cluster = SimulatedCluster(config)
        BroadcastFusedOperator(plan, config).execute(bfo_cluster, inputs)
        rfo_cluster = SimulatedCluster(config)
        ReplicationFusedOperator(plan, config).execute(rfo_cluster, inputs)
        assert (
            rfo_cluster.metrics.consolidation_bytes
            > bfo_cluster.metrics.consolidation_bytes
        )

    def test_rfo_survives_budget_that_kills_bfo(self):
        plan, inputs, expected = nmf_setting()
        config = make_config(task_memory_budget=100_000)
        out = ReplicationFusedOperator(plan, config).execute(
            SimulatedCluster(config), inputs
        )
        np.testing.assert_allclose(out.to_numpy(), expected, atol=1e-8)
