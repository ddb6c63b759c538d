"""Tests for the Eq. 2 elapsed-time model."""

import pytest

from repro.cluster.simulation import eq2, stage_seconds
from repro.config import ClusterConfig, EngineConfig
from repro.core.cfg import _cell_cost
from repro.core.cost import CostModel
from repro.core.plan import PartialFusionPlan
from repro.core.spaces import plan_layout
from repro.lang import DAG, log, matrix_input


def cluster(**kwargs) -> ClusterConfig:
    defaults = dict(
        num_nodes=4,
        tasks_per_node=10,
        network_bandwidth=1e9,
        compute_bandwidth=1e12,
        task_launch_overhead=0.0,
    )
    defaults.update(kwargs)
    return ClusterConfig(**defaults)


class TestShape:
    def test_zero_tasks_costs_nothing(self):
        assert stage_seconds(cluster(), 0, 10**9, 10**9) == 0.0

    def test_network_bound_stage(self):
        c = cluster()
        # saturate all slots; pure network
        t = stage_seconds(c, 40, net_bytes=4 * 10**9, flops=0)
        assert t == pytest.approx(1.0)

    def test_compute_bound_stage(self):
        c = cluster()
        t = stage_seconds(c, 40, net_bytes=0, flops=4 * 10**12)
        assert t == pytest.approx(1.0)

    def test_overlap_takes_max(self):
        c = cluster()
        both = stage_seconds(c, 40, net_bytes=4 * 10**9, flops=4 * 10**12)
        assert both == pytest.approx(1.0)

    def test_underutilized_stage_is_slower(self):
        """Few tasks cannot use the whole cluster (the paper's BFO effect)."""
        c = cluster()
        full = stage_seconds(c, 40, net_bytes=10**9, flops=0)
        starved = stage_seconds(c, 4, net_bytes=10**9, flops=0)
        assert starved == pytest.approx(full * 10)

    def test_more_tasks_than_slots_waves(self):
        c = cluster(task_launch_overhead=0.1)
        one_wave = stage_seconds(c, 40, net_bytes=0, flops=0)
        three_waves = stage_seconds(c, 120, net_bytes=0, flops=0)
        assert three_waves == pytest.approx(3 * one_wave)

    def test_scales_with_nodes(self):
        slow = stage_seconds(cluster(num_nodes=2), 20, net_bytes=10**9, flops=0)
        fast = stage_seconds(cluster(num_nodes=8), 80, net_bytes=10**9, flops=0)
        assert slow == pytest.approx(4 * fast)


def _fused(expr) -> PartialFusionPlan:
    dag = DAG(expr.node)
    return PartialFusionPlan(set(dag.operators()), dag)


def test_planner_and_simulator_price_with_one_eq2():
    """The cost model, CFG's cell pricing and the stage model all reduce to
    the one :func:`eq2` — ``==``, not approx, on the same bytes and flops."""
    bs = 25
    config = EngineConfig(cluster=cluster(task_launch_overhead=0.05),
                          block_size=bs)
    c = config.cluster
    x = matrix_input("X", 8 * bs, 6 * bs, bs, density=0.05)
    u = matrix_input("U", 8 * bs, 2 * bs, bs)
    v = matrix_input("V", 6 * bs, 2 * bs, bs)

    plan = _fused(x * log(u @ v.T + 1e-8))
    cost = CostModel(config).evaluate(plan, plan_layout(plan).tree, (2, 2, 1))
    assert cost.feasible
    net, flops = cost.net_bytes, cost.com_flops
    assert net > 0 and flops > 0
    assert type(cost.cost_seconds) is float
    assert cost.cost_seconds == eq2(c, net, flops)[2]

    stage = stage_seconds(c, c.total_tasks, net_bytes=net, flops=flops)
    assert type(stage) is float
    assert stage == eq2(c, net, flops)[2] + c.task_launch_overhead

    cell = _fused(x * 2.0 + x)
    cell_bytes = sum(
        consumer.inputs[idx].meta.estimated_bytes
        for consumer in cell.topo_nodes()
        for idx, child in enumerate(consumer.inputs)
        if child not in cell.nodes
    )
    cell_flops = sum(n.estimated_flops() for n in cell.topo_nodes())
    seconds = _cell_cost(cell, config)
    assert type(seconds) is float
    assert seconds == eq2(c, cell_bytes, cell_flops)[2]
