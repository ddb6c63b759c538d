"""Rules every physical fused operator shares (``repro.core.stages``).

* one flop rule for aggregation roots: every combine of two partial
  aggregates costs rows × cols of the incoming partial, on the CFO, BFO,
  cell and multi-aggregation paths alike;
* one frontier check: a binding whose shape or block size disagrees with
  its node raises :class:`BlockLayoutError` before any task runs.
"""

import pytest

from repro import FuseMEEngine
from repro.cluster import SimulatedCluster
from repro.core.cfo import CuboidFusedOperator
from repro.core.plan import MultiAggPlan, PartialFusionPlan
from repro.errors import BlockLayoutError
from repro.lang import DAG, colsum, log, matrix_input, rowsum
from repro.matrix import rand_dense
from repro.operators import (
    BroadcastFusedOperator,
    FusedCellOperator,
    ReplicationFusedOperator,
)

from tests.conftest import make_config

BS = 25
M, N, K = 100, 75, 50
GRID_ROWS, GRID_COLS = M // BS, N // BS


def dense_inputs():
    return {
        "X": rand_dense(M, N, BS, seed=1),
        "Y": rand_dense(M, N, BS, seed=2),
        "Z": rand_dense(M, N, BS, seed=3),
        "U": rand_dense(M, K, BS, seed=4),
        "V": rand_dense(N, K, BS, seed=5),
    }


def exprs():
    x = matrix_input("X", M, N, BS)
    y = matrix_input("Y", M, N, BS)
    z = matrix_input("Z", M, N, BS)
    u = matrix_input("U", M, K, BS)
    v = matrix_input("V", N, K, BS)
    return x, y, z, u, v


def single_plan(expr):
    dag = DAG(expr.node)
    return PartialFusionPlan(set(dag.operators()), dag)


def flops_of(operator_cls, plan, config):
    cluster = SimulatedCluster(config)
    operator_cls(plan, config).execute(cluster, dense_inputs())
    return cluster.metrics.flops


# A row aggregate of an M x N matrix on a GRID_ROWS x GRID_COLS block grid:
# each block row's GRID_COLS partials (BS x 1 each) combine GRID_COLS - 1
# times, wherever the tasks' boundaries fall.
ROWSUM_COMBINE_FLOPS = (GRID_COLS - 1) * M
COLSUM_COMBINE_FLOPS = (GRID_ROWS - 1) * N


@pytest.mark.parametrize("operator_cls", [
    ReplicationFusedOperator, BroadcastFusedOperator, FusedCellOperator,
])
def test_aggregation_root_charges_each_combine(operator_cls):
    """rowsum(chain) costs the chain, one flop per element aggregated (all
    blocks are dense) and rows × cols per combine of partial aggregates.

    RFO is the CFO pinned to one cuboid per output block, so its partials
    are block-sized like the BFO's and the cell operator's."""
    x, y, _, u, v = exprs()
    if operator_cls is FusedCellOperator:
        body = x * y
    else:
        body = x * log(u @ v.T + 1.0)
    config = make_config(sparsity_exploitation=False)
    plain = flops_of(operator_cls, single_plan(body), config)
    aggregated = flops_of(operator_cls, single_plan(rowsum(body)), config)
    assert aggregated - plain == M * N + ROWSUM_COMBINE_FLOPS


def test_multi_aggregation_charges_each_combine():
    """A multi-aggregation pass costs what its roots cost as separate cell
    operators: scanning once saves traffic, not combine flops."""
    x, y, z, _, _ = exprs()
    first, second = rowsum(x * y), colsum(x * z)
    engine = FuseMEEngine(make_config())
    cluster = SimulatedCluster(engine.config)
    result = engine.execute([first, second], dense_inputs(), cluster=cluster)
    (unit,) = result.fusion_plan.units
    assert isinstance(unit.plan, MultiAggPlan)
    fused = cluster.metrics.flops
    config = engine.config
    separate = sum(
        flops_of(FusedCellOperator, single_plan(root), config)
        for root in (first, second)
    )
    assert fused == separate
    plain = sum(
        flops_of(FusedCellOperator, single_plan(body), config)
        for body in (x * y, x * z)
    )
    assert fused - plain == 2 * M * N + ROWSUM_COMBINE_FLOPS + COLSUM_COMBINE_FLOPS


def _matmul_plan():
    x, _, _, u, v = exprs()
    return single_plan(x * log(u @ v.T + 1.0))


def _cell_plan():
    x, y, _, _, _ = exprs()
    return single_plan(x * y + 2.0)


def _multi_agg_plan():
    x, y, z, _, _ = exprs()
    dag = DAG([rowsum(x * y).node, colsum(x * z).node])
    return MultiAggPlan({n for n in dag.nodes() if n.is_operator}, dag)


OPERATORS = {
    "cfo": (CuboidFusedOperator, _matmul_plan),
    "rfo": (ReplicationFusedOperator, _matmul_plan),
    "bfo": (BroadcastFusedOperator, _matmul_plan),
    "cell": (FusedCellOperator, _cell_plan),
    "multi-agg": (FusedCellOperator, _multi_agg_plan),
}

BAD_BINDINGS = {
    # a 25-row shortfall: fewer blocks than the node's grid
    "shape": lambda rows, cols: rand_dense(rows - BS, cols, BS, seed=9),
    # the node's shape on a different grid
    "block-size": lambda rows, cols: rand_dense(rows, cols, 20, seed=9),
}


@pytest.mark.parametrize("defect", sorted(BAD_BINDINGS))
@pytest.mark.parametrize("kind", sorted(OPERATORS))
def test_frontier_binding_layout_is_checked(kind, defect):
    operator_cls, make_plan = OPERATORS[kind]
    plan = make_plan()
    config = make_config()
    inputs = dense_inputs()
    # corrupt a non-X input so the main matrix still drives the layout
    victim = "V" if operator_cls is not FusedCellOperator else "Y"
    rows, cols = inputs[victim].shape
    inputs[victim] = BAD_BINDINGS[defect](rows, cols)
    operator = operator_cls(plan, config)
    with pytest.raises(BlockLayoutError, match="binding for"):
        operator.execute(SimulatedCluster(config), inputs)
