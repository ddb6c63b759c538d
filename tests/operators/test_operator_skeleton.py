"""Rules every physical fused operator shares (``repro.core.stages``).

* one flop rule for aggregation roots: every combine of two partial
  aggregates costs rows × cols of the incoming partial, on the CFO, BFO,
  cell and multi-aggregation paths alike;
* one frontier check: a binding whose shape or block size disagrees with
  its node raises :class:`BlockLayoutError` before any task runs;
* one memory rule for output tiles: every computed tile is held by its
  task, an all-zero one too;
* stage shapes follow from the layout: each unit's stages and task counts
  are those its (P, Q, R), block grid or main matrix dictates;
* every stored output block memoises the counts of its own payload.
"""

import math

import numpy as np
import pytest
import scipy.sparse as sp

from repro import FuseMEEngine, SystemDSLikeEngine
from repro.blocks import Block
from repro.cluster import SimulatedCluster
from repro.core.cfo import CuboidFusedOperator
from repro.core.plan import MultiAggPlan, PartialFusionPlan
from repro.errors import BlockLayoutError
from repro.lang import DAG, colsum, log, matrix_input, rowsum, sum_of
from repro.lang.dag import AggNode
from repro.matrix import from_numpy, rand_dense, rand_sparse
from repro.operators import (
    BroadcastFusedOperator,
    FusedCellOperator,
    ReplicationFusedOperator,
)

from repro.workloads.als import als_loss_query
from repro.workloads.autoencoder import AutoEncoder, AutoEncoderShapes
from repro.workloads.gnmf import gnmf_updates

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


# -- one memory rule for output tiles ------------------------------------------

#: What an all-zero tile of one block weighs: an empty CSR block.
EMPTY_TILE = Block(sp.csr_matrix((BS, BS))).nbytes


def _one_task_run(operator_cls, expr, inputs, **kwargs):
    """Run *expr*'s plan as one task; return its stage and output."""
    config = make_config(
        num_nodes=1, tasks_per_node=1, input_split_bytes=1 << 30
    )
    cluster = SimulatedCluster(config)
    out = operator_cls(single_plan(expr), config, **kwargs).execute(
        cluster, inputs
    )
    (stage,) = cluster.metrics.stages
    return stage, out


def _zero_tile_inputs(n, nonzeros=()):
    """Operands on an ``n x n`` grid; X stores only *nonzeros*."""
    values = np.zeros((n, n))
    for row, col, value in nonzeros:
        values[row, col] = value
    operands = (
        matrix_input("X", n, n, BS),
        matrix_input("Y", n, n, BS),
        matrix_input("U", n, BS, BS),
        matrix_input("V", n, BS, BS),
    )
    inputs = {
        "X": from_numpy(values, BS),
        "Y": rand_dense(n, n, BS, seed=1),
        "U": rand_dense(n, BS, BS, seed=2),
        "V": rand_dense(n, BS, BS, seed=3),
    }
    return operands, inputs


def _hold_case(kind, x, y, u, v):
    if kind == "cell":
        return FusedCellOperator, x * y, {}
    body = x * log(u @ v.T + 1.0)
    if kind == "bfo":
        return BroadcastFusedOperator, body, {}
    return CuboidFusedOperator, body, {"pqr": (1, 1, 1)}


@pytest.mark.parametrize("kind", ["cfo", "bfo", "cell"])
def test_an_all_zero_tile_is_held(kind):
    """Every computed tile is charged to its task, an all-zero one too.

    The output is one all-zero block and one task computes it, so the
    task's peak is what it received plus that tile — on every operator,
    as the CFO has always charged it."""
    (x, y, u, v), inputs = _zero_tile_inputs(BS)
    operator_cls, expr, kwargs = _hold_case(kind, x, y, u, v)
    stage, out = _one_task_run(operator_cls, expr, inputs, **kwargs)
    assert not out.blocks
    assert stage.peak_task_memory == stage.consolidation_bytes + EMPTY_TILE


@pytest.mark.parametrize("kind", ["bfo", "cell"])
def test_all_zero_tiles_are_held_beside_stored_ones(kind):
    """One task computes all four blocks of a 2 x 2 output; three are all
    zero and stay implicit in the result, yet each is charged."""
    (x, y, u, v), inputs = _zero_tile_inputs(
        2 * BS, nonzeros=[(3, 4, 1.5), (10, 20, -2.0)]
    )
    operator_cls, expr, kwargs = _hold_case(kind, x, y, u, v)
    stage, out = _one_task_run(operator_cls, expr, inputs, **kwargs)
    stored = sum(block.nbytes for block in out.blocks.values())
    zero_tiles = 4 - len(out.blocks)
    assert zero_tiles == 3
    assert stage.peak_task_memory == (
        stage.consolidation_bytes + stored + zero_tiles * EMPTY_TILE
    )


# -- stage shapes follow from the layout --------------------------------------


def _roots(plan):
    return plan.roots if isinstance(plan, MultiAggPlan) else (plan.root,)


def expected_stages(plan, operator, pqr, config, inputs):
    """(name, tasks) of every stage *operator* opens for *plan*, derived
    from the plan's layout: its (P, Q, R), block grid or main matrix."""
    roots = _roots(plan)
    if operator == "cell":
        base = roots[0].inputs[0] if isinstance(roots[0], AggNode) else roots[0]
        grid_rows, grid_cols = base.meta.block_grid
        tasks = min(config.cluster.total_tasks, grid_rows * grid_cols)
        if isinstance(plan, MultiAggPlan):
            names = (f"multi-agg:{len(roots)}-outputs", "multi-agg:final")
        else:
            names = (f"cell:{plan.label()[:40]}", "cell:final-agg")
        stages = [(names[0], tasks)]
        final = names[1]
    elif operator == "bfo":
        main = max(inputs[node.name].nbytes for node in plan.frontier())
        split = config.cluster.input_split_bytes
        stages = [("bfo:compute", max(1, math.ceil(main / split)))]
        final = "bfo:final-agg"
    else:
        if operator == "rfo":
            extent_i, extent_j, _ = plan.main_matmul().mm_dims()
            pqr = (extent_i, extent_j, 1)
        p, q, r = pqr
        stages = [(f"cfo[{pqr}]:compute", p * q * r)]
        if r > 1:
            stages.append((f"cfo[{pqr}]:aggregate", p * q))
        final = f"cfo[{pqr}]:final-agg"
    if isinstance(roots[0], AggNode):
        stages.append((final, 1))
    return stages


def executed_stages(cluster):
    by_unit = {}
    for stage in cluster.metrics.stages:
        by_unit.setdefault(stage.unit, []).append(
            (stage.name, stage.num_tasks)
        )
    return by_unit


def _gnmf():
    query = gnmf_updates(200, 150, 50, 0.05, BS)
    inputs = {
        "X": rand_sparse(200, 150, 0.05, BS, seed=7),
        "U": rand_dense(50, 150, BS, seed=1),
        "V": rand_dense(200, 50, BS, seed=2),
    }
    return [query.u_update, query.v_update], inputs


def _als():
    query = als_loss_query(200, 150, 50, 0.05, BS)
    inputs = {
        "X": rand_sparse(200, 150, 0.05, BS, seed=7),
        "U": rand_dense(200, 50, BS, seed=3),
        "V": rand_dense(50, 150, BS, seed=4),
    }
    return [query.expr], inputs


def _autoencoder():
    model = AutoEncoder(
        AutoEncoderShapes(features=100, hidden1=50, hidden2=2), 75,
        block_size=BS,
    )
    inputs = model.initial_weights(seed=0)
    inputs["B"] = rand_sparse(75, 100, 0.05, BS, seed=5)
    return list(model.step_exprs), inputs


@pytest.mark.parametrize("workload", [_gnmf, _als, _autoencoder])
def test_fuseme_stage_shapes_follow_from_the_layout(workload):
    query, inputs = workload()
    engine = FuseMEEngine(make_config())
    cluster = SimulatedCluster(engine.config)
    result = engine.execute(query, inputs, cluster=cluster)
    expected = {}
    for op in result.physical_plan.ops:
        for member in op.members or (op,):
            plan = member.unit.plan
            operator = "cfo" if plan.contains_matmul else "cell"
            expected.setdefault(op.index, []).extend(
                expected_stages(plan, operator, member.pqr, engine.config, inputs)
            )
    assert executed_stages(cluster) == expected


def _systemds_bfo_unit():
    x = matrix_input("X", 200, 150, BS, density=0.05)
    u = matrix_input("U", 200, 50, BS)
    v = matrix_input("V", 150, 50, BS)
    inputs = {
        "X": rand_sparse(200, 150, 0.05, BS, seed=1),
        "U": rand_dense(200, 50, BS, seed=2),
        "V": rand_dense(150, 50, BS, seed=3),
    }
    return sum_of(x * log(u @ v.T + 1.0)), inputs, 1 << 20


def _systemds_rfo_unit():
    x = matrix_input("X", 200, 150, BS, density=0.2)
    u = matrix_input("U", 200, 50, BS)
    v = matrix_input("V", 150, 50, BS)
    inputs = {
        "X": rand_sparse(200, 150, 0.2, BS, seed=1),
        "U": rand_dense(200, 50, BS, seed=2),
        "V": rand_dense(150, 50, BS, seed=3),
    }
    return x * (u @ v.T), inputs, 8 * 1024


@pytest.mark.parametrize("operator, case", [
    ("bfo", _systemds_bfo_unit), ("rfo", _systemds_rfo_unit),
])
def test_systemds_stage_shapes_follow_from_the_layout(operator, case):
    expr, inputs, split = case()
    engine = SystemDSLikeEngine(make_config(input_split_bytes=split))
    cluster = SimulatedCluster(engine.config)
    result = engine.execute(expr, inputs, cluster=cluster)
    ops = result.physical_plan.ops
    choices = [choice.split(":", 1)[0] for choice in engine.last_choices]
    assert operator in choices
    expected = {
        op.index: expected_stages(
            op.unit.plan, choice, None, engine.config, inputs
        )
        for op, choice in zip(ops, choices)
    }
    assert executed_stages(cluster) == expected


# -- the Block memo -------------------------------------------------------------


def _sparse_x_inputs():
    inputs = dense_inputs()
    inputs["X"] = rand_sparse(M, N, 0.05, BS, seed=6)
    return inputs


@pytest.mark.parametrize("make_inputs", [dense_inputs, _sparse_x_inputs])
@pytest.mark.parametrize("kind", sorted(OPERATORS))
def test_output_blocks_memoise_their_true_counts(kind, make_inputs):
    """Every stored output block — one-block tiles are stored as is, larger
    tiles are cut into new blocks — has memoised the ``nnz`` its payload
    holds, and any ``nbytes`` it memoised is the payload's too."""
    operator_cls, make_plan = OPERATORS[kind]
    config = make_config()
    out = operator_cls(make_plan(), config).execute(
        SimulatedCluster(config), make_inputs()
    )
    matrices = out.values() if isinstance(out, dict) else (out,)
    blocks = [block for matrix in matrices for block in matrix.blocks.values()]
    assert blocks
    for block in blocks:
        recount = Block(block.data.copy())
        assert block._nnz == recount.nnz > 0
        assert block._nbytes in (-1, recount.nbytes)
        assert block.nbytes == recount.nbytes
