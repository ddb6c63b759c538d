"""Cell-fused execution of matmul-free plans.

Cell fusion (Figure 2(a)) chains element-wise operators block-by-block: the
grids of all operands align (transposes flip orientation, which is resolved
when fetching source blocks), so one task can produce each output block in a
single pass with no intermediate materialization.  Single unfused operators
(one unary/binary/transpose/aggregation node) run through the same machinery
as one-node plans.
"""

from __future__ import annotations

from typing import Dict, Mapping

from repro.blocks import Block
from repro.blocks.kernels import AGGREGATION_KERNELS, aggregate_combine
from repro.cluster.executor import SimulatedCluster
from repro.cluster.task import TransferKind
from repro.config import EngineConfig
from repro.core.fused_eval import SliceEnv, evaluate_slice
from repro.core.physical import env_key_of
from repro.core.plan import PartialFusionPlan
from repro.errors import ExecutionError, PlanError
from repro.lang.dag import AggNode, InputNode, Node, TransposeNode
from repro.matrix.distributed import BlockedMatrix

Env = Mapping[object, BlockedMatrix]
Edge = tuple[Node, int]


class FusedCellOperator:
    """Runs one matmul-free partial plan block-aligned on the cluster."""

    def __init__(self, plan: PartialFusionPlan, config: EngineConfig):
        if plan.contains_matmul:
            raise PlanError(
                "FusedCellOperator cannot run plans containing matrix "
                "multiplication; use the CFO"
            )
        self.plan = plan
        self.config = config
        self.root = plan.root
        self._flips = self._orientation_flags()

    # -- orientation ----------------------------------------------------------

    def _orientation_flags(self) -> Dict[Edge, bool]:
        """Whether each frontier edge's source grid is transposed relative to
        the base (root-input) grid."""
        flips: Dict[Edge, bool] = {}
        node_flip: Dict[int, bool] = {self.root.node_id: False}

        for node in reversed(self.plan.topo_nodes()):
            flip = node_flip[node.node_id]
            child_flip = not flip if isinstance(node, TransposeNode) else flip
            for idx, child in enumerate(node.inputs):
                if child in self.plan.nodes:
                    node_flip[child.node_id] = child_flip
                else:
                    flips[(node, idx)] = child_flip
        return flips

    # -- execution -------------------------------------------------------------------

    def execute(self, cluster: SimulatedCluster, env: Env) -> BlockedMatrix:
        values = self._resolve_frontier(env)
        # graph-pass sharing annotation, captured once per execute
        shared = {
            node.node_id
            for node in self.plan.frontier()
            if env_key_of(node) in cluster.shared_inputs
        }
        base_meta = self._base_meta()
        grid_rows, grid_cols = base_meta.block_grid
        keys = [(bi, bj) for bi in range(grid_rows) for bj in range(grid_cols)]
        num_tasks = min(cluster.total_tasks, len(keys))

        is_agg = isinstance(self.root, AggNode)
        result = BlockedMatrix(self.root.meta)
        task_partials: list[Dict[tuple[int, int], Block]] = []

        with cluster.stage(f"cell:{self.plan.label()[:40]}") as stage:
            work = [(t, stage.task()) for t in range(num_tasks)]
            for t, task in work:
                received: Dict[tuple[int, tuple], Block] = {}
                partials: Dict[tuple[int, int], Block] = {}
                for key in keys[t::num_tasks]:
                    frontier: Dict[Edge, Block] = {}
                    for edge, flipped in self._flips.items():
                        source = edge[0].inputs[edge[1]]
                        fetch = (key[1], key[0]) if flipped else key
                        cache_key = (source.node_id, fetch)
                        block = received.get(cache_key)
                        if block is None:
                            block = values[source].get_block(*fetch)
                            if source.node_id in shared:
                                task.receive_local(block)
                            else:
                                task.receive(block)
                            received[cache_key] = block
                        frontier[edge] = block
                    slice_env = SliceEnv(frontier=frontier)
                    out = evaluate_slice(self.plan, slice_env)
                    task.add_flops(slice_env.flops)
                    if is_agg:
                        group = self._agg_group(key)
                        if group in partials:
                            partials[group] = aggregate_combine(
                                self.root.kernel, partials[group], out
                            )
                            task.add_flops(out.shape[0] * out.shape[1])
                        else:
                            partials[group] = out
                    else:
                        if out.nnz:
                            task.hold_output(out)
                            result.set_block(key[0], key[1], out)
                if is_agg:
                    for block in partials.values():
                        task.hold_output(block)
                    task_partials.append(partials)

        if is_agg:
            result = self._combine_aggregates(cluster, task_partials)
        # every block was shape-checked when it was placed
        result.meta = result.refreshed_meta()
        return result

    # -- aggregation roots -------------------------------------------------------------

    def _agg_group(self, key: tuple[int, int]) -> tuple[int, int]:
        assert isinstance(self.root, AggNode)
        axis = AGGREGATION_KERNELS[self.root.kernel].axis
        if axis == "all":
            return (0, 0)
        if axis == "row":
            return (key[0], 0)
        return (0, key[1])

    def _combine_aggregates(
        self,
        cluster: SimulatedCluster,
        task_partials: list[Dict[tuple[int, int], Block]],
    ) -> BlockedMatrix:
        assert isinstance(self.root, AggNode)
        result = BlockedMatrix(self.root.meta)
        with cluster.stage("cell:final-agg") as stage:
            task = stage.task()
            groups: Dict[tuple[int, int], Block] = {}
            for partials in task_partials:
                for key, block in sorted(partials.items()):
                    task.receive(block, kind=TransferKind.AGGREGATION)
                    if key in groups:
                        groups[key] = aggregate_combine(
                            self.root.kernel, groups[key], block
                        )
                        task.add_flops(block.shape[0] * block.shape[1])
                    else:
                        groups[key] = block
            for key, block in groups.items():
                task.hold_output(block)
                if block.nnz:
                    result.set_block(key[0], key[1], block)
        return result

    # -- helpers ----------------------------------------------------------------------------

    def _base_meta(self):
        if isinstance(self.root, AggNode):
            return self.root.inputs[0].meta
        return self.root.meta

    def _resolve_frontier(self, env: Env) -> Dict[Node, BlockedMatrix]:
        values: Dict[Node, BlockedMatrix] = {}
        for node in self.plan.frontier():
            value = env.get(node.node_id)
            if value is None and isinstance(node, InputNode):
                value = env.get(node.name)
            if value is None:
                raise ExecutionError(f"no binding for frontier node {node!r}")
            values[node] = value
        return values
