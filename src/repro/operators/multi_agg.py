"""The Multi-aggregation fused operator (Figure 2(d)).

Several aggregations over shared inputs — e.g. ``sum(U * X)`` and
``sum(X * V)`` — execute as one operator with multiple outputs: each task
scans its blocks of the shared inputs *once* and accumulates every
aggregation in the same pass, avoiding the redundant scans separate
operators would pay.
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
from repro.core.plan import MultiAggPlan
from repro.errors import ExecutionError, PlanError
from repro.lang.dag import AggNode, InputNode, Node, TransposeNode
from repro.matrix.distributed import BlockedMatrix

Env = Mapping[object, BlockedMatrix]
Edge = tuple[Node, int]
GroupKey = tuple[int, tuple[int, int]]  # (root index, output block offset)


class MultiAggregationOperator:
    """Runs a :class:`MultiAggPlan`: one shared scan, many aggregates."""

    def __init__(self, plan: MultiAggPlan, config: EngineConfig):
        if plan.contains_matmul:
            raise PlanError(
                "multi-aggregation fusion covers element-wise chains only"
            )
        self.plan = plan
        self.config = config
        self.roots = plan.roots
        base = self.roots[0].inputs[0].meta.block_grid
        for root in self.roots:
            if root.inputs[0].meta.block_grid != base:
                raise PlanError(
                    "multi-aggregation roots must share one block grid"
                )
        self.base_grid = base
        self._flips = self._orientation_flags()

    def _orientation_flags(self) -> Dict[Edge, bool]:
        flips: Dict[Edge, bool] = {}
        node_flip: Dict[int, bool] = {
            root.node_id: False for root in self.roots
        }
        for node in reversed(self.plan.topo_nodes()):
            flip = node_flip.get(node.node_id)
            if flip is None:
                continue
            child_flip = not flip if isinstance(node, TransposeNode) else flip
            for idx, child in enumerate(node.inputs):
                if child in self.plan.nodes:
                    node_flip.setdefault(child.node_id, child_flip)
                else:
                    flips[(node, idx)] = child_flip
        return flips

    # -- execution ----------------------------------------------------------

    def execute(self, cluster: SimulatedCluster, env: Env) -> Dict[Node, BlockedMatrix]:
        values = self._resolve_frontier(env)
        # graph-pass sharing annotation, captured once per execute
        shared = {
            node.node_id
            for node in self.plan.frontier()
            if env_key_of(node) in cluster.shared_inputs
        }
        grid_rows, grid_cols = self.base_grid
        keys = [(bi, bj) for bi in range(grid_rows) for bj in range(grid_cols)]
        num_tasks = min(cluster.total_tasks, len(keys))
        task_partials: list[Dict[GroupKey, Block]] = []

        with cluster.stage(f"multi-agg:{len(self.roots)}-outputs") as stage:
            work = [(t, stage.task()) for t in range(num_tasks)]
            for t, task in work:
                received: Dict[tuple[int, tuple], Block] = {}
                partials: Dict[GroupKey, Block] = {}
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
                                task.receive(block)  # shared inputs move ONCE
                            received[cache_key] = block
                        frontier[edge] = block
                    slice_env = SliceEnv(frontier=frontier)
                    for index, root in enumerate(self.roots):
                        out = evaluate_slice(self.plan, slice_env, root=root)
                        group = (index, self._agg_group(root, key))
                        if group in partials:
                            partials[group] = aggregate_combine(
                                root.kernel, partials[group], out
                            )
                        else:
                            partials[group] = out
                    task.add_flops(slice_env.flops)
                for block in partials.values():
                    task.hold_output(block)
                task_partials.append(partials)

        return self._combine(cluster, task_partials)

    def _agg_group(self, root: AggNode, key: tuple[int, int]) -> tuple[int, int]:
        axis = AGGREGATION_KERNELS[root.kernel].axis
        if axis == "all":
            return (0, 0)
        if axis == "row":
            return (key[0], 0)
        return (0, key[1])

    def _combine(
        self,
        cluster: SimulatedCluster,
        task_partials: list[Dict[GroupKey, Block]],
    ) -> Dict[Node, BlockedMatrix]:
        results = {
            root: BlockedMatrix(root.meta) for root in self.roots
        }
        with cluster.stage("multi-agg:final") as stage:
            task = stage.task()
            groups: Dict[GroupKey, Block] = {}
            for partials in task_partials:
                for group, block in sorted(partials.items()):
                    task.receive(block, kind=TransferKind.AGGREGATION)
                    root = self.roots[group[0]]
                    if group in groups:
                        groups[group] = aggregate_combine(
                            root.kernel, groups[group], block
                        )
                    else:
                        groups[group] = block
            for (index, key), block in groups.items():
                task.hold_output(block)
                if block.nnz:
                    results[self.roots[index]].set_block(key[0], key[1], block)
        return results

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
