"""The Broadcast-based Fused Operator (Section 2.2).

BFO repartitions the main (largest) matrix across tasks and *broadcasts every
side matrix in full to every task*: communication ``|X| + T * (|U| + |V|)``
and per-task memory ``|X|/T + |U| + |V|`` — cheap traffic while the sides are
small, out-of-memory the moment they are not (the O.O.M. failures the paper
reports for SystemDS(B) in Figures 12 and 15).

The number of tasks equals the number of partitions the main matrix
repartitions into (its byte size over the input split size).  For a very
sparse main matrix that is far fewer than the cluster's slots, which starves
the cluster — the effect the paper's "overall analysis" calls out.
"""

from __future__ import annotations

import math
from typing import Dict, Mapping, Optional

from repro.blocks import Block
from repro.blocks.kernels import aggregate_combine, AGGREGATION_KERNELS
from repro.cluster.executor import SimulatedCluster
from repro.cluster.slice_cache import SliceCache
from repro.cluster.task import TransferKind
from repro.config import EngineConfig
from repro.core.cfo import _scatter_tile
from repro.core.fused_eval import SliceEnv, evaluate_masked_slice, evaluate_slice
from repro.core.physical import env_key_of
from repro.core.plan import PartialFusionPlan
from repro.core.spaces import (
    Axis,
    AxisKind,
    SparsityMask,
    find_sparsity_mask,
    plan_layout,
)
from repro.errors import ExecutionError
from repro.lang.dag import AggNode, InputNode, Node
from repro.matrix.distributed import BlockedMatrix

Env = Mapping[object, BlockedMatrix]
Edge = tuple[Node, int]


class BroadcastFusedOperator:
    """Physical fused operator with broadcast consolidation."""

    def __init__(self, plan: PartialFusionPlan, config: EngineConfig):
        self.plan = plan
        self.config = config
        layout = plan_layout(plan)
        self.tree = layout.tree
        self.mm = layout.mm
        self.tags = layout.tags
        self.mask: Optional[SparsityMask] = None
        if config.sparsity_exploitation:
            self.mask = find_sparsity_mask(plan, self.mm, self.tree)
        # rebound to the cluster's per-execute cache in execute()
        self._slices = SliceCache(enabled=False)

    # -- main-matrix selection ----------------------------------------------------

    def _frontier_sources(self) -> list[Node]:
        return list(self.plan.frontier())

    def main_source(self, values: Dict[Node, BlockedMatrix]) -> Node:
        """The largest frontier matrix: the one that gets repartitioned."""
        return max(
            values, key=lambda node: (values[node].nbytes, -node.node_id)
        )

    def num_partitions(self, values: Dict[Node, BlockedMatrix]) -> int:
        main = values[self.main_source(values)]
        split = self.config.cluster.input_split_bytes
        return max(1, math.ceil(main.nbytes / split))

    # -- execution --------------------------------------------------------------------

    def execute(self, cluster: SimulatedCluster, env: Env) -> BlockedMatrix:
        self._slices = cluster.slice_cache
        values = self._resolve_frontier(env)
        # graph-pass sharing annotation, captured once per execute
        shared = {
            node.node_id
            for node in self.plan.frontier()
            if env_key_of(node) in cluster.shared_inputs
        }
        main = self.main_source(values)
        num_tasks = self.num_partitions(values)

        extent_i, extent_j, _ = self.mm.mm_dims()
        grid_keys = [(i, j) for i in range(extent_i) for j in range(extent_j)]
        owner = self._ownership(values, main, grid_keys, num_tasks)

        main_tag = self._main_tag(main)
        is_agg = isinstance(self.plan.root, AggNode)
        result = BlockedMatrix(self.plan.root.meta)
        task_partials: list[Dict[tuple[int, int], Block]] = []

        with cluster.stage("bfo:compute") as stage:
            work = [(t, stage.task()) for t in range(num_tasks)]
            for t, task in work:
                # broadcast: full copies of every non-main frontier source
                for source, matrix in values.items():
                    if source is main:
                        continue
                    if source.node_id in shared:
                        task.receive_local(matrix.nbytes)
                    else:
                        task.receive(matrix.nbytes)
                # repartition: this task's main blocks
                owned = [key for key in grid_keys if owner[key] == t]
                main_shared = main.node_id in shared
                if main_tag is not None:
                    for key in owned:
                        fetch = key if main_tag[0].kind is AxisKind.I else (key[1], key[0])
                        block = values[main].blocks.get(fetch)
                        if block is not None:
                            if main_shared:
                                task.receive_local(block)
                            else:
                                task.receive(block)
                elif main_shared:
                    task.receive_local(values[main].nbytes // num_tasks)
                else:
                    task.receive(values[main].nbytes // num_tasks)

                partials: Dict[tuple[int, int], Block] = {}
                for i, j in owned:
                    slice_env = self._bind_block(values, i, j)
                    tile_shape = self._tile_shape(i, j)
                    if self.mask is not None:
                        out = evaluate_masked_slice(
                            self.plan, slice_env, self.mm, self.mask, tile_shape
                        )
                    else:
                        out = evaluate_slice(self.plan, slice_env)
                    task.add_flops(slice_env.flops)
                    if is_agg:
                        group = self._agg_group(i, j)
                        if group in partials:
                            partials[group] = aggregate_combine(
                                self.plan.root.kernel, partials[group], out
                            )
                        else:
                            partials[group] = out
                    else:
                        if out.nnz:
                            task.hold_output(out)
                            self._place(result, out, i, j)
                if is_agg:
                    for block in partials.values():
                        task.hold_output(block)
                    task_partials.append(partials)

        if is_agg:
            result = self._combine_aggregates(cluster, task_partials)
        # every block was shape-checked when it was placed
        result.meta = result.refreshed_meta()
        return result

    # -- per-block binding ----------------------------------------------------------------

    def _bind_block(
        self, values: Dict[Node, BlockedMatrix], i: int, j: int
    ) -> SliceEnv:
        frontier: Dict[Edge, Block] = {}
        for edge, tag in self.tags.frontier_tags.items():
            consumer, index = edge
            source = consumer.inputs[index]
            matrix = values[source]
            grid_rows, grid_cols = matrix.block_grid
            row_range = self._axis_range(tag[0], i, j, grid_rows)
            col_range = self._axis_range(tag[1], i, j, grid_cols)
            frontier[edge] = self._slices.get(matrix, row_range, col_range)
        return SliceEnv(frontier=frontier)

    @staticmethod
    def _axis_range(axis: Axis, i: int, j: int, grid_extent: int) -> tuple[int, int]:
        if axis.kind is AxisKind.I:
            return (i, i + 1)
        if axis.kind is AxisKind.J:
            return (j, j + 1)
        return (0, grid_extent)  # K and private axes stay whole

    # -- layout helpers -----------------------------------------------------------------------

    def _main_tag(self, main: Node) -> Optional[tuple[Axis, Axis]]:
        """Tag of the main matrix if it is (I, J)-aligned, else None."""
        for (consumer, index), tag in self.tags.frontier_tags.items():
            if consumer.inputs[index] is main:
                kinds = {tag[0].kind, tag[1].kind}
                if kinds == {AxisKind.I, AxisKind.J}:
                    return tag
        return None

    def _ownership(
        self,
        values: Dict[Node, BlockedMatrix],
        main: Node,
        grid_keys: list[tuple[int, int]],
        num_tasks: int,
    ) -> Dict[tuple[int, int], int]:
        """Assign each output block to the task holding its main block."""
        owner: Dict[tuple[int, int], int] = {}
        main_tag = self._main_tag(main)
        counter = 0
        stored: Dict[tuple[int, int], int] = {}
        if main_tag is not None:
            for idx, key in enumerate(sorted(values[main].blocks)):
                stored[key] = idx % num_tasks
        for key in grid_keys:
            fetch = key
            if main_tag is not None and main_tag[0].kind is AxisKind.J:
                fetch = (key[1], key[0])
            if fetch in stored:
                owner[key] = stored[fetch]
            else:
                owner[key] = counter % num_tasks
                counter += 1
        return owner

    def _root_tag(self) -> tuple[Axis, Axis]:
        root = self.plan.root
        if isinstance(root, AggNode):
            return self.tags.tag_of_operand(root, 0)
        return self.tags.operator_tags[root]

    def _tile_shape(self, i: int, j: int) -> tuple[int, int]:
        tag = self._root_tag()
        meta = self.plan.root.meta
        if isinstance(self.plan.root, AggNode):
            meta = self.plan.root.inputs[0].meta
        bi, bj = (i, j) if tag[0].kind is AxisKind.I else (j, i)
        return meta.block_dims(bi, bj)

    def _place(self, result: BlockedMatrix, tile: Block, i: int, j: int) -> None:
        tag = self._root_tag()
        bi, bj = (i, j) if tag[0].kind is AxisKind.I else (j, i)
        block_size = result.meta.block_size
        _scatter_tile(result, tile, bi * block_size, bj * block_size)

    def _agg_group(self, i: int, j: int) -> tuple[int, int]:
        assert isinstance(self.plan.root, AggNode)
        axis = AGGREGATION_KERNELS[self.plan.root.kernel].axis
        tag = self._root_tag()
        bi, bj = (i, j) if tag[0].kind is AxisKind.I else (j, i)
        if axis == "all":
            return (0, 0)
        if axis == "row":
            return (bi, 0)
        return (0, bj)

    def _combine_aggregates(
        self,
        cluster: SimulatedCluster,
        task_partials: list[Dict[tuple[int, int], Block]],
    ) -> BlockedMatrix:
        root = self.plan.root
        assert isinstance(root, AggNode)
        result = BlockedMatrix(root.meta)
        with cluster.stage("bfo:final-agg") as stage:
            task = stage.task()
            groups: Dict[tuple[int, int], Block] = {}
            for partials in task_partials:
                for key, block in sorted(partials.items()):
                    task.receive(block, kind=TransferKind.AGGREGATION)
                    if key in groups:
                        groups[key] = aggregate_combine(root.kernel, groups[key], block)
                    else:
                        groups[key] = block
            for key, block in groups.items():
                task.hold_output(block)
                if block.nnz:
                    result.set_block(key[0], key[1], block)
        return result

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
