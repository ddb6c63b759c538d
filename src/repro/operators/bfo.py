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
from typing import Dict, Optional

from repro.blocks import Block
from repro.blocks.kernels import AGGREGATION_KERNELS
from repro.cluster.executor import SimulatedCluster
from repro.cluster.slice_cache import SliceCache
from repro.config import EngineConfig
from repro.core.cfo import _scatter_tile
from repro.core.fused_eval import SliceEnv, evaluate_masked_slice, evaluate_slice
from repro.core.plan import PartialFusionPlan
from repro.core.spaces import (
    Axis,
    AxisKind,
    SparsityMask,
    find_sparsity_mask,
    plan_layout,
)
from repro.core.stages import (
    Env,
    agg_offset,
    combine_into,
    final_aggregation,
    resolve_frontier,
    shared_sources,
)
from repro.lang.dag import AggNode, Node
from repro.matrix.distributed import BlockedMatrix

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
        values = resolve_frontier(self.plan, env)
        shared = shared_sources(self.plan, cluster)
        main = self.main_source(values)
        num_tasks = self.num_partitions(values)

        extent_i, extent_j, _ = self.mm.mm_dims()
        grid_keys = [(i, j) for i in range(extent_i) for j in range(extent_j)]
        owner = self._ownership(values, main, grid_keys, num_tasks)

        main_tag = self._main_tag(main)
        root = self.plan.root
        is_agg = isinstance(root, AggNode)
        axis = AGGREGATION_KERNELS[root.kernel].axis if is_agg else None
        result = BlockedMatrix(root.meta)
        task_partials: list[Dict[tuple[int, int], Block]] = []

        with cluster.stage("bfo:compute") as stage:
            work = [(t, stage.task()) for t in range(num_tasks)]
            for t, task in work:
                # broadcast: full copies of every non-main frontier source
                for source, matrix in values.items():
                    if source is not main:
                        receive = task.receive_local if source in shared else task.receive
                        receive(matrix.nbytes)
                # repartition: this task's main blocks
                owned = [key for key in grid_keys if owner[key] == t]
                receive = task.receive_local if main in shared else task.receive
                if main_tag is not None:
                    for key in owned:
                        fetch = key if main_tag[0].kind is AxisKind.I else (key[1], key[0])
                        block = values[main].blocks.get(fetch)
                        if block is not None:
                            receive(block)
                else:
                    receive(values[main].nbytes // num_tasks)

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
                        group = agg_offset(axis, *self._oriented(i, j))
                        combine_into(task, partials, group, out, root.kernel)
                    elif out.nnz:
                        task.hold_output(out)
                        self._place(result, out, i, j)
                if is_agg:
                    for block in partials.values():
                        task.hold_output(block)
                    task_partials.append(partials)

        if is_agg:
            with cluster.stage("bfo:final-agg") as stage:
                groups = final_aggregation(stage.task(), (
                    (key, root.kernel, block)
                    for partials in task_partials
                    for key, block in sorted(partials.items())
                ))
                for key, block in groups.items():
                    if block.nnz:
                        result.set_block(key[0], key[1], block)
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

    def _oriented(self, i: int, j: int) -> tuple[int, int]:
        """Output-grid block key of the model-space cell ``(i, j)``."""
        tag = self.tags.output_tag(self.plan.root)
        return (i, j) if tag[0].kind is AxisKind.I else (j, i)

    def _tile_shape(self, i: int, j: int) -> tuple[int, int]:
        meta = self.plan.root.meta
        if isinstance(self.plan.root, AggNode):
            meta = self.plan.root.inputs[0].meta
        return meta.block_dims(*self._oriented(i, j))

    def _place(self, result: BlockedMatrix, tile: Block, i: int, j: int) -> None:
        bi, bj = self._oriented(i, j)
        block_size = result.meta.block_size
        _scatter_tile(result, tile, bi * block_size, bj * block_size)
