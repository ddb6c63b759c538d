"""Cell-fused execution of matmul-free plans.

Cell fusion (Figure 2(a)) chains element-wise operators block-by-block: the
grids of all operands align (transposes flip orientation, which is resolved
when fetching source blocks), so one task can produce each output block in a
single pass with no intermediate materialization.  Single unfused operators
(one unary/binary/transpose/aggregation node) run through the same machinery
as one-node plans.

Multi-aggregation fusion (Figure 2(d)) is the same pass with several
aggregate roots — e.g. ``sum(U * X)`` and ``sum(X * V)``: each task scans
its blocks of the shared inputs *once* and accumulates every aggregation,
avoiding the redundant scans separate operators would pay.
"""

from __future__ import annotations

from typing import Dict, Union

from repro.blocks import Block
from repro.cluster.executor import SimulatedCluster
from repro.config import EngineConfig
from repro.core.fused_eval import SliceEnv, evaluate_slice
from repro.core.plan import MultiAggPlan, PartialFusionPlan
from repro.core.stages import Env, OutputSink, resolve_frontier, shared_sources
from repro.errors import PlanError
from repro.lang.dag import AggNode, Node, TransposeNode
from repro.matrix.distributed import BlockedMatrix

Edge = tuple[Node, int]


class FusedCellOperator:
    """Runs one matmul-free partial plan block-aligned on the cluster.

    A :class:`MultiAggPlan` runs as one pass over its roots' shared block
    grid and returns ``{root: BlockedMatrix}``; any other plan returns its
    root's matrix.
    """

    def __init__(self, plan: PartialFusionPlan, config: EngineConfig):
        if plan.contains_matmul:
            raise PlanError(
                "the cell operator covers element-wise chains only; plans "
                "containing matrix multiplication run on the CFO"
            )
        self.plan = plan
        self.config = config
        self.multi = isinstance(plan, MultiAggPlan)
        self.roots = plan.roots if self.multi else (plan.root,)
        self.is_agg = isinstance(self.roots[0], AggNode)
        base = (
            self.roots[0].inputs[0].meta if self.is_agg else self.roots[0].meta
        ).block_grid
        for root in self.roots[1:]:
            if root.inputs[0].meta.block_grid != base:
                raise PlanError(
                    "multi-aggregation roots must share one block grid"
                )
        self.base_grid = base
        self._flips = self._orientation_flags()

    # -- orientation ----------------------------------------------------------

    def _orientation_flags(self) -> Dict[Edge, bool]:
        """Whether each frontier edge's source grid is transposed relative to
        the base (root-input) grid."""
        flips: Dict[Edge, bool] = {}
        node_flip: Dict[int, bool] = {root.node_id: False for root in self.roots}

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

    def execute(
        self, cluster: SimulatedCluster, env: Env
    ) -> Union[BlockedMatrix, Dict[Node, BlockedMatrix]]:
        values = resolve_frontier(self.plan, env)
        shared = shared_sources(self.plan, cluster)
        grid_rows, grid_cols = self.base_grid
        keys = [(bi, bj) for bi in range(grid_rows) for bj in range(grid_cols)]
        num_tasks = min(cluster.total_tasks, len(keys))

        if self.multi:
            name = f"multi-agg:{len(self.roots)}-outputs"
            final = "multi-agg:final"
        else:
            name = f"cell:{self.plan.label()[:40]}"
            final = "cell:final-agg"
        sink = OutputSink(self.roots, final)
        block_size = self.roots[0].meta.block_size
        with cluster.stage(name) as stage:
            work = [(t, stage.task()) for t in range(num_tasks)]
            for t, task in work:
                received: Dict[tuple[int, tuple], Block] = {}
                for key in keys[t::num_tasks]:
                    frontier: Dict[Edge, Block] = {}
                    for edge, flipped in self._flips.items():
                        source = edge[0].inputs[edge[1]]
                        fetch = (key[1], key[0]) if flipped else key
                        cache_key = (source.node_id, fetch)
                        block = received.get(cache_key)
                        if block is None:
                            block = values[source].get_block(*fetch)
                            if source in shared:
                                task.receive_local(block)
                            else:
                                task.receive(block)  # each block moves ONCE
                            received[cache_key] = block
                        frontier[edge] = block
                    slice_env = SliceEnv(frontier=frontier)
                    row, col = key[0] * block_size, key[1] * block_size
                    for index, root in enumerate(self.roots):
                        out = evaluate_slice(self.plan, slice_env, root=root)
                        sink.emit(task, out, row, col, index)
                    task.add_flops(slice_env.flops)
                sink.end_task(task)
        results = sink.finish(cluster)
        if self.multi:
            return dict(zip(self.roots, results))
        return results[0]
