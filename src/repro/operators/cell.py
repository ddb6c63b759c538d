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

from functools import partial
from typing import Dict, Union

from repro.cluster.executor import SimulatedCluster
from repro.config import EngineConfig
from repro.core.plan import MultiAggPlan, PartialFusionPlan
from repro.core.stages import (
    FREE,
    NETWORK,
    Binding,
    Cell,
    Edge,
    Env,
    TaskSpec,
    TaskTable,
    resolve_frontier,
    run_tasks,
)
from repro.errors import PlanError
from repro.lang.dag import AggNode, Node, TransposeNode
from repro.matrix.distributed import BlockedMatrix


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
        first = self.roots[0]
        base = (
            first.inputs[0] if isinstance(first, AggNode) else first
        ).meta.block_grid
        for root in self.roots[1:]:
            if root.inputs[0].meta.block_grid != base:
                raise PlanError(
                    "multi-aggregation roots must share one block grid"
                )
        self.base_grid = base

    def execute(
        self, cluster: SimulatedCluster, env: Env
    ) -> Union[BlockedMatrix, Dict[Node, BlockedMatrix]]:
        values = resolve_frontier(self.plan, env)
        tasks = cluster.total_tasks
        table = self.plan.derived(
            ("cell_table", tasks), partial(self._compile, tasks)
        )
        results = run_tasks(table, self.plan, cluster, values)
        if self.multi:
            return dict(zip(self.roots, results))
        return results[0]

    def _compile(self, total_tasks: int) -> TaskTable:
        """The output's blocks dealt round-robin to at most *total_tasks*
        tasks.  A cell reads each frontier edge's source block at its key,
        flipped when the edge's grid is transposed relative to the base
        (root-input) grid; a task is charged for each block once, however
        many of its cells read it."""
        flips: Dict[Edge, bool] = {}
        node_flip = {root.node_id: False for root in self.roots}
        for node in reversed(self.plan.topo_nodes()):
            flip = node_flip[node.node_id] ^ isinstance(node, TransposeNode)
            for index, child in enumerate(node.inputs):
                if child in self.plan.nodes:
                    node_flip[child.node_id] = flip
                else:
                    flips[(node, index)] = flip
        grid_rows, grid_cols = self.base_grid
        keys = [(bi, bj) for bi in range(grid_rows) for bj in range(grid_cols)]
        num_tasks = min(total_tasks, len(keys))
        block_size = self.roots[0].meta.block_size
        tasks = []
        for t in range(num_tasks):
            seen: set = set()
            cells = []
            for key in keys[t::num_tasks]:
                reads: Dict[tuple, list] = {}
                for (node, index), flip in flips.items():
                    read = (node.inputs[index], *(key[::-1] if flip else key))
                    reads.setdefault(read, []).append((node, index))
                bindings = tuple(
                    Binding(
                        *read, tuple(edges),
                        FREE if read in seen else NETWORK, grid=True,
                    )
                    for read, edges in reads.items()
                )
                seen.update(reads)
                origin = (key[0] * block_size, key[1] * block_size)
                cells.append(Cell(key, origin, bindings))
            tasks.append(TaskSpec(tuple(cells)))
        if self.multi:
            names = (f"multi-agg:{len(self.roots)}-outputs", "multi-agg:final")
        else:
            names = (f"cell:{self.plan.label()[:40]}", "cell:final-agg")
        return TaskTable(self.roots, ((names[0], tuple(tasks)),), names[1])
