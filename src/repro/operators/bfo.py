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

Each output block is the RFO's ``(P=I, Q=J, R=1)`` cuboid: a BFO differs
from the RFO only in which task evaluates a block and what that task is
charged, so its task table deals the RFO's cells out to the partitions.
Which task owns which block, and what it loads, depend on the live main
matrix, so the table is built per execute.
"""

from __future__ import annotations

import math
from typing import Dict

from repro.cluster.executor import SimulatedCluster
from repro.config import EngineConfig
from repro.core.plan import PartialFusionPlan
from repro.core.spaces import AxisKind
from repro.core.stages import (
    Env,
    TaskSpec,
    TaskTable,
    resolve_frontier,
    run_tasks,
)
from repro.lang.dag import Node
from repro.matrix.distributed import BlockedMatrix
from repro.operators.rfo import ReplicationFusedOperator


class BroadcastFusedOperator:
    """The RFO corner run with broadcast consolidation."""

    def __init__(self, plan: PartialFusionPlan, config: EngineConfig):
        self.plan = plan
        self.config = config
        #: the corner whose cuboids are this operator's cells
        self.corner = ReplicationFusedOperator(plan, config)

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
        values = resolve_frontier(self.plan, env)
        (result,) = run_tasks(
            self._table(values), self.plan, cluster, values, self.corner.mask
        )
        return result

    def _table(self, values: Dict[Node, BlockedMatrix]) -> TaskTable:
        """One task per partition of the main matrix.

        A task loads a full copy of every other frontier matrix, then its
        main blocks, and evaluates the corner cells it owns: an output
        block goes to the task holding its main block, and blocks with no
        stored main block are dealt round-robin, in row-major order.
        """
        main = self.main_source(values)
        matrix = values[main]
        num_tasks = self.num_partitions(values)
        # the main matrix's tag, if it is (I, J)-aligned
        tag = next((
            tag for (consumer, index), tag in self.corner.tags.frontier_tags.items()
            if consumer.inputs[index] is main
            and {tag[0].kind, tag[1].kind} == {AxisKind.I, AxisKind.J}
        ), None)
        flipped = tag is not None and tag[0].kind is AxisKind.J
        holder = {}
        if tag is not None:
            for idx, key in enumerate(sorted(matrix.blocks)):
                holder[key] = idx % num_tasks
        # the corner's cuboids, (i, j, 0) in row-major order
        corner = self.corner.task_table()
        ((_, cuboids),) = corner.stages
        cells: list[list] = [[] for _ in range(num_tasks)]
        loads: list[list] = [[] for _ in range(num_tasks)]
        dealt = 0
        extent_i, extent_j, _ = self.corner.mm.mm_dims()
        for i in range(extent_i):
            for j in range(extent_j):
                key = (j, i) if flipped else (i, j)
                task = holder.get(key)
                if task is None:
                    task = dealt % num_tasks
                    dealt += 1
                else:
                    loads[task].append((main, matrix.blocks[key].nbytes))
                cells[task].append(cuboids[i * extent_j + j].cells[0])
        if tag is None:
            loads = [[(main, matrix.nbytes // num_tasks)]] * num_tasks
        broadcast = tuple(
            (source, side.nbytes)
            for source, side in values.items() if source is not main
        )
        tasks = tuple(
            TaskSpec(tuple(owned), broadcast + tuple(own))
            for owned, own in zip(cells, loads)
        )
        return TaskTable(
            corner.roots, (("bfo:compute", tasks),), "bfo:final-agg", corner.mm
        )
