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
charged, so it reuses the RFO's slab table, evaluation and tile geometry.
"""

from __future__ import annotations

import math
from typing import Dict, Optional

from repro.cluster.executor import SimulatedCluster
from repro.core.spaces import Axis, AxisKind
from repro.core.stages import Env, OutputSink, resolve_frontier, shared_sources
from repro.lang.dag import Node
from repro.matrix.distributed import BlockedMatrix
from repro.operators.rfo import ReplicationFusedOperator


class BroadcastFusedOperator(ReplicationFusedOperator):
    """The RFO corner run with broadcast consolidation."""

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
        main_tag = self._main_tag(main)
        owned = self._ownership(values[main], main_tag, num_tasks)
        sink = OutputSink((self.plan.root,), "bfo:final-agg")

        with cluster.stage("bfo:compute") as stage:
            work = [(cells, stage.task()) for cells in owned]
            for cells, task in work:
                # broadcast: full copies of every non-main frontier source
                for source, matrix in values.items():
                    if source is not main:
                        receive = task.receive_local if source in shared else task.receive
                        receive(matrix.nbytes)
                # repartition: this task's main blocks
                receive = task.receive_local if main in shared else task.receive
                if main_tag is not None:
                    for i, j in cells:
                        fetch = (i, j) if main_tag[0].kind is AxisKind.I else (j, i)
                        block = values[main].blocks.get(fetch)
                        if block is not None:
                            receive(block)
                else:
                    receive(values[main].nbytes // num_tasks)
                # the slabs are already on the task: bound without a charge
                for i, j in cells:
                    slab_env = self._bind_slices(values, (i, j, 0))
                    tile = self._finish(slab_env, i, j)
                    task.add_flops(slab_env.flops)
                    sink.emit(task, tile, *self._origin(i, j))
                sink.end_task(task)
        (result,) = sink.finish(cluster)
        return result

    # -- ownership ---------------------------------------------------------------------

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
        main: BlockedMatrix,
        main_tag: Optional[tuple[Axis, Axis]],
        num_tasks: int,
    ) -> list[list[tuple[int, int]]]:
        """Each task's ``(i, j)`` output blocks, in row-major order.

        A block goes to the task holding its main block; blocks with no
        stored main block are dealt round-robin.
        """
        stored: Dict[tuple[int, int], int] = {}
        if main_tag is not None:
            for idx, key in enumerate(sorted(main.blocks)):
                stored[key] = idx % num_tasks
        flipped = main_tag is not None and main_tag[0].kind is AxisKind.J
        owned: list[list[tuple[int, int]]] = [[] for _ in range(num_tasks)]
        counter = 0
        extent_i, extent_j, _ = self.mm.mm_dims()
        for i in range(extent_i):
            for j in range(extent_j):
                task = stored.get((j, i) if flipped else (i, j))
                if task is None:
                    task = counter % num_tasks
                    counter += 1
                owned[task].append((i, j))
        return owned
