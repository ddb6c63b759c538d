"""A TensorFlow-XLA-like baseline: single-node, fully fused execution.

TensorFlow with XLA (Section 6.5) compiles the whole DAG into fused kernels
on one machine: there is no cluster communication at all, but also no
cluster — compute bandwidth is a single node's, and the working set must fit
one machine's memory.  This engine lowers the DAG to one synthetic unit,
evaluates it with the numpy reference interpreter, charges flops from the
actual operand shapes, and models elapsed time as pure single-node
computation.
"""

from __future__ import annotations

import time
from typing import Dict, Mapping

import numpy as np

from repro.cluster.executor import SimulatedCluster
from repro.cluster.metrics import StageRecord
from repro.core.physical import PhysicalPlan, UnitEstimate, UnitOp
from repro.errors import TaskOutOfMemoryError
from repro.execution import Engine
from repro.lang.dag import DAG, Node
from repro.lang.interpreter import evaluate_many
from repro.matrix.distributed import BlockedMatrix
from repro.matrix.generators import from_numpy


class LocalXLAEngine(Engine):
    """Whole-DAG fused execution on one node (no distribution)."""

    name = "TensorFlow"

    @property
    def node_memory(self) -> int:
        """One machine's memory: every task slot's budget on one node."""
        cluster = self.config.cluster
        return cluster.task_memory_budget * cluster.tasks_per_node

    def lower_dag(self, dag: DAG) -> PhysicalPlan:
        """XLA compiles the whole DAG into one fused kernel, so the physical
        plan is a single synthetic unit covering every root — no fusion plan
        and no per-unit cuboid search behind it."""
        flops = float(sum(n.estimated_flops() for n in dag.operators()))
        op = UnitOp(
            index=0,
            unit=None,
            kind="xla-fused",
            deps=(),
            outputs=tuple(dag.roots),
            releases=(),
            estimate=UnitEstimate(net_bytes=0.0, flops=flops),
            name="xla:fused",
        )
        return PhysicalPlan(dag, [op], engine_name=self.name)

    def run_unit(
        self,
        op: UnitOp,
        cluster: SimulatedCluster,
        env: Mapping[object, BlockedMatrix],
    ) -> Dict[Node, BlockedMatrix]:
        """Evaluate every root in one pass on one node and record the run as
        a single one-task stage: no traffic, ``flops / Bc`` plus one launch."""
        wall_start = time.perf_counter()
        # the one unit runs first, so the environment holds only the inputs
        working_set = sum(matrix.nbytes for matrix in env.values())
        flops = 0
        peak = working_set
        for node in DAG(op.outputs).operators():
            flops += node.estimated_flops()
            # fused execution still holds each operator's output briefly
            peak = max(peak, working_set + node.meta.estimated_bytes)
        if peak > self.node_memory:
            raise TaskOutOfMemoryError("xla-node", int(peak), self.node_memory)

        arrays = evaluate_many(
            list(op.outputs),
            {name: matrix.to_numpy() for name, matrix in env.items()},
        )
        outputs = {
            root: from_numpy(np.atleast_2d(array), block_size=root.meta.block_size)
            for root, array in zip(op.outputs, arrays)
        }
        config = self.config.cluster
        cluster.metrics.record(
            StageRecord(
                name="xla:fused",
                num_tasks=1,
                consolidation_bytes=0,
                aggregation_bytes=0,
                flops=int(flops),
                seconds=flops / config.compute_bandwidth
                + config.task_launch_overhead,
                peak_task_memory=int(peak),
                unit=cluster.current_unit,
                wall_seconds=time.perf_counter() - wall_start,
            )
        )
        return outputs
