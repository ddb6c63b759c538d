"""A TensorFlow-XLA-like baseline: single-node, fully fused execution.

TensorFlow with XLA (Section 6.5) compiles the whole DAG into fused kernels
on one machine: there is no cluster communication at all, but also no
cluster — compute bandwidth is a single node's, and the working set must fit
one machine's memory.  This engine evaluates the DAG with the numpy
reference interpreter, charges flops from the actual operand shapes, and
models elapsed time as pure single-node computation.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import replace
from typing import Dict, Mapping, Optional

import numpy as np

from repro.cluster.metrics import MetricsCollector, StageRecord
from repro.cluster.slice_cache import SliceCache
from repro.config import EngineConfig
from repro.core.calibration import CalibrationStore
from repro.core.physical import PhysicalPlan, UnitEstimate, UnitOp
from repro.core.plan_cache import PlanCache
from repro.errors import TaskOutOfMemoryError
from repro.execution import (
    ExecutionResult,
    Query,
    as_dag,
    emit_profile_telemetry,
)
from repro.lang.dag import Node
from repro.lang.interpreter import evaluate_many
from repro.matrix.distributed import BlockedMatrix
from repro.matrix.generators import from_numpy
from repro.obs import EventBus, QueryProfile, SpanTracer, UnitProfile


class LocalXLAEngine:
    """Whole-DAG fused execution on one node (no distribution)."""

    name = "TensorFlow"

    def __init__(self, config: Optional[EngineConfig] = None):
        self.config = config or EngineConfig()
        #: Same telemetry surface as the distributed engines: attach sinks
        #: to receive query profiles and counters.
        self.telemetry = EventBus()
        self.last_profile: Optional[QueryProfile] = None
        # the serving layer's duck-type surface (status pages, result-cache
        # keys).  XLA "recompiles" per query, so the plan
        # cache stays empty and the slice cache disabled; the calibration
        # store exists but this engine never feeds it.
        self.plan_cache = PlanCache(self.config.plan_cache_size)
        self.slice_cache = SliceCache(enabled=False)
        self.calibration = CalibrationStore(
            window=self.config.calibration_window,
            min_samples=self.config.calibration_min_samples,
        )

    def planning_signature(self) -> tuple:
        """Everything that can steer this engine's (trivial) planning —
        the result-cache key component, mirroring
        :meth:`repro.execution.Engine.planning_signature`."""
        cluster = self.config.cluster
        return (
            type(self).__name__,
            self.name,
            cluster.tasks_per_node,
            cluster.task_memory_budget,
            cluster.compute_bandwidth,
            cluster.task_launch_overhead,
            self.config.block_size,
        )

    def close(self) -> None:
        """No runtime resources to release (single-node, no worker pool)."""

    @property
    def node_memory(self) -> int:
        """One machine's memory: every task slot's budget on one node."""
        cluster = self.config.cluster
        return cluster.task_memory_budget * cluster.tasks_per_node

    def lower_query(self, query: Query, inputs=None) -> PhysicalPlan:
        """XLA compiles the whole DAG into one fused kernel, so the physical
        plan is a single synthetic unit covering every root — no fusion plan
        and no per-unit cuboid search behind it."""
        dag = as_dag(query)
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

    def explain(self, query: Query, inputs=None) -> str:
        """Render the (single-unit) physical plan without executing."""
        return self.lower_query(query, inputs).render()

    def profile(
        self,
        query: Query,
        inputs: Mapping[str, BlockedMatrix],
        cluster: object = None,
    ) -> QueryProfile:
        """Execute *query* and return its accountability report (the same
        contract as :meth:`repro.execution.Engine.profile`)."""
        if not self.config.telemetry:
            raise RuntimeError(
                "engine.profile() needs telemetry; this engine was built "
                "with EngineConfig.telemetry=False"
            )
        result = self.execute(query, inputs, cluster)
        assert result.profile is not None
        self.last_profile = replace(result.profile, result=result)
        return self.last_profile

    def execute(
        self,
        query: Query,
        inputs: Mapping[str, BlockedMatrix],
        cluster: object = None,
    ) -> ExecutionResult:
        dag = as_dag(query)
        dag.validate_inputs(inputs.keys())

        # telemetry is observability only — the modeled numbers and outputs
        # below are identical whether the tracer exists or not
        tracer = SpanTracer() if self.config.telemetry else None
        with (
            tracer.span("query", "query", engine=self.name)
            if tracer else nullcontext()
        ):
            with (
                tracer.span("plan", "planning")
                if tracer else nullcontext()
            ) as plan_span:
                physical = self.lower_query(dag)
            if plan_span is not None:
                plan_span.attrs.update(cache_hit=False, units=1, waves=1)

            with (
                tracer.span("execute", "execution")
                if tracer else nullcontext()
            ) as exec_span:
                working_set = sum(m.nbytes for m in inputs.values())
                flops = 0
                peak = working_set
                for node in dag.operators():
                    flops += node.estimated_flops()
                    # fused execution still holds each operator's output briefly
                    peak = max(peak, working_set + node.meta.estimated_bytes)
                if peak > self.node_memory:
                    raise TaskOutOfMemoryError(
                        "xla-node", int(peak), self.node_memory
                    )

                env = {name: matrix.to_numpy() for name, matrix in inputs.items()}
                arrays = evaluate_many(list(dag.roots), env)

        cluster_cfg = self.config.cluster
        seconds = flops / cluster_cfg.compute_bandwidth + cluster_cfg.task_launch_overhead
        metrics = MetricsCollector()
        metrics.record(
            StageRecord(
                name="xla:fused",
                num_tasks=1,
                consolidation_bytes=0,
                aggregation_bytes=0,
                flops=int(flops),
                seconds=seconds,
                peak_task_memory=int(peak),
                unit=0,
            )
        )
        outputs: Dict[Node, BlockedMatrix] = {}
        for root, array in zip(dag.roots, arrays):
            outputs[root] = from_numpy(
                np.atleast_2d(array), block_size=root.meta.block_size
            )
        result = ExecutionResult(
            outputs=outputs,
            metrics=metrics,
            fusion_plan=None,
            dag=dag,
            physical_plan=physical,
        )
        if tracer is not None:
            result.profile = self._build_profile(
                physical, metrics, tracer, exec_span, seconds
            )
            self.last_profile = result.profile
            emit_profile_telemetry(self.telemetry, result.profile)
        return result

    def _build_profile(
        self,
        physical: PhysicalPlan,
        metrics: MetricsCollector,
        tracer: SpanTracer,
        exec_span,
        seconds: float,
    ) -> QueryProfile:
        span = tracer.root
        span.modeled_start = exec_span.modeled_start = 0.0
        span.modeled_end = exec_span.modeled_end = seconds
        op = physical.ops[0]
        record = metrics.stages[0]
        unit_span = exec_span.child(
            "unit[0]", "unit", kind=op.kind, label=op.label()
        )
        unit_span.wall_start = exec_span.wall_start
        unit_span.wall_end = exec_span.wall_end
        unit_span.modeled_start, unit_span.modeled_end = 0.0, seconds
        stage_span = unit_span.child(
            record.name,
            "stage",
            num_tasks=record.num_tasks,
            comm_bytes=record.comm_bytes,
            flops=record.flops,
        )
        stage_span.modeled_start, stage_span.modeled_end = 0.0, seconds
        est = op.estimate
        unit = UnitProfile(
            index=0,
            kind=op.kind,
            label=op.label(),
            predicted_net_bytes=est.net_bytes,
            predicted_flops=est.flops,
            measured_seconds=seconds,
            measured_comm_bytes=float(record.comm_bytes),
            measured_flops=float(record.flops),
            num_stages=1,
            num_tasks=record.num_tasks,
        )
        return QueryProfile(
            engine=self.name,
            units=(unit,),
            totals=metrics.totals(),
            counters=dict(metrics.counters),
            span=span,
            wall_seconds=span.wall_seconds,
        )
