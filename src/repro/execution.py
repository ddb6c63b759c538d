"""Shared engine skeleton.

Every engine in this repository — FuseME and the four baselines — executes a
query the same way: plan the DAG into a fusion plan, *lower* it to a typed
:class:`~repro.core.physical.PhysicalPlan` (operator kinds, cuboid
parameters, cost estimates, dependency edges, materialization lifetimes),
then run the unit graph on the simulated cluster in plan order.  Engines
differ only in *how they plan* (which operators fuse) and *which physical
operator runs a unit* — exactly the axes the paper's evaluation compares.
By default a unit with a multiplication runs on the CFO at its lowered
``(P, Q, R)`` and any other on the cell operator
(:meth:`Engine.run_unit`); the baselines override only that choice.
The single-node baseline plans without a fusion plan: it overrides
:meth:`Engine.lower_dag` to lower the whole DAG to one synthetic unit.

The physical plan is also the introspection surface: :meth:`Engine.explain`
plans and lowers a query without opening a single cluster stage.  A query's
telemetry is one record, the predicted-vs-measured join that
:mod:`repro.core.profiling` builds into ``result.profile``.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace
from typing import Dict, Mapping, Optional, Sequence, Union

from repro.cluster.executor import SimulatedCluster
from repro.cluster.metrics import MetricsCollector
from repro.cluster.slice_cache import SliceCache
from repro.config import EngineConfig
from repro.obs import QueryProfile
from repro.core.calibration import (
    REPLAN_THRESHOLD,
    CalibrationStore,
    KernelCalibration,
    sparsity_bucket,
)
from repro.core.cfo import CuboidFusedOperator
from repro.core.optimizer import optimize_parameters
from repro.core.physical import (
    PhysicalPlan,
    UnitAnnotation,
    UnitEstimate,
    UnitOp,
    estimate_from_search,
    generic_unit_estimate,
    lower_plan,
    run_physical_plan,
)
from repro.core.passes import run_graph_passes
from repro.core.plan import FusionPlan, MultiAggPlan, PlanUnit
from repro.core.plan_cache import PlanCache, PlanCacheEntry, dag_fingerprint
from repro.core.profiling import build_profile
from repro.errors import PlanError
from repro.lang.builder import Expr
from repro.lang.dag import DAG, InputNode, Node
from repro.matrix.distributed import BlockedMatrix
from repro.operators.cell import FusedCellOperator

Query = Union[DAG, Expr, Sequence[Expr]]


def as_dag(query: Query) -> DAG:
    """Normalize a query (expression, list of expressions, or DAG) to a DAG."""
    if isinstance(query, DAG):
        return query
    if isinstance(query, Expr):
        return DAG(query.node)
    return DAG([e.node for e in query])


@dataclass
class ExecutionResult:
    """Materialized outputs plus everything measured along the way."""

    outputs: Dict[Node, BlockedMatrix]
    metrics: MetricsCollector
    fusion_plan: Optional[FusionPlan]
    dag: Optional[DAG] = None
    #: The lowered unit graph this query executed through (None only for
    #: hand-built results).
    physical_plan: Optional[PhysicalPlan] = None
    #: The query's telemetry record: every unit's cost-model prediction
    #: joined with its measured stage totals (None when
    #: ``EngineConfig.telemetry`` is off).  ``profile.render()`` is the
    #: engine's EXPLAIN ANALYZE.  The profile holds no reference
    #: back to the result, so dropping the result frees its outputs (and the
    #: slabs they pinned) by refcount, without waiting for the cyclic
    #: collector.
    profile: Optional[QueryProfile] = None

    def __post_init__(self) -> None:
        if self.dag is None and self.fusion_plan is not None:
            self.dag = self.fusion_plan.dag

    def output(self, index: int = 0) -> BlockedMatrix:
        """The *index*-th root's result (most queries have one root)."""
        if self.dag is None:
            raise ValueError(
                "ExecutionResult has no DAG attached; read .outputs directly"
            )
        roots = list(self.dag.roots)
        if not -len(roots) <= index < len(roots):
            raise IndexError(
                f"output index {index} out of range: this query has "
                f"{len(roots)} root(s)"
            )
        return self.outputs[roots[index]]

    @property
    def comm_bytes(self) -> int:
        return self.metrics.comm_bytes

    @property
    def elapsed_seconds(self) -> float:
        return self.metrics.elapsed_seconds


class Engine:
    """Base class: plan a DAG, lower it, then execute units on the cluster."""

    #: Human-readable engine name (appears in benchmark tables).
    name: str = "engine"
    #: The kind a unit with a multiplication lowers to.
    cfo_kind: str = "cfo"

    def __init__(self, config: Optional[EngineConfig] = None):
        self.config = config or EngineConfig()
        #: Lowered plans keyed by (planning signature, DAG fingerprint);
        #: iterative workloads hit it from iteration 2 on, skipping
        #: planning, lowering and every per-unit parameter search.
        self.plan_cache = PlanCache()
        #: Materialized consolidation slabs, shared across executes so an
        #: iterative workload re-binding the same matrix (GNMF's ``X``)
        #: skips the copy from iteration 2 on.
        self.slice_cache = SliceCache()
        #: Serializes execute() on this engine: the slice cache attachment
        #: and cluster-stage accounting are per-engine mutable state, so
        #: concurrent submitters take turns; a query runs on one thread.
        self._execute_lock = threading.Lock()
        #: Per-kernel throughput observations + fits
        #: (:mod:`repro.core.calibration`).  Always constructed — it is
        #: inert (never read, never written) while
        #: ``config.calibration == "off"``; ``"active"`` feeds it after each
        #: execute, prices planning with its fits and re-plans cached
        #: entries whose error crossed the threshold.  The serving layer
        #: shares one engine, hence one store, across tenants.
        self.calibration = CalibrationStore()

    def close(self) -> None:
        """Release engine-owned runtime resources (idempotent).

        Engines hold none today, so this is a no-op; it stays as the hook
        callers — ``with engine:``, ``MatrixService.close()`` — rely on.
        """

    def __enter__(self) -> "Engine":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- subclass hooks --------------------------------------------------------

    def plan_query(self, dag: DAG) -> FusionPlan:
        """Decide which operators fuse and which run alone (called by the
        default :meth:`lower_dag`; an engine overriding that need not
        implement it)."""
        raise NotImplementedError(f"{type(self).__name__} has no fusion planner")

    def run_unit(
        self,
        op: UnitOp,
        cluster: SimulatedCluster,
        env: Mapping[object, BlockedMatrix],
    ) -> Union[BlockedMatrix, Dict[Node, BlockedMatrix]]:
        """Execute one physical unit and return its materialized output.

        A plan with a multiplication runs on the CFO at the unit's
        ``(P, Q, R)``; any other runs on the cell operator.  Multi-output
        units (Multi-aggregation fusion) return a mapping from root node to
        its materialized matrix instead of a single matrix.  The
        :class:`UnitOp` carries the lowering-time decisions (operator kind,
        cuboid parameters), so this must not mutate engine state.
        """
        plan = op.unit.plan
        if plan.contains_matmul:
            return CuboidFusedOperator(plan, self.config, pqr=op.pqr).execute(
                cluster, env
            )
        return FusedCellOperator(plan, self.config).execute(cluster, env)

    def prepare_dag(self, dag: DAG) -> DAG:
        """Engine-specific query normalization (rewrites) before planning."""
        return dag

    def annotate_unit(self, unit: PlanUnit) -> UnitAnnotation:
        """Choose the physical operator kind and cost estimate for *unit*.

        Called once per unit during lowering.  A unit with a multiplication
        is a :attr:`cfo_kind` unit: its ``(P*, Q*, R*)`` is searched here,
        never on the execution path.  Any other unit gets a metadata-only
        estimate.
        """
        plan = unit.plan
        if plan.contains_matmul:
            result = optimize_parameters(
                plan,
                self.config,
                calibration=self.calibration_for(self.cfo_kind, plan),
            )
            return UnitAnnotation(
                kind=self.cfo_kind, pqr=result.pqr, optimizer_result=result,
                estimate=estimate_from_search(result),
            )
        kind = "multi-agg" if isinstance(plan, MultiAggPlan) else "cell"
        return UnitAnnotation(kind=kind, estimate=self.calibrated_estimate(kind, unit))

    # -- calibration -----------------------------------------------------------

    @property
    def calibration_active(self) -> bool:
        """Whether planning prices with fitted throughputs."""
        return self.config.calibration == "active"

    def plan_sparsity_bucket(self, plan) -> str:
        """The calibration bucket of a partial plan: its sparsest frontier
        input decides (sparse kernels have very different effective
        throughput than dense ones — the whole point of bucketing)."""
        densities = [
            node.meta.density
            for node in plan.frontier()
            if node.meta.density is not None
        ]
        return sparsity_bucket(min(densities) if densities else None)

    def calibration_for(self, kind: str, plan) -> Optional[KernelCalibration]:
        """Fitted coefficients to price *plan* as a *kind* unit with, or
        ``None`` (paper constants) when calibration is not active or the
        kernel class has no trustworthy fit yet."""
        if not self.calibration_active:
            return None
        return self.calibration.coefficients(
            kind, self.plan_sparsity_bucket(plan)
        )

    def calibrated_estimate(self, kind: str, unit: PlanUnit) -> UnitEstimate:
        """A generic unit estimate, with calibrated modeled seconds attached
        when the engine is active and the kernel class has a fit.  The
        inactive path returns exactly :func:`generic_unit_estimate`."""
        estimate = generic_unit_estimate(unit)
        fit = self.calibration_for(kind, unit.plan)
        if fit is None:
            return estimate
        return replace(
            estimate,
            seconds=fit.predict_seconds(estimate.net_bytes, estimate.flops),
        )

    def planning_signature(self) -> tuple:
        """Everything besides DAG structure that can steer planning.

        Part of the plan-cache key: a changed knob must miss, never reuse a
        plan produced under different rules.
        """
        config = self.config
        return (
            type(self).__name__,
            self.name,
            config.cluster,
            config.block_size,
            config.sparsity_exploitation,
            config.exploitation_phase,
            config.calibration,
            config.graph_passes,
        )

    # -- planning / lowering ----------------------------------------------------

    def _plan_physical(self, dag: DAG) -> tuple[PhysicalPlan, bool, tuple]:
        """Plan + lower *dag*, via the plan cache.

        Returns ``(physical, cache_hit, cache_key)``.  On a hit
        ``physical.dag`` is the cached DAG, not *dag* (plan units hold
        identity-hashed nodes of the DAG they were planned against; inputs
        still bind by name, which the fingerprint guarantees to match).
        The key lets the calibration feedback loop find (and possibly
        evict) the entry this query executed.

        A miss caches what :meth:`lower_dag` returns — the plan *after* the
        graph passes (the pass spec is part of the planning signature, so
        toggling passes can never reuse the other mode's entry).
        """
        cache_key = (self.planning_signature(), dag_fingerprint(dag))
        entry = self.plan_cache.get(cache_key)
        if entry is not None:
            return entry.physical, True, cache_key
        physical = self.lower_dag(dag)
        generation = (
            self.calibration.generation if self.calibration_active else None
        )
        self.plan_cache.put(cache_key, PlanCacheEntry(physical, generation))
        return physical, False, cache_key

    def lower_dag(self, dag: DAG) -> PhysicalPlan:
        """Plan and lower *dag* (uncached): :meth:`plan_query`, then
        :func:`~repro.core.physical.lower_plan` with :meth:`annotate_unit`,
        then the graph passes."""
        physical = lower_plan(
            dag,
            self.plan_query(dag),
            self.annotate_unit,
            engine_name=self.name,
        )
        return run_graph_passes(self, physical)

    def explain(self, query: Query) -> str:
        """Render the physical plan for *query* without executing it.

        Plans and lowers exactly the way :meth:`execute` would (sharing the
        plan cache, so a later execute of the same query reuses the work)
        but never opens a cluster stage.
        """
        return self.lower_query(query).render()

    def lower_query(self, query: Query) -> PhysicalPlan:
        """Plan + lower *query* to its :class:`PhysicalPlan` (no execution)."""
        dag = self.prepare_dag(as_dag(query))
        with self._execute_lock:
            physical, _, _ = self._plan_physical(dag)
        return physical

    # -- driver ---------------------------------------------------------------------

    def execute(
        self,
        query: Query,
        inputs: Mapping[str, BlockedMatrix],
        cluster: Optional[SimulatedCluster] = None,
    ) -> ExecutionResult:
        """Plan and run *query* against named input matrices.

        Thread-safe: concurrent callers serialize on the engine's execute
        lock (cluster-stage accounting is per-engine mutable state).  The
        returned result's metrics are the delta this query accumulated, so
        queries sharing one long-lived cluster report independent per-query
        numbers while the cluster's own collector keeps whole-job totals.
        """
        dag = self.prepare_dag(as_dag(query))
        dag.validate_inputs(inputs.keys())
        self._check_bindings(dag, inputs)
        if cluster is None:
            cluster = SimulatedCluster(self.config)
        with self._execute_lock:
            return self._execute(dag, inputs, cluster)

    def _execute(
        self,
        dag: DAG,
        inputs: Mapping[str, BlockedMatrix],
        cluster: SimulatedCluster,
    ) -> ExecutionResult:
        baseline = cluster.begin_query()
        # attach the engine's long-lived slice cache; counters are bumped per
        # execute as deltas so each run's metrics stand alone
        cluster.slice_cache = self.slice_cache
        slice_hits0 = self.slice_cache.hits
        slice_misses0 = self.slice_cache.misses

        physical, cache_hit, cache_key = self._plan_physical(dag)
        dag = physical.dag
        cluster.metrics.bump(
            "plan_cache_hits" if cache_hit else "plan_cache_misses"
        )

        env: Dict[object, BlockedMatrix] = dict(inputs)
        try:
            run_physical_plan(self, physical, cluster, env)
        finally:
            slices = cluster.slice_cache
            hit_delta = slices.hits - slice_hits0
            miss_delta = slices.misses - slice_misses0
            if hit_delta or miss_delta:
                cluster.metrics.bump("slice_cache_hits", hit_delta)
                cluster.metrics.bump("slice_cache_misses", miss_delta)

        outputs = {root: self._root_value(root, env, inputs) for root in dag.roots}
        if self.calibration_active:
            # feed the store (and maybe evict the plan) before the final
            # diff, so the calibration counters land in this query's delta
            self._calibration_feedback(
                cache_key, physical, cluster.metrics.diff_since(baseline),
                cluster,
            )
        metrics = cluster.metrics.diff_since(baseline)

        result = ExecutionResult(
            outputs=outputs,
            metrics=metrics,
            fusion_plan=physical.fusion_plan,
            dag=dag,
            physical_plan=physical,
        )
        if self.config.telemetry:
            # observability only: every modeled number and matrix output
            # above is bit-identical whether the profile is built or not
            result.profile = build_profile(self.name, physical, metrics)
        return result

    def _calibration_feedback(
        self,
        cache_key: tuple,
        physical: PhysicalPlan,
        delta: MetricsCollector,
        cluster: SimulatedCluster,
    ) -> None:
        """Close the loop after one ``active`` execute.

        Each unit's modeled seconds and the planner's estimates become one
        :class:`~repro.core.calibration.Observation` under its operator
        kind + sparsity bucket.  A cached plan whose mean abs seconds error
        crossed :data:`~repro.core.calibration.REPLAN_THRESHOLD` — while the
        store learned something since the plan was made — is evicted, so
        the next structurally identical query re-plans with the latest
        coefficients (adaptive re-planning).  Counters are observability
        only and never feed a modeled number.
        """
        per_unit = delta.per_unit_totals()
        observed = 0
        errors = []
        for op in physical.ops:
            totals = per_unit.get(op.index)
            if totals is None:
                continue
            if op.unit is not None:
                bucket = self.plan_sparsity_bucket(op.unit.plan)
            elif op.members:
                # merged unit: bucket by the sparsest member frontier, the
                # same rule plan_sparsity_bucket applies to a single plan
                densities = [
                    node.meta.density
                    for member in op.members
                    if member.unit is not None
                    for node in member.unit.plan.frontier()
                    if node.meta.density is not None
                ]
                bucket = sparsity_bucket(min(densities) if densities else None)
            else:
                bucket = "dense"
            predicted = (
                op.estimate.seconds if op.estimate is not None else None
            )
            measured = float(totals.get("elapsed_seconds", 0.0))
            # regressors are the planner's own estimates (the space
            # predict_seconds is later applied in)
            if op.estimate is not None:
                net_est = float(op.estimate.net_bytes)
                com_est = float(op.estimate.flops)
            else:
                net_est = float(totals.get("comm_bytes", 0))
                com_est = float(totals.get("flops", 0))
            if self.calibration.observe(
                op.kind,
                bucket,
                net_bytes=net_est,
                flops=com_est,
                measured_seconds=measured,
                predicted_seconds=predicted,
            ):
                observed += 1
                if predicted is not None and measured > 0:
                    errors.append(abs(predicted - measured) / measured)
        generation = self.calibration.commit()
        if observed:
            cluster.metrics.bump("calibration_observations", observed)

        if not errors:
            return
        entry = self.plan_cache.peek(cache_key)
        if entry is None:
            return
        mean_error = sum(errors) / len(errors)
        stale = entry.fit_generation is None or entry.fit_generation < generation
        if mean_error > REPLAN_THRESHOLD and stale:
            if self.plan_cache.invalidate(cache_key):
                cluster.metrics.bump("plan_cache_calibration_evictions")

    @staticmethod
    def _root_value(
        root: Node,
        env: Mapping[object, BlockedMatrix],
        inputs: Optional[Mapping[str, BlockedMatrix]] = None,
    ) -> BlockedMatrix:
        # a bare-input root resolves by name, never by node id: in a
        # multi-root DAG the leaf object may belong to a cached plan's DAG,
        # and the name is the stable binding key
        if isinstance(root, InputNode):
            value = env.get(root.name)
            if value is None and inputs is not None:
                value = inputs.get(root.name)
            if value is None:
                raise PlanError(f"no binding for input root {root!r}")
            return value
        value = env.get(root.node_id)
        if value is None:
            raise PlanError(f"no value produced for root {root!r}")
        return value

    @staticmethod
    def _check_bindings(
        dag: DAG, inputs: Mapping[str, BlockedMatrix]
    ) -> None:
        for leaf in dag.inputs():
            value = inputs.get(leaf.name)
            if value is None:
                continue  # validate_inputs already reported missing names
            if value.shape != leaf.meta.shape:
                raise PlanError(
                    f"input {leaf.name!r} has shape {value.shape}, the query "
                    f"declared {leaf.meta.shape}"
                )
            if value.block_size != leaf.meta.block_size:
                raise PlanError(
                    f"input {leaf.name!r} uses block size {value.block_size}, "
                    f"the query declared {leaf.meta.block_size}"
                )

