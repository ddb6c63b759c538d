"""The FuseME engine: CFG planning + CFO execution (Section 5).

``FuseMEEngine`` wires the pieces together the way the paper's implementation
does on Spark: the query DAG is simplified, CFG generates a fusion plan whose
fused units lower to CFOs (Cell-fused operators for matmul-free chains), and
the physical plan executes on the simulated cluster with full cost
accounting.  The cuboid ``(P*, Q*, R*)`` search runs at lowering time
(:meth:`FuseMEEngine.annotate_unit`), so executing a unit never mutates
engine state and a plan-cache hit skips the search entirely.
"""

from __future__ import annotations

from typing import Mapping, Optional

from repro.cluster.executor import SimulatedCluster
from repro.config import EngineConfig
from repro.core.cfg import ExploitationReport, generate_fusion_plan
from repro.core.cfo import CuboidFusedOperator
from repro.core.optimizer import OptimizerResult, optimize_parameters
from repro.core.physical import (
    UnitAnnotation,
    UnitOp,
    estimate_from_cost,
)
from repro.core.plan import FusionPlan, MultiAggPlan, PlanUnit
from repro.execution import Engine
from repro.lang.dag import DAG
from repro.lang.rewrites import simplify_dag
from repro.matrix.distributed import BlockedMatrix
from repro.operators.cell import FusedCellOperator


class FuseMEEngine(Engine):
    """The paper's system: cuboid-based fusion plan generation + CFOs."""

    name = "FuseME"

    def __init__(
        self,
        config: Optional[EngineConfig] = None,
        optimizer_method: str = "pruned",
    ):
        super().__init__(config)
        self.optimizer_method = optimizer_method
        self.last_report: Optional[ExploitationReport] = None

    def prepare_dag(self, dag: DAG) -> DAG:
        """Simplify the DAG (double-transpose and scalar-chain cleanups)
        before planning."""
        # clear per-query planner state up front: on a plan-cache hit
        # plan_query never runs, and a stale report from an earlier query
        # (possibly another tenant's, under the serving layer) must not
        # leak into this one
        self.last_report = None
        return simplify_dag(dag)

    def planning_signature(self) -> tuple:
        return super().planning_signature() + (self.optimizer_method,)

    def planning_attrs(self):
        """CFG/exploitation counters for the planning span.

        ``last_report`` is None on a plan-cache hit (``plan_query`` never
        ran), so the span then carries only the method — the hit itself is
        already an attribute of the plan span.
        """
        attrs = {"optimizer_method": self.optimizer_method}
        if self.last_report is not None:
            attrs["exploitation_splits"] = self.last_report.splits
            attrs["plans_examined"] = self.last_report.examined
        return attrs

    def plan_query(self, dag: DAG) -> FusionPlan:
        self.last_report = ExploitationReport()
        return generate_fusion_plan(
            dag,
            self.config,
            report=self.last_report,
            # active calibration prices Algorithm 3's keep-or-split
            # comparisons with fitted throughputs; None keeps Eq. 2 exact
            calibration=(
                self.calibration_for if self.calibration_active else None
            ),
        )

    def annotate_unit(
        self, unit: PlanUnit, hint: Optional[OptimizerResult] = None
    ) -> UnitAnnotation:
        plan = unit.plan
        if isinstance(plan, MultiAggPlan):
            return UnitAnnotation(
                kind="multi-agg",
                estimate=self.calibrated_estimate("multi-agg", unit),
            )
        if plan.contains_matmul:
            # the (P*, Q*, R*) search — once here at lowering, never on the
            # execution path; a plan-cache hint skips it entirely
            result = hint or optimize_parameters(
                plan,
                self.config,
                method=self.optimizer_method,
                calibration=self.calibration_for("cfo", plan),
            )
            return UnitAnnotation(
                kind="cfo",
                pqr=result.pqr,
                optimizer_result=result,
                estimate=estimate_from_cost(
                    result.cost,
                    paper_seconds=(
                        result.paper_cost.cost_seconds
                        if result.paper_cost is not None else None
                    ),
                ),
            )
        return UnitAnnotation(
            kind="cell", estimate=self.calibrated_estimate("cell", unit)
        )

    def run_unit(
        self,
        op: UnitOp,
        cluster: SimulatedCluster,
        env: Mapping[object, BlockedMatrix],
    ):
        plan = op.unit.plan
        if plan.contains_matmul:
            return CuboidFusedOperator(plan, self.config, pqr=op.pqr).execute(
                cluster, env
            )
        return FusedCellOperator(plan, self.config).execute(cluster, env)
