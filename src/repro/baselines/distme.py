"""DistME-like engine: CuboidMM for multiplications, no operator fusion.

DistME (Section 2.3, Section 7) introduced cuboid-based matrix
multiplication — the partitioning the CFO generalizes — but does not fuse
operators: every DAG vertex materializes its output.  The paper includes it
as the fastest non-fusing system; its gap to FuseME isolates the value of
fusion on top of cuboid partitioning.
"""

from __future__ import annotations

from typing import Mapping, Optional

from repro.cluster.executor import SimulatedCluster
from repro.config import EngineConfig
from repro.core.cfg import _order_units
from repro.core.cfo import CuboidFusedOperator
from repro.core.optimizer import OptimizerResult, optimize_parameters
from repro.core.physical import (
    UnitAnnotation,
    UnitOp,
    estimate_from_cost,
)
from repro.core.plan import FusionPlan, PartialFusionPlan, PlanUnit
from repro.execution import Engine
from repro.lang.dag import DAG
from repro.matrix.distributed import BlockedMatrix
from repro.operators.cell import FusedCellOperator


class DistMELikeEngine(Engine):
    """No fusion; optimized cuboid partitioning for every multiplication."""

    name = "DistME"

    def __init__(self, config: Optional[EngineConfig] = None):
        # no fused operators -> no masked execution path either
        config = (config or EngineConfig()).with_options(
            sparsity_exploitation=False
        )
        super().__init__(config)

    def plan_query(self, dag: DAG) -> FusionPlan:
        units = [
            PlanUnit(plan=PartialFusionPlan({node}, dag))
            for node in dag.nodes()
            if node.is_operator
        ]
        return FusionPlan(dag, _order_units(dag, units))

    def annotate_unit(
        self, unit: PlanUnit, hint: Optional[OptimizerResult] = None
    ) -> UnitAnnotation:
        plan = unit.plan
        if plan.contains_matmul:
            # the unit's plan is the multiplication's one-node plan, which
            # the CFO runs at the (P, Q, R) searched here
            result = hint or optimize_parameters(
                plan,
                self.config,
                calibration=self.calibration_for("cuboid-mm", plan),
            )
            return UnitAnnotation(
                kind="cuboid-mm",
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
    ) -> BlockedMatrix:
        plan = op.unit.plan
        if plan.contains_matmul:
            return CuboidFusedOperator(plan, self.config, pqr=op.pqr).execute(
                cluster, env
            )
        return FusedCellOperator(plan, self.config).execute(cluster, env)
