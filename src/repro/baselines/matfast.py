"""MatFast-like engine: folded element-wise fusion only.

MatFast (Section 7) "uses a simple folded operator that fuses consecutive
element-wise operators"; it neither exploits sparsity across a
multiplication nor partitions the common dimension.  Multiplications run
standalone with broadcast consolidation — the strategy that makes it fail
with O.O.M. once a factor matrix outgrows the task budget (Figure 14(g)).
"""

from __future__ import annotations

from typing import Mapping, Optional

from repro.cluster.executor import SimulatedCluster
from repro.config import EngineConfig
from repro.core.cfg import _cell_fuse_leftovers, _order_units
from repro.core.physical import UnitAnnotation, UnitOp
from repro.core.plan import FusionPlan, PartialFusionPlan, PlanUnit
from repro.execution import Engine
from repro.lang.dag import DAG, MatMulNode, TransposeNode
from repro.matrix.distributed import BlockedMatrix
from repro.operators.bfo import BroadcastFusedOperator


class MatFastLikeEngine(Engine):
    """Consecutive element-wise folding; broadcast matmuls; no exploitation."""

    name = "MatFast"

    def __init__(self, config: Optional[EngineConfig] = None):
        # MatFast has no masked execution path at all
        config = (config or EngineConfig()).with_options(
            sparsity_exploitation=False
        )
        super().__init__(config)

    def plan_query(self, dag: DAG) -> FusionPlan:
        units: list[PlanUnit] = []
        fusable = [
            n for n in dag.nodes()
            if n.is_operator and not isinstance(n, (MatMulNode, TransposeNode))
        ]
        covered: set = set()
        for group in _cell_fuse_leftovers(dag, fusable):
            units.append(PlanUnit(plan=PartialFusionPlan(group, dag)))
            covered |= group
        for node in dag.nodes():
            if node.is_operator and node not in covered:
                units.append(PlanUnit(plan=PartialFusionPlan({node}, dag)))
        return FusionPlan(dag, _order_units(dag, units))

    def annotate_unit(self, unit: PlanUnit) -> UnitAnnotation:
        kind = "broadcast-mm" if unit.plan.contains_matmul else "cell"
        return UnitAnnotation(kind=kind, estimate=self.calibrated_estimate(kind, unit))

    def run_unit(
        self,
        op: UnitOp,
        cluster: SimulatedCluster,
        env: Mapping[object, BlockedMatrix],
    ) -> BlockedMatrix:
        plan = op.unit.plan
        if plan.contains_matmul:
            return BroadcastFusedOperator(plan, self.config).execute(cluster, env)
        return super().run_unit(op, cluster, env)
