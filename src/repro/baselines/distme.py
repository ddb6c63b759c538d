"""DistME-like engine: CuboidMM for multiplications, no operator fusion.

DistME (Section 2.3, Section 7) introduced cuboid-based matrix
multiplication — the partitioning the CFO generalizes — but does not fuse
operators: every DAG vertex materializes its output.  The paper includes it
as the fastest non-fusing system; its gap to FuseME isolates the value of
fusion on top of cuboid partitioning.
"""

from __future__ import annotations

from typing import Optional

from repro.config import EngineConfig
from repro.core.cfg import _order_units
from repro.core.plan import FusionPlan, PartialFusionPlan, PlanUnit
from repro.execution import Engine
from repro.lang.dag import DAG


class DistMELikeEngine(Engine):
    """No fusion; optimized cuboid partitioning for every multiplication."""

    name = "DistME"
    # each multiplication's one-node plan runs on the CFO at the (P, Q, R)
    # searched at lowering
    cfo_kind = "cuboid-mm"

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
