"""The FuseME engine: CFG planning + CFO execution (Section 5).

``FuseMEEngine`` wires the pieces together the way the paper's implementation
does on Spark: the query DAG is simplified, CFG generates a fusion plan whose
fused units lower to CFOs (Cell-fused operators for matmul-free chains), and
the physical plan executes on the simulated cluster with full cost
accounting.  The cuboid ``(P*, Q*, R*)`` search runs at lowering time
(:meth:`Engine.annotate_unit <repro.execution.Engine.annotate_unit>`), so
executing a unit never mutates engine state and a plan-cache hit skips the
search entirely.
"""

from __future__ import annotations

from typing import Optional

from repro.config import EngineConfig
from repro.core.cfg import ExploitationReport, generate_fusion_plan
from repro.core.plan import FusionPlan
from repro.execution import Engine
from repro.lang.dag import DAG
from repro.lang.rewrites import simplify_dag


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
