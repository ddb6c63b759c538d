"""SystemDS-like engine: GEN plans executed with BFO or RFO.

The distributed fused operator is chosen by the rule the paper states in
Section 6.2: SystemDS "uses the BFO if the number of partitions of X is
smaller than I or J; otherwise, it uses the RFO".  Standalone matrix
multiplications broadcast the smaller operand when it fits comfortably in a
task's budget (mapmm), else fall back to replication (rmm).

The BFO/RFO decision is runtime state: it looks at the *actual* bound
matrices' sizes, which the plan-level fingerprint cannot see.  Lowering
therefore annotates each matmul unit with the metadata-estimated choice
(what EXPLAIN shows), and :meth:`run_unit` re-decides against the live
environment — keeping served results bit-identical to the pre-IR engine.
"""

from __future__ import annotations

import math
from typing import Dict, Mapping, Optional

from repro.cluster.executor import SimulatedCluster
from repro.config import EngineConfig
from repro.core.physical import UnitAnnotation, UnitOp
from repro.core.plan import FusionPlan, PlanUnit
from repro.core.stages import resolve_frontier
from repro.execution import Engine
from repro.baselines.gen import GenPlanner
from repro.lang.dag import DAG
from repro.matrix.distributed import BlockedMatrix
from repro.operators.bfo import BroadcastFusedOperator
from repro.operators.rfo import ReplicationFusedOperator

#: mapmm is chosen when the broadcast operand uses at most this fraction of
#: the per-task budget (Spark broadcast variables must leave execution room).
_BROADCAST_FRACTION = 0.45


class SystemDSLikeEngine(Engine):
    """GEN fusion templates + BFO/RFO distributed fused operators."""

    name = "SystemDS"

    def __init__(self, config: Optional[EngineConfig] = None):
        super().__init__(config)
        self._planner = GenPlanner()
        # keyed by unit index; read through the last_choices property
        self._choices: Dict[int, str] = {}

    @property
    def last_choices(self) -> list[str]:
        """Operator decisions of the last run, in unit order."""
        return [self._choices[i] for i in sorted(self._choices)]

    def prepare_dag(self, dag: DAG) -> DAG:
        self._choices = {}
        return dag

    def plan_query(self, dag: DAG) -> FusionPlan:
        return self._planner.plan(dag)

    def annotate_unit(self, unit: PlanUnit) -> UnitAnnotation:
        plan = unit.plan
        if not plan.contains_matmul:
            return super().annotate_unit(unit)
        # metadata-estimated choice (run_unit re-decides on live sizes)
        kind = f"{self._strategy(plan)}?"
        return UnitAnnotation(kind=kind, estimate=self.calibrated_estimate(kind, unit))

    def run_unit(
        self,
        op: UnitOp,
        cluster: SimulatedCluster,
        env: Mapping[object, BlockedMatrix],
    ):
        plan = op.unit.plan
        if not plan.contains_matmul:
            self._choices[op.index] = f"cell:{plan.label()}"
            return super().run_unit(op, cluster, env)
        choice = self._strategy(plan, env)
        self._choices[op.index] = f"{choice}:{plan.label()}"
        operator = (
            BroadcastFusedOperator if choice == "bfo"
            else ReplicationFusedOperator
        )
        return operator(plan, self.config).execute(cluster, env)

    def _strategy(
        self, plan, env: Optional[Mapping[object, BlockedMatrix]] = None
    ) -> str:
        """``"bfo"`` or ``"rfo"`` for a matmul plan, on the bound matrices'
        sizes (their metadata estimates before binding).

        A fused plan takes the paper's rule: BFO iff partitions(main) < I or
        < J.  A standalone multiplication broadcasts (mapmm) when its
        smaller operand fits, else replicates (rmm).
        """
        if env is None:
            sizes = [node.meta.estimated_bytes for node in plan.frontier()]
        else:
            sizes = [m.nbytes for m in resolve_frontier(plan, env).values()]
        cluster = self.config.cluster
        if len(plan) == 1:
            smaller = min(sizes, default=0)
            fits = smaller <= cluster.task_memory_budget * _BROADCAST_FRACTION
            return "bfo" if fits else "rfo"
        partitions = max(
            1, math.ceil(max(sizes, default=0) / cluster.input_split_bytes)
        )
        extent_i, extent_j, _ = plan.main_matmul().mm_dims()
        if partitions < extent_i or partitions < extent_j:
            return "bfo"
        return "rfo"
