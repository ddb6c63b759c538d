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
from repro.core.optimizer import OptimizerResult
from repro.core.physical import UnitAnnotation, UnitOp
from repro.core.plan import FusionPlan, MultiAggPlan, PlanUnit
from repro.execution import Engine
from repro.baselines.gen import GenPlanner
from repro.lang.dag import DAG, InputNode, Node
from repro.matrix.distributed import BlockedMatrix
from repro.operators.bfo import BroadcastFusedOperator
from repro.operators.cell import FusedCellOperator
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

    def annotate_unit(
        self, unit: PlanUnit, hint: Optional[OptimizerResult] = None
    ) -> UnitAnnotation:
        plan = unit.plan
        if isinstance(plan, MultiAggPlan):
            kind = "multi-agg"
        elif not plan.contains_matmul:
            kind = "cell"
        else:
            # metadata-estimated choice (run_unit re-decides on live sizes)
            if len(plan) == 1:
                kind = f"{self._standalone_strategy(plan)}?"
            else:
                kind = f"{self._fused_strategy(plan)}?"
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
            return FusedCellOperator(plan, self.config).execute(cluster, env)

        if len(plan) == 1:
            choice = self._standalone_strategy(plan, env)
        else:
            choice = self._fused_strategy(plan, env)
        self._choices[op.index] = f"{choice}:{plan.label()}"
        if choice == "bfo":
            operator: object = BroadcastFusedOperator(plan, self.config)
        else:
            operator = ReplicationFusedOperator(plan, self.config)
        return operator.execute(cluster, env)

    # -- strategy selection --------------------------------------------------

    def _fused_strategy(
        self, plan, env: Optional[Mapping[object, BlockedMatrix]] = None
    ) -> str:
        """The paper's rule: BFO iff partitions(main) < I or < J."""
        main_bytes = self._largest_frontier_bytes(plan, env)
        partitions = max(
            1, math.ceil(main_bytes / self.config.cluster.input_split_bytes)
        )
        mm = plan.main_matmul()
        extent_i, extent_j, _ = mm.mm_dims()
        if partitions < extent_i or partitions < extent_j:
            return "bfo"
        return "rfo"

    def _standalone_strategy(
        self, plan, env: Optional[Mapping[object, BlockedMatrix]] = None
    ) -> str:
        """mapmm (broadcast) when the smaller operand fits, else rmm."""
        sizes = []
        for node in plan.frontier():
            value = self._lookup(node, env)
            sizes.append(value.nbytes if value is not None
                         else node.meta.estimated_bytes)
        smaller = min(sizes) if sizes else 0
        budget = self.config.cluster.task_memory_budget
        if smaller <= budget * _BROADCAST_FRACTION:
            return "bfo"
        return "rfo"

    def _largest_frontier_bytes(
        self, plan, env: Optional[Mapping[object, BlockedMatrix]] = None
    ) -> int:
        largest = 0
        for node in plan.frontier():
            value = self._lookup(node, env)
            size = value.nbytes if value is not None else node.meta.estimated_bytes
            largest = max(largest, size)
        return largest

    @staticmethod
    def _lookup(
        node: Node, env: Optional[Mapping[object, BlockedMatrix]]
    ) -> Optional[BlockedMatrix]:
        if env is None:
            return None
        value = env.get(node.node_id)
        if value is None and isinstance(node, InputNode):
            value = env.get(node.name)
        return value
