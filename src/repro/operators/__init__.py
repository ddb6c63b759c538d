"""Physical distributed operators.

* :mod:`repro.operators.cell` — fused execution of matmul-free plans
  (Cell fusion, and Multi-aggregation fusion: one scan, several aggregate
  roots) and of single element-wise / transpose / aggregation operators;
  block-aligned, one pass, no intermediates.
* :mod:`repro.operators.rfo` — the Replication-based Fused Operator of
  Section 2.2 (SystemDS' strategy for large inputs): the CFO pinned to the
  ``(P=I, Q=J, R=1)`` corner.
* :mod:`repro.operators.bfo` — the Broadcast-based Fused Operator of
  Section 2.2 (SystemDS' strategy for small side matrices): the RFO's cells
  dealt to the main matrix's partitions, with broadcast consolidation.

Every operator, like the Cuboid-based Fused Operator in
:mod:`repro.core.cfo`, only *compiles* its plan into a task table (its
stages, each task's reads and charges, the cells it evaluates and where
their tiles go); :func:`repro.core.stages.run_tasks` runs every table.  A
standalone multiplication is a one-node plan run on any of them.
"""

from repro.operators.cell import FusedCellOperator
from repro.operators.bfo import BroadcastFusedOperator
from repro.operators.rfo import ReplicationFusedOperator

__all__ = [
    "FusedCellOperator",
    "BroadcastFusedOperator",
    "ReplicationFusedOperator",
]
