"""Physical distributed operators.

* :mod:`repro.operators.cell` — fused execution of matmul-free plans
  (Cell fusion, and Multi-aggregation fusion: one scan, several aggregate
  roots) and of single element-wise / transpose / aggregation operators;
  block-aligned, one pass, no intermediates.
* :mod:`repro.operators.bfo` — the Broadcast-based Fused Operator of
  Section 2.2 (SystemDS' strategy for small side matrices).
* :mod:`repro.operators.rfo` — the Replication-based Fused Operator of
  Section 2.2 (SystemDS' strategy for large inputs).
* :mod:`repro.operators.matmul_ops` — standalone distributed matrix
  multiplication: broadcast, replication and cuboid (CuboidMM/DistME)
  strategies for engines that do not fuse.

The Cuboid-based Fused Operator itself lives in :mod:`repro.core.cfo`.
"""

from repro.operators.cell import FusedCellOperator
from repro.operators.bfo import BroadcastFusedOperator
from repro.operators.rfo import ReplicationFusedOperator
from repro.operators.matmul_ops import (
    BroadcastMatMul,
    CuboidMatMul,
    ReplicationMatMul,
)

__all__ = [
    "FusedCellOperator",
    "BroadcastFusedOperator",
    "ReplicationFusedOperator",
    "BroadcastMatMul",
    "ReplicationMatMul",
    "CuboidMatMul",
]
