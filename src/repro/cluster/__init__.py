"""The simulated distributed substrate (the repo's Apache Spark stand-in).

Real Spark on a real 8-node cluster is replaced by :class:`SimulatedCluster`:
every block-level kernel still runs for real (numpy/scipy), but "distribution"
is modeled — operators declare which blocks each task receives during the
*matrix consolidation* step and which partial blocks move during the *matrix
aggregation* step (the two steps whose traffic the paper reports as
communication cost), each task keeps a memory ledger checked against the
per-task budget ``theta_t`` (raising the same O.O.M. failures the paper
observes for BFO/MatFast), and elapsed time follows the paper's own cost
shape, Eq. 2: ``max(net / (N * Bn), comp / (N * Bc))`` per stage, corrected
for partial cluster utilization when a stage has fewer tasks than slots.
"""

from repro.cluster.metrics import MetricsCollector, StageRecord
from repro.cluster.slice_cache import SliceCache
from repro.cluster.task import TaskContext, TransferKind
from repro.cluster.executor import SimulatedCluster, Stage
from repro.cluster.simulation import stage_seconds

__all__ = [
    "MetricsCollector",
    "StageRecord",
    "SliceCache",
    "TaskContext",
    "TransferKind",
    "SimulatedCluster",
    "Stage",
    "stage_seconds",
]
