"""The elapsed-time model (Eq. 2 of the paper).

The paper estimates the cost of a distributed stage as the larger of its
network time and its computation time, because Spark overlaps communication
and computation at block granularity::

    Cost(c, F) = max(NetEst / (N * Bn), ComEst / (N * Bc))        (Eq. 2)

We apply the same shape to *measured* traffic and flops, with one refinement
the paper discusses qualitatively in its "overall analysis" of Section 6.2: a
stage that runs fewer tasks than the cluster has slots cannot use the whole
cluster, so its effective bandwidths scale with utilization (this is why the
paper's BFO is slow on very sparse inputs: X repartitions into only ~13
partitions, starving the other ~83 slots).
"""

from __future__ import annotations

import math

from repro.config import ClusterConfig


def stage_seconds(
    cluster: ClusterConfig,
    num_tasks: int,
    net_bytes: int,
    flops: int,
    overlap: bool = True,
) -> float:
    """Modeled wall-clock seconds for one stage.

    Parameters
    ----------
    cluster:
        Cluster shape and bandwidths.
    num_tasks:
        Tasks launched by the stage.
    net_bytes:
        Bytes moved during the stage (consolidation + aggregation).
    flops:
        Floating point operations executed by the stage.
    overlap:
        Model communication/computation overlap (Eq. 2's ``max``); when
        False the two terms add, an ablation of the overlap assumption.
    """
    if num_tasks <= 0:
        return 0.0
    slots = cluster.total_tasks
    utilization = min(num_tasks, slots) / slots
    effective_net = cluster.num_nodes * cluster.network_bandwidth * utilization
    effective_comp = cluster.num_nodes * cluster.compute_bandwidth * utilization
    net_time = net_bytes / effective_net
    comp_time = flops / effective_comp
    busy = max(net_time, comp_time) if overlap else net_time + comp_time
    waves = math.ceil(num_tasks / slots)
    return busy + waves * cluster.task_launch_overhead
