"""The elapsed-time model (Eq. 2 of the paper).

The paper estimates the cost of a distributed stage as the larger of its
network time and its computation time, because Spark overlaps communication
and computation at block granularity::

    Cost(c, F) = max(NetEst / (N * Bn), ComEst / (N * Bc))        (Eq. 2)

:func:`eq2` is the one place that formula is written: the planner prices
estimates with it (:func:`repro.core.cost.price`), the simulator prices
measured traffic and flops with it (:func:`stage_seconds`), and the serving
layer splits a query's usage with it.  The simulator adds one refinement the
paper discusses qualitatively in its "overall analysis" of Section 6.2: a
stage that runs fewer tasks than the cluster has slots cannot use the whole
cluster, so its effective bandwidths scale with utilization (this is why the
paper's BFO is slow on very sparse inputs: X repartitions into only ~13
partitions, starving the other ~83 slots).
"""

from __future__ import annotations

import math

import numpy as np

from repro.config import ClusterConfig


def eq2(cluster: ClusterConfig, net_bytes, flops, utilization: float = 1.0):
    """Eq. 2: ``(network seconds, compute seconds, their max)``.

    *net_bytes* and *flops* are cluster-wide totals, each a number or a
    float64 array broadcastable against the other (the planner prices a
    whole ``(Q, R)`` grid in one call).  The max is a Python float for
    scalar input and an array otherwise.  *utilization* scales both
    bandwidths; at the default ``1.0`` the denominators are exactly
    ``N * Bn`` and ``N * Bc``.
    """
    net_seconds = net_bytes / (
        cluster.num_nodes * cluster.network_bandwidth * utilization
    )
    com_seconds = flops / (
        cluster.num_nodes * cluster.compute_bandwidth * utilization
    )
    if isinstance(net_seconds, np.ndarray) or isinstance(com_seconds, np.ndarray):
        return net_seconds, com_seconds, np.maximum(net_seconds, com_seconds)
    return net_seconds, com_seconds, float(max(net_seconds, com_seconds))


def stage_seconds(
    cluster: ClusterConfig,
    num_tasks: int,
    net_bytes: int,
    flops: int,
) -> float:
    """Modeled wall-clock seconds for one stage: Eq. 2 at the stage's
    slot utilization, plus one launch overhead per wave of tasks.

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
    """
    if num_tasks <= 0:
        return 0.0
    slots = cluster.total_tasks
    utilization = min(num_tasks, slots) / slots
    busy = eq2(cluster, net_bytes, flops, utilization)[2]
    waves = math.ceil(num_tasks / slots)
    return busy + waves * cluster.task_launch_overhead
