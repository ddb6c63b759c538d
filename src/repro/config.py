"""Engine and cluster configuration.

:class:`EngineConfig` gathers every knob the paper specifies for the
experimental setup (Section 6.1): number of worker nodes ``N``, tasks per node
``Tc``, per-task memory budget ``theta_t``, peak network bandwidth ``Bn`` and
peak computation bandwidth ``Bc``, and the block size of the blocked matrix
layout.  Benchmarks construct configs that mirror the paper's cluster (8 nodes,
12 tasks/node, 1 Gbps, 546 GFLOPS, 10 GB/task) scaled down to laptop size.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

#: Valid values for :attr:`EngineConfig.calibration`.
CALIBRATION_MODES = ("off", "active")

#: Valid values for :attr:`EngineConfig.graph_passes`.
GRAPH_PASS_MODES = ("off", "all")

GBPS = 1e9 / 8  # bytes per second in one gigabit per second
GFLOPS = 1e9

#: The paper uses 1000x1000 blocks; we default to 100x100 scaled-down blocks.
DEFAULT_BLOCK_SIZE = 100

#: Bytes per double-precision element.
ELEMENT_BYTES = 8


@dataclass(frozen=True)
class ClusterConfig:
    """Shape and speed of the (simulated) cluster.

    Parameters
    ----------
    num_nodes:
        ``N`` in the paper: number of worker nodes.
    tasks_per_node:
        ``Tc`` in the paper: concurrent tasks per node (paper: 12).
    task_memory_budget:
        ``theta_t`` in bytes: per-task memory limit (paper: 10 GB).
    network_bandwidth:
        ``Bn`` in bytes/second: peak point-to-point bandwidth (paper: 1 Gbps).
    compute_bandwidth:
        ``Bc`` in flops/second per node (paper: 546 GFLOPS).
    task_launch_overhead:
        Fixed modeled seconds added per scheduled wave of tasks; Spark-like
        scheduling latency.  Small but nonzero so plans with many stages pay
        for them.
    input_split_bytes:
        Bytes per input partition (Spark/HDFS split size).  Determines how
        many partitions a repartitioned main matrix yields — the quantity
        SystemDS' BFO/RFO selection rule inspects, and the reason a very
        sparse matrix starves BFO of parallelism (Section 6.2).
    """

    num_nodes: int = 8
    tasks_per_node: int = 12
    task_memory_budget: int = 512 * 1024 * 1024
    network_bandwidth: float = 1.0 * GBPS
    compute_bandwidth: float = 546.0 * GFLOPS
    task_launch_overhead: float = 0.05
    input_split_bytes: int = 4 * 1024 * 1024

    def __post_init__(self) -> None:
        if self.num_nodes <= 0:
            raise ValueError("num_nodes must be positive")
        if self.tasks_per_node <= 0:
            raise ValueError("tasks_per_node must be positive")
        if self.task_memory_budget <= 0:
            raise ValueError("task_memory_budget must be positive")
        if self.network_bandwidth <= 0 or self.compute_bandwidth <= 0:
            raise ValueError("bandwidths must be positive")
        if self.task_launch_overhead < 0:
            raise ValueError("task_launch_overhead cannot be negative")
        if self.input_split_bytes <= 0:
            raise ValueError("input_split_bytes must be positive")

    @property
    def total_tasks(self) -> int:
        """``T`` in the paper: total parallel task slots in the cluster."""
        return self.num_nodes * self.tasks_per_node

    @property
    def total_memory_budget(self) -> int:
        """Aggregate task memory across the cluster: ``T * theta_t`` bytes.

        The serving layer's default admission budget — the most data the
        cluster could hold in task memory at once.
        """
        return self.total_tasks * self.task_memory_budget


@dataclass(frozen=True)
class EngineConfig:
    """Full engine configuration: cluster shape plus planner knobs."""

    cluster: ClusterConfig = field(default_factory=ClusterConfig)
    block_size: int = DEFAULT_BLOCK_SIZE
    #: Enable sparsity exploitation inside fused operators (Outer-style).
    sparsity_exploitation: bool = True
    #: Enable the CFG exploitation phase (plan splitting, Algorithm 3).
    exploitation_phase: bool = True
    #: Build each query's cost-model accountability profile
    #: (``result.profile``, :mod:`repro.obs`).  Observability only: modeled
    #: numbers and matrix outputs are bit-identical at either setting; False
    #: skips the predicted-vs-measured join, for overhead A/B runs.
    telemetry: bool = True
    #: Cost-model calibration (:mod:`repro.core.calibration`).  ``"off"``
    #: (default): paper constants only — every number bit-identical to the
    #: uncalibrated engine.  ``"active"``: executions feed the per-kernel
    #: throughput store, the ``(P, Q, R)`` search and CFG plan costing
    #: price with the fitted effective throughputs, and cached plans whose
    #: observed seconds-error crosses
    #: :data:`~repro.core.calibration.REPLAN_THRESHOLD` are evicted and
    #: re-planned with the latest coefficients.
    calibration: str = "off"
    #: Graph-level optimizer passes run over the raw physical plan before
    #: execution (:mod:`repro.core.passes`).  ``"all"`` (default) merges
    #: independent units that share an input and consolidates each shared
    #: matrix once per query.  ``"off"`` is the paper's CFG, which plans
    #: every fusion unit on its own.  Passes never change matrix outputs —
    #: only modeled cost and unit structure.
    graph_passes: str = "all"

    def __post_init__(self) -> None:
        if self.block_size <= 0:
            raise ValueError("block_size must be positive")
        if self.calibration not in CALIBRATION_MODES:
            raise ValueError(
                f"calibration must be one of {CALIBRATION_MODES}, "
                f"got {self.calibration!r}"
            )
        if self.graph_passes not in GRAPH_PASS_MODES:
            raise ValueError(
                f"graph_passes must be one of {GRAPH_PASS_MODES}, "
                f"got {self.graph_passes!r}"
            )

    def with_cluster(self, **kwargs) -> "EngineConfig":
        """Return a copy with cluster fields replaced (e.g. ``num_nodes=2``)."""
        return replace(self, cluster=replace(self.cluster, **kwargs))

    def with_options(self, **kwargs) -> "EngineConfig":
        """Return a copy with engine fields replaced."""
        return replace(self, **kwargs)


@dataclass(frozen=True)
class ServiceConfig:
    """Limits of the multi-tenant serving layer (:mod:`repro.serving`).

    One dispatcher thread executes admitted queries one at a time.  Queries
    wait in a bounded per-tenant FIFO queue drained by deficit round-robin
    across tenants; a full queue, or a query whose footprint estimate
    exceeds ``memory_budget_bytes`` (by default the cluster's aggregate
    task memory ``N * Tc * theta_t``), is shed at submit with
    :class:`~repro.errors.ServiceOverloadedError`, and a queued query that
    waits longer than ``queue_timeout_seconds`` fails with
    :class:`~repro.errors.QueryTimeoutError` instead of waiting forever.
    Identical repeated queries are answered from a result cache of
    ``result_cache_entries`` entries.
    """

    #: Total queued queries across all tenants before submits are shed.
    max_queue_depth: int = 64
    #: Wall-clock seconds a query may wait queued; ``None`` disables.
    queue_timeout_seconds: Optional[float] = 30.0
    #: Admission memory budget; ``None`` means the cluster's
    #: :attr:`~ClusterConfig.total_memory_budget`.
    memory_budget_bytes: Optional[int] = None
    #: Result-cache capacity (entries); a 0-entry cache holds nothing.  Its
    #: byte bound is the slice cache's 256 MiB.
    result_cache_entries: int = 128

    def __post_init__(self) -> None:
        if self.max_queue_depth <= 0:
            raise ValueError("max_queue_depth must be positive")
        if self.queue_timeout_seconds is not None and self.queue_timeout_seconds <= 0:
            raise ValueError("queue_timeout_seconds must be positive or None")
        if self.memory_budget_bytes is not None and self.memory_budget_bytes <= 0:
            raise ValueError("memory_budget_bytes must be positive or None")
        if self.result_cache_entries < 0:
            raise ValueError("result_cache_entries cannot be negative")


def paper_cluster(num_nodes: int = 8) -> EngineConfig:
    """Config mirroring the paper's testbed, scaled to simulation size.

    The paper uses 8 worker nodes, 12 tasks per node, a 10 GB budget per
    task, 1 Gbps Ethernet and 546 GFLOPS per node, with 1000x1000 blocks.
    We keep the ratios and bandwidths but default to 100x100 blocks and a
    proportionally smaller task budget so experiments run on one machine.
    """
    cluster = ClusterConfig(
        num_nodes=num_nodes,
        tasks_per_node=12,
        task_memory_budget=512 * 1024 * 1024,
        network_bandwidth=1.0 * GBPS,
        compute_bandwidth=546.0 * GFLOPS,
    )
    return EngineConfig(cluster=cluster)
