"""The simulated cluster: stages, tasks and run-wide accounting.

Operators interact with the cluster through :class:`Stage`::

    with cluster.stage("cfo:consolidate+compute") as stage:
        for cuboid in partitioning:
            task = stage.task()
            task.receive(block)           # consolidation transfer
            ... run kernels ...
            task.add_flops(...)
            task.hold_output(out_block)

Closing the stage computes its modeled elapsed time, records a
:class:`~repro.cluster.metrics.StageRecord`, and enforces the simulated-time
timeout (the paper's 12-hour ``T.O.``).  A stage is priced one way: the
paper's Eq. 2 applied to its *total* traffic and flops, scaled by slot
utilisation plus per-wave launch overhead
(:func:`repro.cluster.simulation.stage_seconds`).

A stage whose body raises (O.O.M., timeout, operator bug) is still recorded
— as an *aborted* :class:`StageRecord` with zero modeled seconds — so a
failed run's partial traffic remains visible in its metrics.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Iterator, Optional

from repro.config import EngineConfig
from repro.cluster.metrics import MetricsCollector, MetricsMark, StageRecord
from repro.cluster.simulation import stage_seconds
from repro.cluster.slice_cache import SliceCache
from repro.cluster.task import TaskContext
from repro.errors import SimulatedTimeoutError

#: Modeled seconds one query may run before it fails with
#: :class:`~repro.errors.SimulatedTimeoutError`: the paper's 12-hour T.O.
TIMEOUT_SECONDS = 12 * 3600.0


class Stage:
    """One set of parallel tasks; a context manager that records itself."""

    def __init__(self, cluster: "SimulatedCluster", name: str):
        self._cluster = cluster
        self.name = name
        self.tasks: list[TaskContext] = []
        self._closed = False
        #: Physical-plan unit this stage belongs to (captured from the
        #: cluster's per-thread unit scope at creation), None outside one.
        self.unit = cluster.current_unit
        # wall-clock anchor for StageRecord.wall_seconds; taken here so the
        # measurement covers the whole stage body
        self._wall_start = time.perf_counter()

    def task(self) -> TaskContext:
        """Allocate the next task of this stage."""
        if self._closed:
            raise RuntimeError(f"stage {self.name!r} is already closed")
        task_id = f"{self.name}#{len(self.tasks)}"
        ctx = TaskContext(task_id, self._cluster.config.cluster.task_memory_budget)
        self.tasks.append(ctx)
        return ctx

    # -- context manager -----------------------------------------------------

    def __enter__(self) -> "Stage":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
        elif not self._closed:
            self.abort()

    # -- accounting ----------------------------------------------------------

    def _totals(self) -> tuple[int, int, int, int]:
        consolidation = sum(t.consolidation_bytes for t in self.tasks)
        aggregation = sum(t.aggregation_bytes for t in self.tasks)
        flops = sum(t.flops for t in self.tasks)
        peak = max((t.peak_memory for t in self.tasks), default=0)
        return consolidation, aggregation, flops, peak

    def _record(self, seconds: float, aborted: bool = False) -> StageRecord:
        """Record this stage exactly once; every exit path funnels here."""
        if self._closed:
            raise RuntimeError(f"stage {self.name!r} is already closed")
        self._closed = True
        consolidation, aggregation, flops, peak = self._totals()
        record = StageRecord(
            name=self.name,
            num_tasks=len(self.tasks),
            consolidation_bytes=consolidation,
            aggregation_bytes=aggregation,
            flops=flops,
            seconds=seconds,
            peak_task_memory=peak,
            aborted=aborted,
            unit=self.unit,
            wall_seconds=time.perf_counter() - self._wall_start,
        )
        self._cluster.metrics.record(record)
        return record

    def abort(self) -> StageRecord:
        """Record the stage as aborted: partial traffic kept, zero seconds.

        Called by ``__exit__`` when the stage body raises (the O.O.M. and
        timeout paths), so failed runs still report what they moved.
        """
        return self._record(seconds=0.0, aborted=True)

    def close(self) -> StageRecord:
        """Finalize: compute modeled time, record metrics, check timeout."""
        if self._closed:
            raise RuntimeError(f"stage {self.name!r} is already closed")
        consolidation, aggregation, flops, _ = self._totals()
        seconds = stage_seconds(
            self._cluster.config.cluster,
            num_tasks=len(self.tasks),
            net_bytes=consolidation + aggregation,
            flops=flops,
        )
        record = self._record(seconds=seconds)
        self._cluster._check_timeout()
        return record


class SimulatedCluster:
    """The distributed substrate shared by FuseME and every baseline engine."""

    def __init__(self, config: Optional[EngineConfig] = None):
        self.config = config or EngineConfig()
        self.metrics = MetricsCollector()
        #: Consolidation slabs shared by this cluster's tasks; an engine
        #: swaps in its own cache, which lives across executes.
        self.slice_cache = SliceCache()
        # the collector position at the start of the current query; the
        # simulated timeout budget applies per query, not per cluster
        # lifetime, so a long-lived (serving) cluster never times out a
        # query for the time its predecessors spent
        self._query_mark = self.metrics.mark()
        # per-thread physical-plan unit index: stages opened on a thread
        # inherit it, attributing their StageRecords to the unit
        self._unit_scope = threading.local()

    @property
    def current_unit(self) -> Optional[int]:
        """The physical-plan unit index the calling thread is executing."""
        return getattr(self._unit_scope, "unit", None)

    @contextmanager
    def unit_scope(self, index: int) -> Iterator[None]:
        """Attribute stages opened on this thread to physical-plan unit
        *index* (see :func:`repro.core.physical.run_physical_plan`)."""
        previous = self.current_unit
        self._unit_scope.unit = index
        try:
            yield
        finally:
            self._unit_scope.unit = previous

    @property
    def shared_inputs(self) -> frozenset:
        """Environment keys whose consolidation an earlier consumer already
        paid for (graph-pass annotation); operators charge blocks sliced
        from these sources as local reads.  Empty outside a scope."""
        return getattr(self._unit_scope, "shared_inputs", frozenset())

    @contextmanager
    def shared_input_scope(self, keys) -> Iterator[None]:
        """Mark *keys* as already-consolidated for operators executing on
        this thread (see :func:`repro.core.physical.execute_unit`).
        Operators capture the set once at ``execute()`` entry."""
        previous = self.shared_inputs
        self._unit_scope.shared_inputs = frozenset(keys)
        try:
            yield
        finally:
            self._unit_scope.shared_inputs = previous

    @property
    def total_tasks(self) -> int:
        """``T``: parallel task slots (``N * Tc``)."""
        return self.config.cluster.total_tasks

    @property
    def num_nodes(self) -> int:
        return self.config.cluster.num_nodes

    def stage(self, name: str) -> Stage:
        """Open a new stage (use as a context manager)."""
        return Stage(self, name)

    def begin_query(self) -> MetricsMark:
        """Mark the start of a new query on this cluster.

        Called by :meth:`Engine.execute <repro.execution.Engine.execute>`.
        Accumulated metrics are left untouched (a shared cluster keeps
        whole-job totals); only the timeout epoch advances, so each query
        gets the full :data:`TIMEOUT_SECONDS` budget regardless of how much
        modeled time earlier queries on the same cluster consumed.  Returns
        the collector mark the query's metrics delta is taken from.
        """
        self._query_mark = self.metrics.mark()
        return self._query_mark

    def _check_timeout(self) -> None:
        elapsed = self.metrics.elapsed_since(self._query_mark)
        if elapsed > TIMEOUT_SECONDS:
            raise SimulatedTimeoutError(elapsed, TIMEOUT_SECONDS)

    def __repr__(self) -> str:
        c = self.config.cluster
        return (
            f"SimulatedCluster(nodes={c.num_nodes}, tasks_per_node="
            f"{c.tasks_per_node}, theta_t={c.task_memory_budget})"
        )
