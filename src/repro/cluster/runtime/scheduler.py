"""Event-driven per-slot stage scheduling.

The aggregate model (:func:`repro.cluster.simulation.stage_seconds`) divides
a stage's *total* traffic and flops across the whole cluster — perfect load
balance by construction.  :class:`ClusterRuntime` instead simulates the
``N x Tc`` slots individually: each :class:`~repro.cluster.task.TaskContext`
becomes a unit of work whose busy time is Eq. 2 applied to *that task's own*
bytes and flops on one slot's bandwidth share, a greedy earliest-slot list
scheduler places attempts in waves, and the stage's elapsed time is the
longest slot timeline.  Skewed cuboid partitionings and stragglers therefore
cost real modeled seconds, exactly the imbalance the paper's Section 6.2
observes (BFO starving on ~13 partitions) and Eq. 2 cannot express.

Fault injection (crashes, stragglers, node loss) and bounded retries with
exponential backoff come from a :class:`~repro.cluster.runtime.faults.FaultPlan`;
every attempt is reported to an optional
:class:`~repro.cluster.runtime.trace.TraceRecorder`.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.cluster.runtime.faults import NO_FAULTS, FaultPlan
from repro.cluster.runtime.trace import TraceRecorder
from repro.cluster.simulation import task_seconds
from repro.cluster.task import TaskContext
from repro.config import ClusterConfig
from repro.errors import ClusterLostError, TaskRetriesExceededError


@dataclass(frozen=True)
class TaskAttempt:
    """One scheduled attempt of one task on one slot."""

    task_id: str
    attempt: int  # 1-based
    node: int
    slot: int
    start: float
    end: float
    outcome: str  # "ok" | "crashed" | "node-lost"
    slowdown: float = 1.0

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class ScheduledStage:
    """The runtime's verdict on one stage: timelines, attempts, skew.

    The timeline is relative: the stage opens at 0.0 and *end* is when its
    last attempt finishes.
    """

    name: str
    end: float
    attempts: Tuple[TaskAttempt, ...]
    num_tasks: int
    skew_ratio: float
    lost_node: Optional[int] = None

    @property
    def seconds(self) -> float:
        return self.end

    @property
    def num_attempts(self) -> int:
        return len(self.attempts)

    @property
    def num_retries(self) -> int:
        return len(self.attempts) - self.num_tasks


class ClusterRuntime:
    """Per-slot scheduler shared by every stage of a simulated run.

    The runtime is stateless across stages (slots drain between stages, as
    Spark's barrier between shuffle boundaries enforces); what persists is
    the fault plan, the trace recorder, and the cluster shape.
    """

    def __init__(
        self,
        cluster: ClusterConfig,
        fault_plan: Optional[FaultPlan] = None,
        trace: Optional[TraceRecorder] = None,
        overlap: bool = True,
    ):
        self.cluster = cluster
        self.fault_plan = fault_plan or NO_FAULTS
        self.trace = trace
        self.overlap = overlap

    # -- scheduling --------------------------------------------------------

    def run_stage(
        self,
        name: str,
        tasks: Sequence[TaskContext],
        trace_offset: float = 0.0,
    ) -> ScheduledStage:
        """Schedule *tasks* onto slots and return the stage's timeline.

        Deterministic: tasks are queued in declaration order, attempts go to
        the earliest-available slot (ties broken by slot id), and all fault
        draws are pure functions of the fault plan's seed.

        The timeline is relative to the stage's opening at 0.0, so its
        duration is a function of its tasks alone (``(start + d) - start`` is
        not ``d`` in floating point).  *trace_offset* is the stage's position
        on the run's clock; it shifts only the timestamps of the trace events
        emitted here.
        """
        if not tasks:
            return ScheduledStage(
                name=name,
                end=0.0,
                attempts=(),
                num_tasks=0,
                skew_ratio=1.0,
            )
        plan = self.fault_plan
        overhead = self.cluster.task_launch_overhead
        lost_node = plan.lost_node(name, self.cluster.num_nodes)

        busy = {
            t.task_id: task_seconds(
                self.cluster, t.consolidation_bytes + t.aggregation_bytes,
                t.flops, overlap=self.overlap,
            )
            for t in tasks
        }

        # slots: (free_at, slot_id) min-heap; slot s lives on node s // Tc
        slots = [(0.0, s) for s in range(self.cluster.total_tasks)]
        heapq.heapify(slots)
        # each lost-node slot kills exactly one attempt, then is blacklisted
        doomed_slots = (
            {
                s
                for s in range(self.cluster.total_tasks)
                if s // self.cluster.tasks_per_node == lost_node
            }
            if lost_node is not None
            else set()
        )

        order = itertools.count()
        # pending attempts: (ready_at, tie_break, task, attempt_number)
        pending = [(0.0, next(order), task, 1) for task in tasks]
        heapq.heapify(pending)

        attempts: List[TaskAttempt] = []
        while pending:
            ready_at, _, task, attempt = heapq.heappop(pending)
            if not slots:
                raise ClusterLostError(name)
            free_at, slot = heapq.heappop(slots)
            node = slot // self.cluster.tasks_per_node
            slowdown = plan.slowdown(task.task_id, attempt)
            begin = max(free_at, ready_at)
            end = begin + busy[task.task_id] * slowdown + overhead

            if slot in doomed_slots:
                outcome = "node-lost"
                doomed_slots.discard(slot)  # slot stays off the heap for good
            elif plan.crashes(task.task_id, attempt):
                outcome = "crashed"
                heapq.heappush(slots, (end, slot))
            else:
                outcome = "ok"
                heapq.heappush(slots, (end, slot))

            record = TaskAttempt(
                task_id=task.task_id,
                attempt=attempt,
                node=node,
                slot=slot,
                start=begin,
                end=end,
                outcome=outcome,
                slowdown=slowdown,
            )
            attempts.append(record)
            if self.trace is not None:
                self.trace.task_attempt(
                    task.task_id,
                    attempt,
                    node,
                    slot,
                    trace_offset + begin,
                    trace_offset + end,
                    outcome,
                    net_bytes=task.consolidation_bytes + task.aggregation_bytes,
                    flops=task.flops,
                )
            if outcome != "ok":
                if attempt >= plan.max_attempts:
                    raise TaskRetriesExceededError(task.task_id, attempt)
                retry_ready = end + plan.backoff_seconds(attempt)
                heapq.heappush(pending, (retry_ready, next(order), task, attempt + 1))

        end_time = max(a.end for a in attempts)
        mean_busy = sum(busy.values()) / len(busy)
        skew = (max(busy.values()) / mean_busy) if mean_busy > 0 else 1.0
        return ScheduledStage(
            name=name,
            end=end_time,
            attempts=tuple(attempts),
            num_tasks=len(tasks),
            skew_ratio=skew,
            lost_node=lost_node,
        )

    def __repr__(self) -> str:
        return (
            f"ClusterRuntime(slots={self.cluster.total_tasks}, "
            f"faults={self.fault_plan!r})"
        )
