"""Execution metrics: the numbers every figure in the paper reports.

A :class:`MetricsCollector` accumulates per-stage records and exposes the two
headline series of the evaluation: *communication cost* (bytes moved in the
consolidation + aggregation steps, Figures 12(e-g), 14(d,h)) and *elapsed
time* (modeled seconds, Figures 12(a-d,h), 14(a-c,e-g), 15).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, Iterator


@dataclass(frozen=True)
class StageRecord:
    """Totals for one executed stage (one wave-set of parallel tasks).

    ``aborted`` marks a stage whose body raised — its partial traffic still
    counts, its modeled time is zero.
    """

    name: str
    num_tasks: int
    consolidation_bytes: int
    aggregation_bytes: int
    flops: int
    seconds: float
    peak_task_memory: int
    aborted: bool = False
    #: Physical-plan unit index this stage ran for (None outside a unit
    #: scope — e.g. hand-opened stages in tests).
    unit: "int | None" = None
    #: Real wall-clock seconds the stage took to evaluate.
    #: Observability/calibration only — never part of
    #: :meth:`MetricsCollector.totals`, which stays comparable across runs.
    wall_seconds: float = 0.0

    @property
    def comm_bytes(self) -> int:
        return self.consolidation_bytes + self.aggregation_bytes


@dataclass(frozen=True)
class MetricsMark:
    """A position in a collector's history: what :meth:`MetricsCollector.mark`
    hands out and :meth:`MetricsCollector.diff_since` slices from.  O(counters)
    to take, however many stages the collector holds."""

    num_stages: int
    counters: Dict[str, int]


@dataclass
class MetricsCollector:
    """Accumulates stage records and running totals for one engine run.

    Besides the modeled stage records, a collector carries fast-path
    *counters* (plan-cache and slice-cache hits/misses).  Counters are
    observability only: they never feed the modeled numbers, so two runs
    may differ in counters while being identical in every total below.
    Recording is thread-safe — a serving dispatcher thread records stages
    while other threads read status and totals.
    """

    stages: list[StageRecord] = field(default_factory=list)
    counters: Dict[str, int] = field(default_factory=dict)
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def record(self, stage: StageRecord) -> None:
        with self._lock:
            self.stages.append(stage)

    def bump(self, counter: str, amount: int = 1) -> None:
        """Increment an observability counter (thread-safe)."""
        with self._lock:
            self.counters[counter] = self.counters.get(counter, 0) + amount

    def counter(self, name: str) -> int:
        with self._lock:
            return self.counters.get(name, 0)

    # -- totals -----------------------------------------------------------
    #
    # Every read goes through a lock-consistent snapshot: the thread
    # executing a query may be appending stages / bumping counters while
    # another thread reads, and iterating a mutating dict raises.

    def _stages_view(self, start: int = 0) -> list[StageRecord]:
        with self._lock:
            return self.stages[start:]

    def _counters_view(self) -> Dict[str, int]:
        with self._lock:
            return dict(self.counters)

    @property
    def consolidation_bytes(self) -> int:
        return sum(s.consolidation_bytes for s in self._stages_view())

    @property
    def aggregation_bytes(self) -> int:
        return sum(s.aggregation_bytes for s in self._stages_view())

    @property
    def comm_bytes(self) -> int:
        """Paper's communication cost: consolidation + aggregation traffic.

        Summed from one snapshot — composing the two byte properties would
        read two different snapshots under concurrent recording.
        """
        return sum(
            s.consolidation_bytes + s.aggregation_bytes
            for s in self._stages_view()
        )

    @property
    def flops(self) -> int:
        return sum(s.flops for s in self._stages_view())

    @property
    def elapsed_seconds(self) -> float:
        """Modeled end-to-end elapsed time (stages are sequential)."""
        return sum(s.seconds for s in self._stages_view())

    @property
    def peak_task_memory(self) -> int:
        return max((s.peak_task_memory for s in self._stages_view()), default=0)

    @property
    def num_stages(self) -> int:
        with self._lock:
            return len(self.stages)

    @property
    def num_tasks(self) -> int:
        return sum(s.num_tasks for s in self._stages_view())

    @property
    def num_aborted_stages(self) -> int:
        """Stages whose body raised (O.O.M. / timeout) before closing."""
        return sum(1 for s in self._stages_view() if s.aborted)

    def per_unit_totals(self) -> Dict[int, Dict[str, object]]:
        """Modeled totals grouped by physical-plan unit index.

        Stages recorded outside a unit scope (``unit is None``) are
        skipped; keys are unit indices in ascending order.
        """
        grouped: Dict[int, list[StageRecord]] = {}
        for stage in self._stages_view():
            if stage.unit is not None:
                grouped.setdefault(stage.unit, []).append(stage)
        return {
            unit: {
                "num_stages": len(stages),
                "num_tasks": sum(s.num_tasks for s in stages),
                "comm_bytes": sum(s.comm_bytes for s in stages),
                "flops": sum(s.flops for s in stages),
                "elapsed_seconds": sum(s.seconds for s in stages),
                "wall_seconds": sum(s.wall_seconds for s in stages),
            }
            for unit, stages in sorted(grouped.items())
        }

    # -- bookkeeping -------------------------------------------------------

    def totals(self) -> Dict[str, object]:
        """Every modeled total as one dict (counters excluded on purpose:
        they may legitimately differ between runs whose modeled behaviour
        is identical).  Computed from a single snapshot so the values are
        mutually consistent even while stages are being recorded."""
        stages = self._stages_view()
        return {
            "num_stages": len(stages),
            "num_tasks": sum(s.num_tasks for s in stages),
            "consolidation_bytes": sum(s.consolidation_bytes for s in stages),
            "aggregation_bytes": sum(s.aggregation_bytes for s in stages),
            "flops": sum(s.flops for s in stages),
            "elapsed_seconds": sum(s.seconds for s in stages),
            "peak_task_memory": max(
                (s.peak_task_memory for s in stages), default=0
            ),
            "num_aborted_stages": sum(1 for s in stages if s.aborted),
        }

    def mark(self) -> MetricsMark:
        """The current position, for a later :meth:`diff_since` /
        :meth:`elapsed_since` — the per-query baseline on a shared cluster."""
        with self._lock:
            return MetricsMark(len(self.stages), dict(self.counters))

    def elapsed_since(self, mark: MetricsMark) -> float:
        """Modeled seconds of the stages recorded after *mark*."""
        return sum(s.seconds for s in self._stages_view(mark.num_stages))

    def snapshot(self) -> Dict[str, object]:
        """Everything observable as one plain dict: the modeled totals of
        :meth:`totals` plus a ``"counters"`` sub-dict.  This is the public
        embedding surface — ``service.status()`` and log lines include it
        verbatim instead of reaching into fields."""
        snap = self.totals()
        snap["counters"] = self._counters_view()
        return snap

    def diff_since(self, baseline: MetricsMark) -> "MetricsCollector":
        """Metrics accumulated after the :meth:`mark` *baseline* was taken."""
        with self._lock:
            stages = self.stages[baseline.num_stages:]
            counters = dict(self.counters)
        deltas = {
            name: value - baseline.counters.get(name, 0)
            for name, value in counters.items()
            if value != baseline.counters.get(name, 0)
        }
        return MetricsCollector(stages=stages, counters=deltas)

    def __iter__(self) -> Iterator[StageRecord]:
        return iter(self._stages_view())

    def summary(self) -> str:
        from repro.utils.formatting import format_bytes, format_seconds

        text = (
            f"{self.num_stages} stages, {self.num_tasks} tasks, "
            f"comm={format_bytes(self.comm_bytes)} "
            f"(consolidation={format_bytes(self.consolidation_bytes)}, "
            f"aggregation={format_bytes(self.aggregation_bytes)}), "
            f"flops={self.flops:,}, "
            f"elapsed={format_seconds(self.elapsed_seconds)}"
        )
        if self.num_aborted_stages:
            text += f", aborted_stages={self.num_aborted_stages}"
        return text
