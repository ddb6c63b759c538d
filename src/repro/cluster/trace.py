"""Structured execution traces with Chrome-trace export.

A :class:`TraceRecorder` accumulates :class:`TraceEvent` records emitted by
the cluster and the engine — stage spans, transfer totals, plan/slice-cache
instants and the query's span tree — with *modeled* timestamps (simulated
seconds since run start).  Attach one explicitly with
``SimulatedCluster(config, trace=TraceRecorder())``.  The recorder exports
two formats:

* ``to_chrome_trace()`` / ``write_chrome_trace(path)`` — the Trace Event
  JSON format consumed by ``chrome://tracing`` and https://ui.perfetto.dev;
* ``summary()`` — a plain-text digest for logs and benchmark output.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List

#: Synthetic "process" row hosting stage-level (driver) events.
DRIVER_PID = 0

#: Chrome traces use microseconds; the simulator models seconds.
_US = 1e6


@dataclass(frozen=True)
class TraceEvent:
    """One structured runtime event with modeled timestamps (seconds)."""

    name: str
    category: str  # "stage" | "transfer" | "span" | cache instants
    phase: str  # Chrome phases: "X" complete, "i" instant
    ts: float
    duration: float = 0.0
    pid: int = DRIVER_PID
    tid: int = 0
    args: Dict[str, Any] = field(default_factory=dict)

    def to_chrome(self) -> Dict[str, Any]:
        event: Dict[str, Any] = {
            "name": self.name,
            "cat": self.category,
            "ph": self.phase,
            "ts": self.ts * _US,
            "pid": self.pid,
            "tid": self.tid,
            "args": dict(self.args),
        }
        if self.phase == "X":
            event["dur"] = self.duration * _US
        if self.phase == "i":
            event["s"] = "t"  # instant event scoped to its thread
        return event


class TraceRecorder:
    """Collects runtime events and renders them as Chrome trace / text."""

    def __init__(self) -> None:
        self.events: List[TraceEvent] = []

    # -- recording hooks ---------------------------------------------------

    def record(self, event: TraceEvent) -> None:
        self.events.append(event)

    def stage(self, name: str, start: float, end: float, **args: Any) -> None:
        """A stage's full [open, close] span on the driver row."""
        self.record(
            TraceEvent(
                name=name,
                category="stage",
                phase="X",
                ts=start,
                duration=max(0.0, end - start),
                pid=DRIVER_PID,
                tid=0,
                args=args,
            )
        )

    def instant(
        self,
        name: str,
        category: str,
        ts: float,
        tid: int = 0,
        **args: Any,
    ) -> None:
        """A zero-duration marker on the driver row (cache hits, phases)."""
        self.record(
            TraceEvent(
                name=name,
                category=category,
                phase="i",
                ts=ts,
                pid=DRIVER_PID,
                tid=tid,
                args=args,
            )
        )

    def span_tree(self, span: Any, epoch: float, tid: int = 1) -> None:
        """Export a :class:`repro.obs.span.Span` tree as driver-row events.

        Spans that ran cluster stages carry *modeled* timestamps and land
        directly on the modeled timeline; pure planner phases (parse, plan,
        lower) only have wall-clock offsets, which are re-anchored so the
        tree's root starts at modeled second ``epoch`` — putting planning
        on the same timeline as the stages it produced.  ``tid`` picks the
        driver thread row (row 0 holds stage/transfer events).
        """
        base = span.wall_start

        def _emit(node: Any) -> None:
            if node.modeled_start is not None and node.modeled_end is not None:
                start, end = node.modeled_start, node.modeled_end
            else:
                wall_end = node.wall_end
                if wall_end is None:
                    wall_end = node.wall_start
                start = epoch + (node.wall_start - base)
                end = epoch + (wall_end - base)
            args = {k: v for k, v in node.attrs.items()}
            args["category"] = node.category
            self.record(
                TraceEvent(
                    name=node.name,
                    category="span",
                    phase="X",
                    ts=start,
                    duration=max(0.0, end - start),
                    pid=DRIVER_PID,
                    tid=tid,
                    args=args,
                )
            )
            for child in node.children:
                _emit(child)

        _emit(span)

    def transfer(
        self, stage_name: str, ts: float, consolidation: int, aggregation: int
    ) -> None:
        """Stage-level transfer totals as an instant event on the driver."""
        self.record(
            TraceEvent(
                name=f"transfer:{stage_name}",
                category="transfer",
                phase="i",
                ts=ts,
                pid=DRIVER_PID,
                tid=0,
                args={
                    "consolidation_bytes": consolidation,
                    "aggregation_bytes": aggregation,
                },
            )
        )

    # -- export ------------------------------------------------------------

    def to_chrome_trace(self) -> Dict[str, Any]:
        """The Trace Event Format document (load in chrome://tracing)."""
        events = [e.to_chrome() for e in self.events]
        if events:
            events.append(
                {
                    "name": "process_name",
                    "ph": "M",
                    "pid": DRIVER_PID,
                    "tid": 0,
                    "args": {"name": "driver"},
                }
            )
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_chrome_trace(), fh, indent=1)

    def summary(self) -> str:
        """Plain-text digest: per-category event counts."""
        by_category: Dict[str, int] = {}
        for event in self.events:
            by_category[event.category] = by_category.get(event.category, 0) + 1
        return "trace: " + ", ".join(
            f"{count} {category} events"
            for category, count in sorted(by_category.items())
        )

    def slice_from(self, index: int) -> "TraceRecorder":
        """A new recorder holding a copy of ``events[index:]``.

        Used for per-query trace isolation on shared clusters: the slice is
        independent of the live recorder (later queries never leak into
        it).  Timestamps are left absolute — they stay on the cluster's
        modeled clock, which keeps multiple queries' exports comparable.
        """
        sliced = TraceRecorder()
        sliced.events = list(self.events[index:])
        return sliced

    def clear(self) -> None:
        self.events.clear()

    def __len__(self) -> int:
        return len(self.events)

    def __repr__(self) -> str:
        return f"TraceRecorder({len(self.events)} events)"


def validate_chrome_trace(document: Dict[str, Any]) -> None:
    """Raise ValueError if *document* is not a loadable Chrome trace.

    Used by tests and by callers that archive traces: checks the envelope,
    required per-event keys, and that complete events carry durations.
    """
    if not isinstance(document, dict) or "traceEvents" not in document:
        raise ValueError("chrome trace must be an object with 'traceEvents'")
    for event in document["traceEvents"]:
        for key in ("name", "ph", "pid", "tid"):
            if key not in event:
                raise ValueError(f"trace event missing {key!r}: {event}")
        if event["ph"] == "X" and "dur" not in event:
            raise ValueError(f"complete event missing 'dur': {event}")
        if event["ph"] != "M" and "ts" not in event:
            raise ValueError(f"trace event missing 'ts': {event}")
    json.dumps(document)  # must round-trip
