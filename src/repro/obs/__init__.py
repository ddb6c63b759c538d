"""Unified query telemetry (`repro.obs`).

The observability subsystem every layer above it reports into:

* :mod:`repro.obs.span` — hierarchical query spans (parse -> plan -> lower
  -> per-unit execution -> stages), each carrying wall-clock *and* modeled
  seconds plus free-form attributes;
* :mod:`repro.obs.profile` — the cost-model accountability join: per-unit
  predicted-vs-measured tables (:class:`QueryProfile`) with relative
  errors, rendered as the engine's "EXPLAIN ANALYZE";
* :mod:`repro.obs.bus` — a tiny event bus decoupling producers from
  exporters;
* :mod:`repro.obs.sinks` — pluggable exporters (structured log, in-memory,
  JSON dump for benchmarks).

Layering: this package sits next to ``config``/``utils`` at the *bottom*
of the stack.  It never imports ``repro.core``, ``repro.cluster`` or
``repro.serving`` — producers up there hand it plain data (dicts, floats,
strings), so any layer may attach a sink without creating an import cycle
(enforced by ``scripts/check_layers.py``).
"""

from repro.obs.bus import EventBus, Sink, TelemetryEvent
from repro.obs.profile import QueryProfile, UnitProfile, relative_error
from repro.obs.sinks import JsonDumpSink, LoggingSink, MemorySink
from repro.obs.span import Span, SpanTracer

__all__ = [
    "EventBus",
    "JsonDumpSink",
    "LoggingSink",
    "MemorySink",
    "QueryProfile",
    "Sink",
    "Span",
    "SpanTracer",
    "TelemetryEvent",
    "UnitProfile",
    "relative_error",
]
