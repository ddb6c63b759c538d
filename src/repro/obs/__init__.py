"""Unified query telemetry (`repro.obs`).

A query leaves one telemetry record: its span tree, carried by a
:class:`QueryProfile` on ``result.profile``.

* :mod:`repro.obs.span` — hierarchical query spans (query -> plan and
  execute -> per-unit -> stages), each carrying wall-clock *and* modeled
  seconds plus free-form attributes;
* :mod:`repro.obs.profile` — the cost-model accountability join: per-unit
  predicted-vs-measured tables (:class:`QueryProfile`) with relative
  errors, rendered as the engine's "EXPLAIN ANALYZE".

Layering: this package sits next to ``config``/``utils`` at the *bottom*
of the stack.  It never imports ``repro.core``, ``repro.cluster`` or
``repro.serving`` — producers up there hand it plain data (dicts, floats,
strings), so no import cycle can form (enforced by
``scripts/check_layers.py``).
"""

from repro.obs.profile import QueryProfile, UnitProfile, relative_error
from repro.obs.span import Span, SpanTracer

__all__ = [
    "QueryProfile",
    "Span",
    "SpanTracer",
    "UnitProfile",
    "relative_error",
]
