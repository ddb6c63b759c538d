"""Query telemetry (`repro.obs`).

A query leaves one telemetry record: the :class:`QueryProfile` on
``result.profile``, the cost-model accountability join of every unit's
predicted seconds, network bytes and flops with what its stages measured,
with relative errors, rendered as the engine's "EXPLAIN ANALYZE"
(:mod:`repro.obs.profile`).

Layering: this package sits next to ``config``/``utils`` at the *bottom*
of the stack.  It never imports ``repro.core``, ``repro.cluster`` or
``repro.serving`` — producers up there hand it plain data (dicts, floats,
strings), so no import cycle can form (enforced by
``scripts/check_layers.py``).
"""

from repro.obs.profile import QueryProfile, UnitProfile, relative_error

__all__ = [
    "QueryProfile",
    "UnitProfile",
    "relative_error",
]
