"""Graph-level optimizer passes over the physical IR.

:func:`run_graph_passes` is the pipeline entry point the engine calls
between :func:`~repro.core.physical.lower_plan` and the plan cache: with
``EngineConfig.graph_passes="all"`` (the default) it runs every pass of
:data:`PIPELINE` in order, threads the accumulated
:class:`~repro.core.passes.base.PassReport` objects onto the resulting
plan (EXPLAIN renders them).

Registering a new pass (DESIGN.md §15): subclass
:class:`~repro.core.passes.base.GraphPass` in a new module under
``repro/core/passes/`` and add the class to :data:`PIPELINE` at its
position.

Passes must keep matrix outputs bit-identical — they may only change unit
structure, charging annotations, and modeled cost.
"""

from __future__ import annotations

from repro.core.passes.base import GraphPass, PassReport
from repro.core.passes.dedup_consolidations import DedupConsolidationsPass
from repro.core.passes.merge_units import MergeUnitsPass
from repro.core.physical import PhysicalPlan

#: Every rewrite, in pipeline order: structural passes (unit merging) run
#: before annotation passes (consolidation dedup), so the dedup walk sees
#: the final unit order and never marks a key the merge already shares.
PIPELINE = (MergeUnitsPass, DedupConsolidationsPass)


def run_graph_passes(engine, physical: PhysicalPlan) -> PhysicalPlan:
    """Run every pass of :data:`PIPELINE` over *physical*, in order.

    With ``graph_passes="off"`` this returns *physical* untouched — not a
    copy — so the paper's plan allocates and computes nothing extra.
    """
    if engine.config.graph_passes == "off":
        return physical
    reports = list(physical.pass_reports)
    for pass_cls in PIPELINE:
        physical, report = pass_cls().run(engine, physical)
        reports.append(report)
    physical.pass_reports = tuple(reports)
    return physical


__all__ = [
    "GraphPass",
    "PassReport",
    "PIPELINE",
    "run_graph_passes",
    "MergeUnitsPass",
    "DedupConsolidationsPass",
]
