"""A query's telemetry record: the cost model joined with what ran.

Once a query finished, :meth:`repro.execution.Engine._execute` calls
:func:`build_profile`, which joins every unit's planner estimate with its
measured stage totals (modeled seconds, bytes, flops and the stages' wall
seconds) into the :class:`~repro.obs.QueryProfile` the result carries,
with the query's counters and the cuboid-search totals merged in.
Nothing here feeds a modeled number.
"""

from __future__ import annotations

from typing import Dict

from repro.cluster.metrics import MetricsCollector
from repro.core.physical import PhysicalPlan
from repro.obs import QueryProfile, UnitProfile


def optimizer_counters(physical: PhysicalPlan) -> Dict[str, int]:
    """Cuboid-search totals summed over the plan's units.

    ``cuboids_enumerated`` is the size of the full candidate spaces,
    ``cuboids_evaluated`` what the searches actually costed out, and
    ``cuboids_pruned`` their difference — the Figure 13(d) story as
    counters.  Empty for plans that ran no parameter search.
    """
    results = [
        source.optimizer_result
        for op in physical.ops
        for source in (op.members if op.members else (op,))
        if source.optimizer_result is not None
    ]
    if not results:
        return {}
    return {
        "cuboids_enumerated": sum(r.candidates for r in results),
        "cuboids_evaluated": sum(r.evaluations for r in results),
        "cuboids_pruned": sum(r.pruned for r in results),
    }


def build_profile(
    engine_name: str, physical: PhysicalPlan, metrics: MetricsCollector
) -> QueryProfile:
    """Join *physical*'s per-unit estimates with *metrics* (the query's
    delta) into a :class:`QueryProfile`; the optimizer's counters are
    merged over the metrics counters."""
    per_unit = metrics.per_unit_totals()
    units = []
    for op in physical.ops:
        totals = per_unit.get(op.index, {})
        est = op.estimate
        units.append(UnitProfile(
            index=op.index,
            kind=op.kind,
            label=op.label(),
            pqr=op.pqr,
            sources=op.source_indices,
            predicted_seconds=(
                est.seconds if est is not None else None
            ),
            predicted_net_bytes=(
                est.net_bytes if est is not None else None
            ),
            predicted_flops=est.flops if est is not None else None,
            predicted_mem_bytes=(
                est.mem_bytes_per_task if est is not None else None
            ),
            measured_seconds=float(totals.get("elapsed_seconds", 0.0)),
            measured_comm_bytes=float(totals.get("comm_bytes", 0)),
            measured_flops=float(totals.get("flops", 0)),
            num_stages=int(totals.get("num_stages", 0)),
            num_tasks=int(totals.get("num_tasks", 0)),
            measured_wall_seconds=(
                float(totals["wall_seconds"])
                if "wall_seconds" in totals else None
            ),
        ))
    merged = dict(metrics.counters)
    merged.update(optimizer_counters(physical))
    return QueryProfile(
        engine=engine_name,
        units=tuple(units),
        totals=metrics.totals(),
        counters=merged,
    )

