"""A query's telemetry record: its span tree, joined with the cost model.

The engine driver (:meth:`repro.execution.Engine._execute`) times the
query, planning and execution phases with a :class:`~repro.obs.SpanTracer`
and observes each unit's wall window.  Once the query finished,
:func:`build_profile` completes that tree — one child of the execute span
per unit, one grandchild per stage, modeled windows read off the stage
records — and joins every unit's planner estimate with its measured stage
totals into the :class:`~repro.obs.QueryProfile` the result carries.
Nothing here feeds a modeled number.
"""

from __future__ import annotations

from typing import Dict, Mapping, Tuple

from repro.cluster.metrics import MetricsCollector
from repro.core.physical import PhysicalPlan
from repro.obs import QueryProfile, Span, UnitProfile


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
    engine_name: str,
    physical: PhysicalPlan,
    metrics: MetricsCollector,
    counters: Mapping[str, int],
    span: Span,
    exec_span: Span,
    unit_walls: Mapping[int, Tuple[float, float]],
    modeled_epoch: float,
) -> QueryProfile:
    """Finish the query's span tree and join it into a :class:`QueryProfile`.

    *span* is the tracer's root, *exec_span* its execute phase, *metrics*
    the query's delta and *modeled_epoch* where the query started on the
    cluster's modeled clock; *counters* (the optimizer's) are merged over
    the metrics counters.
    """
    modeled_end = modeled_epoch + metrics.elapsed_seconds
    span.modeled_start = exec_span.modeled_start = modeled_epoch
    span.modeled_end = exec_span.modeled_end = modeled_end
    _attach_unit_spans(exec_span, physical, metrics, unit_walls, modeled_epoch)

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
    merged.update(counters)
    return QueryProfile(
        engine=engine_name,
        units=tuple(units),
        totals=metrics.totals(),
        counters=merged,
        span=span,
        wall_seconds=span.wall_seconds,
    )


def _attach_unit_spans(
    exec_span: Span,
    physical: PhysicalPlan,
    metrics: MetricsCollector,
    unit_walls: Mapping[int, Tuple[float, float]],
    modeled_epoch: float,
) -> None:
    """Grow the execute span: one child per unit, one grandchild per stage.

    Stage records are sequential on the modeled clock and appended in unit
    order, so walking them while accumulating seconds reconstructs each
    stage's modeled ``[start, end]`` window.  Wall times come from the unit
    observer; stages carry modeled time only.
    """
    clock = modeled_epoch
    windows: Dict[int, list] = {}
    for record in metrics.stages:
        start, clock = clock, clock + record.seconds
        if record.unit is not None:
            windows.setdefault(record.unit, []).append((record, start, clock))

    for op in physical.ops:
        unit_span = exec_span.child(
            f"unit[{op.index}]", "unit", kind=op.kind, label=op.label()
        )
        if op.pqr is not None:
            unit_span.attrs["pqr"] = op.pqr
        if op.members:
            unit_span.attrs["sources"] = list(op.source_indices)
        wall = unit_walls.get(op.index)
        if wall is not None:
            unit_span.wall_start, unit_span.wall_end = wall
        stage_windows = windows.get(op.index, [])
        if stage_windows:
            unit_span.modeled_start = stage_windows[0][1]
            unit_span.modeled_end = stage_windows[-1][2]
        for record, start, end in stage_windows:
            stage_span = unit_span.child(
                record.name,
                "stage",
                num_tasks=record.num_tasks,
                comm_bytes=record.comm_bytes,
                flops=record.flops,
            )
            stage_span.modeled_start = start
            stage_span.modeled_end = end
