"""Cost-model accountability: the predicted-vs-measured join.

The optimizer picks a ``(P, Q, R)`` cuboid and an operator per unit because
its cost model (the paper's Eq. 2 / Table 1) predicts that choice is
cheapest.  A :class:`QueryProfile` holds the join of those predictions
(per-unit estimated network bytes, flops, modeled seconds, memory) against
what execution actually measured (per-unit stage totals), with signed
relative errors — so a mis-modeled unit is a number on a report instead of
being invisible.

Everything here is plain data: the execution layer extracts floats from its
``UnitOp`` estimates and ``MetricsCollector`` per-unit totals and builds
these dataclasses; callers and tests read them without importing any
engine machinery.  :meth:`QueryProfile.render` is the engine's
"EXPLAIN ANALYZE": a deterministic text table of modeled numbers only
(the per-unit wall seconds stay in :meth:`to_dict`), so golden tests can
pin the report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Sequence, Tuple


def relative_error(
    predicted: Optional[float], measured: Optional[float]
) -> Optional[float]:
    """Signed relative error ``(predicted - measured) / measured``.

    Positive means the model over-predicted.  ``None`` whenever no honest
    ratio exists: either side unknown or non-finite, a zero prediction
    against a nonzero measurement (an estimator that produced 0 made no
    claim, and calling it "-100% off" would poison every error aggregate
    calibration trusts), or a nonzero prediction against a zero measurement
    (the ratio is undefined; the old ``+/-inf`` answer leaked into means and
    JSON).  ``0.0`` when both sides are zero — the model claimed no work and
    none happened.
    """
    if predicted is None or measured is None:
        return None
    if not (math.isfinite(predicted) and math.isfinite(measured)):
        return None
    if measured == 0:
        return 0.0 if predicted == 0 else None
    if predicted == 0:
        return None
    return (predicted - measured) / measured


@dataclass(frozen=True)
class UnitProfile:
    """One physical-plan unit's prediction joined with its measurement."""

    index: int
    kind: str
    label: str
    pqr: Optional[Tuple[int, int, int]] = None
    #: Raw-lowering unit indices this unit descends from.  ``(index,)`` (or
    #: empty) for untouched units; a merged unit lists every source unit so
    #: profiles and calibration observations stay joinable across the
    #: graph-pass rewrite instead of dangling on a renumbered id.
    sources: Tuple[int, ...] = ()
    #: Planner-side estimates (None where the unit ran no parameter search).
    predicted_seconds: Optional[float] = None
    predicted_net_bytes: Optional[float] = None
    predicted_flops: Optional[float] = None
    predicted_mem_bytes: Optional[float] = None
    #: Execution-side modeled totals over the unit's stages.
    measured_seconds: float = 0.0
    measured_comm_bytes: float = 0.0
    measured_flops: float = 0.0
    num_stages: int = 0
    num_tasks: int = 0
    #: Real wall-clock seconds the unit's stages took.  Observability only
    #: — never enters an error ratio, since it depends on host load.
    measured_wall_seconds: Optional[float] = None

    @property
    def seconds_error(self) -> Optional[float]:
        return relative_error(self.predicted_seconds, self.measured_seconds)

    @property
    def net_bytes_error(self) -> Optional[float]:
        return relative_error(self.predicted_net_bytes, self.measured_comm_bytes)

    @property
    def flops_error(self) -> Optional[float]:
        return relative_error(self.predicted_flops, self.measured_flops)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "index": self.index,
            "kind": self.kind,
            "label": self.label,
            "pqr": list(self.pqr) if self.pqr is not None else None,
            "sources": list(self.sources),
            "predicted_seconds": self.predicted_seconds,
            "predicted_net_bytes": self.predicted_net_bytes,
            "predicted_flops": self.predicted_flops,
            "predicted_mem_bytes": self.predicted_mem_bytes,
            "measured_seconds": self.measured_seconds,
            "measured_comm_bytes": self.measured_comm_bytes,
            "measured_flops": self.measured_flops,
            "num_stages": self.num_stages,
            "num_tasks": self.num_tasks,
            "measured_wall_seconds": self.measured_wall_seconds,
            "seconds_error": self.seconds_error,
            "net_bytes_error": self.net_bytes_error,
            "flops_error": self.flops_error,
        }


@dataclass(frozen=True)
class QueryProfile:
    """The whole query's accountability report (engine's EXPLAIN ANALYZE)."""

    engine: str
    units: Tuple[UnitProfile, ...]
    #: Modeled whole-query totals (``MetricsCollector.totals()``).
    totals: Dict[str, Any] = field(default_factory=dict)
    #: Observability counters accumulated by this query.
    counters: Dict[str, int] = field(default_factory=dict)

    # -- aggregates --------------------------------------------------------

    @property
    def measured_seconds(self) -> float:
        return float(self.totals.get("elapsed_seconds", 0.0))

    @property
    def predicted_seconds(self) -> Optional[float]:
        """Summed modeled-seconds predictions over units that carry one."""
        known = [
            u.predicted_seconds for u in self.units
            if u.predicted_seconds is not None
        ]
        return sum(known) if known else None

    @property
    def seconds_error(self) -> Optional[float]:
        """Whole-query error, restricted to units with a seconds estimate
        (comparing a partial prediction against the full measurement would
        manufacture error where the model made no claim)."""
        predicted = measured = 0.0
        any_known = False
        for unit in self.units:
            if unit.predicted_seconds is not None:
                any_known = True
                predicted += unit.predicted_seconds
                measured += unit.measured_seconds
        if not any_known:
            return None
        return relative_error(predicted, measured)

    @property
    def mean_abs_seconds_error(self) -> Optional[float]:
        errors = [
            abs(u.seconds_error) for u in self.units
            if u.seconds_error is not None and math.isfinite(u.seconds_error)
        ]
        return sum(errors) / len(errors) if errors else None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "engine": self.engine,
            "units": [u.to_dict() for u in self.units],
            "totals": dict(self.totals),
            "counters": dict(self.counters),
            "predicted_seconds": self.predicted_seconds,
            "measured_seconds": self.measured_seconds,
            "seconds_error": self.seconds_error,
            "mean_abs_seconds_error": self.mean_abs_seconds_error,
        }

    # -- rendering ---------------------------------------------------------

    def render(self) -> str:
        """The EXPLAIN ANALYZE text report.

        Deterministic: only modeled/predicted/measured numbers appear
        (golden tests pin the output).
        """
        header = (
            f"QueryProfile[{self.engine}]: {len(self.units)} unit(s), "
            f"{self.totals.get('num_stages', 0)} stage(s); "
            f"measured {_fmt(self.measured_seconds)}s"
        )
        predicted = self.predicted_seconds
        if predicted is not None:
            header += (
                f", predicted {_fmt(predicted)}s "
                f"(err {_fmt_error(self.seconds_error)})"
            )
        lines = [header]
        lines.extend(_render_table(self.units))
        if self.counters:
            parts = ", ".join(
                f"{name}={self.counters[name]}" for name in sorted(self.counters)
            )
            lines.append(f"counters: {parts}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"QueryProfile(engine={self.engine!r}, units={len(self.units)}, "
            f"measured={self.measured_seconds:.6g}s)"
        )


_COLUMNS = (
    "unit", "kind", "pqr",
    "sec(pred)", "sec(meas)", "sec err",
    "net(pred)", "net(meas)", "net err",
    "flops(pred)", "flops(meas)", "flops err",
    "label",
)


def _fmt(value: Optional[float]) -> str:
    if value is None:
        return "-"
    return f"{value:.4g}"


def _fmt_error(error: Optional[float]) -> str:
    if error is None:
        return "-"
    if math.isinf(error):
        return "+inf" if error > 0 else "-inf"
    return f"{error * 100:+.1f}%"


def _render_table(units: Sequence[UnitProfile]) -> list[str]:
    rows = [list(_COLUMNS)]
    for unit in units:
        merged = unit.sources and unit.sources != (unit.index,)
        unit_cell = (
            f"[{unit.index}<-{','.join(str(s) for s in unit.sources)}]"
            if merged else f"[{unit.index}]"
        )
        rows.append([
            unit_cell,
            unit.kind,
            str(unit.pqr) if unit.pqr is not None else "-",
            _fmt(unit.predicted_seconds),
            _fmt(unit.measured_seconds),
            _fmt_error(unit.seconds_error),
            _fmt(unit.predicted_net_bytes),
            _fmt(unit.measured_comm_bytes),
            _fmt_error(unit.net_bytes_error),
            _fmt(unit.predicted_flops),
            _fmt(unit.measured_flops),
            _fmt_error(unit.flops_error),
            unit.label,
        ])
    widths = [
        max(len(row[col]) for row in rows) for col in range(len(_COLUMNS))
    ]
    lines = []
    for row in rows:
        cells = [cell.ljust(width) for cell, width in zip(row, widths)]
        lines.append("  ".join(cells).rstrip())
    return lines
