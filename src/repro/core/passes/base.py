"""Pass pipeline scaffolding: the :class:`GraphPass` contract + reports.

A graph pass is a rewrite over the lowered :class:`~repro.core.physical.
PhysicalPlan` — it runs *after* the engine's per-unit annotation and
*before* the plan is cached or executed, and it must never change matrix
outputs (only unit structure and modeled cost).  Passes are pure plan ->
plan functions that also return a :class:`PassReport`, which EXPLAIN
renders.

Ordering contract (see DESIGN.md §15): passes run in the order of
:data:`repro.core.passes.PIPELINE`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.core.physical import PhysicalPlan
from repro.utils.formatting import format_bytes


@dataclass
class PassReport:
    """What one pass did to one plan — rendered at the end of EXPLAIN."""

    name: str
    units_before: int = 0
    units_after: int = 0
    #: Merged groups formed (merge pass only).
    merged_groups: int = 0
    #: Consolidations rewritten to local reads (both passes).
    shared_keys: int = 0
    #: Modeled network bytes the rewrite saves (planner estimate).
    net_bytes_saved: float = 0.0
    #: Modeled seconds the rewrite saves (planner estimate).
    seconds_saved: float = 0.0

    @property
    def fired(self) -> bool:
        """Whether the pass changed the plan at all."""
        return self.units_after < self.units_before or self.shared_keys > 0

    def __str__(self) -> str:
        parts = [f"{self.name}:"]
        if not self.fired:
            parts.append("no-op")
            return " ".join(parts)
        if self.units_after != self.units_before:
            parts.append(
                f"units {self.units_before}->{self.units_after} "
                f"({self.merged_groups} group(s))"
            )
        if self.shared_keys:
            parts.append(f"shared {self.shared_keys} consolidation(s)")
        if self.net_bytes_saved > 0:
            parts.append(f"saved net={format_bytes(int(self.net_bytes_saved))}")
        if self.seconds_saved > 0:
            parts.append(f"sec={self.seconds_saved:.4g}")
        return " ".join(parts)


class GraphPass:
    """One rewrite over the physical IR.

    Subclasses set :attr:`name` (the report's name) and implement
    :meth:`run`.
    *engine* is the engine that lowered the plan — passes use its config,
    optimizer method, and calibration hooks, never its execution state.
    """

    name = "graph-pass"

    def run(self, engine, physical: PhysicalPlan) -> Tuple[PhysicalPlan, PassReport]:
        raise NotImplementedError
