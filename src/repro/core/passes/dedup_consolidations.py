"""Redundant consolidation elimination across units.

Several units consolidating the same materialized matrix each pay its
consolidation traffic in the seed plan.  This pass walks the final unit
order (and member order inside merged units) with a seen-set of consumed
environment keys: the first consumer keeps paying, every later consumer
gets the key in its ``shared_inputs`` annotation so operators charge those
blocks as local reads.  One materialization feeds all consumers.  Unit
order and each unit's reads are unchanged, so lifetimes (``releases``)
stay as they are.

The annotation is *static* — first consumer is defined by final plan
order, which is also the execution order.  Keys the merge pass already
shares intra-group are skipped, never double-counted.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Set, Tuple

from repro.core.physical import PhysicalPlan, UnitOp, env_key_of
from repro.lang.dag import InputNode

from repro.core.passes.base import GraphPass, PassReport


class DedupConsolidationsPass(GraphPass):
    """Make one consolidation feed every consumer of a materialization."""

    name = "dedup_consolidations"

    def run(self, engine, physical: PhysicalPlan) -> Tuple[PhysicalPlan, PassReport]:
        report = PassReport(
            name=self.name,
            units_before=len(physical.ops),
            units_after=len(physical.ops),
        )
        seen: Set[object] = set()
        new_ops: List[UnitOp] = []
        changed_any = False
        for op in physical.ops:
            if op.members:
                new_members = []
                members_changed = False
                for member in op.members:
                    marked = self._mark(member, seen, report)
                    members_changed = members_changed or marked is not member
                    new_members.append(marked)
                if members_changed:
                    op = replace(op, members=tuple(new_members))
                    changed_any = True
            else:
                marked = self._mark(op, seen, report)
                changed_any = changed_any or marked is not op
                op = marked
            new_ops.append(op)
        if not changed_any:
            return physical, report
        rebuilt = PhysicalPlan(
            physical.dag,
            new_ops,
            fusion_plan=physical.fusion_plan,
            engine_name=physical.engine_name,
        )
        rebuilt.pass_reports = physical.pass_reports
        return rebuilt, report

    @staticmethod
    def _mark(op: UnitOp, seen: Set[object], report: PassReport) -> UnitOp:
        """Mark *op*'s already-consolidated keys shared; grow *seen*."""
        fresh = [
            key for key in op.consumes
            if key in seen and key not in op.shared_inputs
        ]
        seen.update(op.consumes)
        if op.unit is None or not fresh:
            return op
        key_bytes = {
            env_key_of(dep): float(dep.meta.estimated_bytes)
            for dep in op.unit.dependencies()
            if isinstance(dep, InputNode) or dep.is_operator
        }
        for key in fresh:
            report.net_bytes_saved += key_bytes.get(key, 0.0)
        report.shared_keys += len(fresh)
        return replace(op, shared_inputs=op.shared_inputs + tuple(fresh))
