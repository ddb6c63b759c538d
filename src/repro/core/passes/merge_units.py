"""Unit merging: fuse independent units that share consolidation inputs.

Two units with no dependency path between them that consolidate the same
materialized matrix each pay its consolidation traffic (Eq. 4) — the
consolidation phases are identical work.  Merging them into one scheduler
slot lets the second member read the shared slabs as local blocks, which
the (calibration-aware) :class:`~repro.core.cost.CostModel` prices via
``free_sources``.  A merge only happens when the modeled merged cost is
strictly below the members' separate costs.

Bit-identity contract: a merged unit executes its members back-to-back in
original unit order, each with its **original** ``(P, Q, R)`` and
annotations — changing ``R`` would change the k-chunk partial-sum order
and changing ``P, Q`` the sorted-``(p, q)`` combine order, either of which
perturbs floating-point results.  So the merged estimate prices each
member at its own ``(P, Q, R)`` with the shared inputs free; no cuboid
search runs here.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.core.cost import CostModel, price
from repro.core.physical import (
    PhysicalPlan,
    UnitEstimate,
    UnitOp,
    env_key_of,
    release_schedule,
)
from repro.core.spaces import plan_layout
from repro.lang.dag import InputNode

from repro.core.passes.base import GraphPass, PassReport


def _group_topo(ops: Sequence[UnitOp], group_of: Dict[int, int]) -> List[int]:
    """Kahn order of the (acyclic) quotient graph's group leaders, deps
    first, min-original-index tie-break."""
    edges: Dict[int, Set[int]] = {}
    indegree: Dict[int, int] = {leader: 0 for leader in set(group_of.values())}
    for op in ops:
        group = group_of[op.index]
        for dep in op.deps:
            dep_group = group_of[dep]
            if dep_group != group and group not in edges.setdefault(dep_group, set()):
                edges[dep_group].add(group)
                indegree[group] += 1
    ready = sorted(leader for leader, deg in indegree.items() if deg == 0)
    order: List[int] = []
    while ready:
        leader = ready.pop(0)
        order.append(leader)
        for succ in sorted(edges.get(leader, ())):
            indegree[succ] -= 1
            if indegree[succ] == 0:
                # keep the ready set sorted so the final order is stable
                ready.append(succ)
                ready.sort()
    return order


def _linked(
    successors: Dict[int, List[int]],
    group_of: Dict[int, int],
    members: Dict[int, List[int]],
    leader_a: int,
    leader_b: int,
) -> bool:
    """Whether a dependency path joins groups *a* and *b* (either way).

    The quotient graph is acyclic, so fusing two groups keeps it acyclic
    exactly when neither reaches the other; a direct edge counts too (the
    members would be ordered, not independent).
    """
    for src, dst in ((leader_a, leader_b), (leader_b, leader_a)):
        seen = {src}
        stack = [src]
        while stack:
            for index in members[stack.pop()]:
                for succ in successors.get(index, ()):
                    leader = group_of[succ]
                    if leader == dst:
                        return True
                    if leader not in seen:
                        seen.add(leader)
                        stack.append(leader)
    return False


class MergeUnitsPass(GraphPass):
    """Fuse independent, input-sharing units when the cost model agrees."""

    name = "merge_units"

    def run(self, engine, physical: PhysicalPlan) -> Tuple[PhysicalPlan, PassReport]:
        ops = physical.ops
        report = PassReport(
            name=self.name, units_before=len(ops), units_after=len(ops)
        )
        if len(ops) < 2:
            return physical, report

        # shared consumed keys with nonzero modeled size -> candidate pairs
        key_bytes: Dict[object, float] = {}
        key_consumers: Dict[object, Set[int]] = {}
        for op in ops:
            if op.unit is None:
                continue
            for dep in op.unit.dependencies():
                if not (isinstance(dep, InputNode) or dep.is_operator):
                    continue
                key = env_key_of(dep)
                key_bytes[key] = max(
                    key_bytes.get(key, 0.0), float(dep.meta.estimated_bytes)
                )
                key_consumers.setdefault(key, set()).add(op.index)

        pair_shared: Dict[Tuple[int, int], float] = {}
        for key, consumers in key_consumers.items():
            size = key_bytes.get(key, 0.0)
            if size <= 0 or len(consumers) < 2:
                continue
            indices = sorted(consumers)
            for a in range(len(indices)):
                for b in range(a + 1, len(indices)):
                    pair = (indices[a], indices[b])
                    pair_shared[pair] = pair_shared.get(pair, 0.0) + size
        if not pair_shared:
            return physical, report

        # greedy deterministic union: largest shared bytes first, then the
        # pair's indices; a union is only kept when no dependency path joins
        # the two groups AND the modeled merged cost is strictly cheaper
        group_of = {op.index: op.index for op in ops}
        members: Dict[int, List[int]] = {op.index: [op.index] for op in ops}
        successors: Dict[int, List[int]] = {}
        for op in ops:
            for dep in op.deps:
                successors.setdefault(dep, []).append(op.index)
        consumes = [frozenset(op.consumes) for op in ops]
        estimates: Dict[FrozenSet[int], Optional[Tuple[float, float, float]]] = {}

        def group_estimate(group: Sequence[int]):
            """(net, flops, seconds) of the group executing as one unit
            with intra-group consolidation sharing; ``None`` when any
            member cannot be costed (never merge blindly)."""
            cache_key = frozenset(group)
            if cache_key in estimates:
                return estimates[cache_key]
            seen: FrozenSet[object] = frozenset()
            total_net = total_flops = total_sec = 0.0
            result = None
            for index in sorted(group):
                member = self._member_estimate(
                    engine, ops[index], seen & consumes[index]
                )
                if member is None:
                    break
                net, flops, seconds = member
                total_net += net
                total_flops += flops
                total_sec += seconds
                seen |= consumes[index]
            else:
                result = (total_net, total_flops, total_sec)
            estimates[cache_key] = result
            return result

        order = sorted(pair_shared.items(), key=lambda kv: (-kv[1], kv[0]))
        merged_any = False
        for (i, j), _shared in order:
            leader_i, leader_j = group_of[i], group_of[j]
            if leader_i == leader_j:
                continue
            if _linked(successors, group_of, members, leader_i, leader_j):
                continue
            separate_i = group_estimate(members[leader_i])
            separate_j = group_estimate(members[leader_j])
            combined = group_estimate(members[leader_i] + members[leader_j])
            if separate_i is None or separate_j is None or combined is None:
                continue
            if not combined[2] < separate_i[2] + separate_j[2]:
                continue
            keep, drop = sorted((leader_i, leader_j))
            for index in members[drop]:
                group_of[index] = keep
            members[keep] = sorted(members[keep] + members[drop])
            del members[drop]
            merged_any = True

        if not merged_any:
            return physical, report

        # rebuild: topo-order the quotient graph, renumber, remap deps,
        # annotate intra-group sharing, derive lifetimes
        groups = [members[leader] for leader in _group_topo(ops, group_of)]
        old_to_new = {
            index: new_index
            for new_index, group in enumerate(groups)
            for index in group
        }
        group_consumes = [
            tuple(dict.fromkeys(
                key for index in group for key in ops[index].consumes
            ))
            for group in groups
        ]
        releases = release_schedule(physical.dag, group_consumes)

        new_ops: List[UnitOp] = []
        for new_index, group in enumerate(groups):
            deps = tuple(sorted({
                old_to_new[d] for index in group for d in ops[index].deps
            }))
            if len(group) == 1:
                op = ops[group[0]]
                if (op.index, op.deps, op.releases) != (
                    new_index, deps, releases[new_index]
                ):
                    op = replace(
                        op,
                        index=new_index,
                        deps=deps,
                        releases=releases[new_index],
                        sources=op.source_indices,
                    )
                new_ops.append(op)
                continue
            separate_sec = 0.0
            separate_net = 0.0
            for index in group:
                single = group_estimate([index])
                separate_net += single[0]
                separate_sec += single[2]
            seen: Set[object] = set()
            member_ops: List[UnitOp] = []
            for index in group:
                op = ops[index]
                free = tuple(k for k in op.consumes if k in seen)
                member_ops.append(replace(
                    op,
                    releases=(),
                    sources=op.source_indices,
                    shared_inputs=free,
                ))
                seen |= consumes[index]
            mems = [
                float(ops[index].estimate.mem_bytes_per_task)
                for index in group
                if ops[index].estimate is not None
                and ops[index].estimate.mem_bytes_per_task is not None
            ]
            net, flops, seconds = group_estimate(group)
            report.merged_groups += 1
            report.shared_keys += sum(len(m.shared_inputs) for m in member_ops)
            report.net_bytes_saved += max(0.0, separate_net - net)
            report.seconds_saved += max(0.0, separate_sec - seconds)
            new_ops.append(UnitOp(
                index=new_index,
                unit=None,
                kind="merged",
                deps=deps,
                outputs=tuple(
                    node for index in group for node in ops[index].outputs
                ),
                releases=releases[new_index],
                consumes=group_consumes[new_index],
                estimate=UnitEstimate(
                    net_bytes=net,
                    flops=flops,
                    seconds=seconds,
                    mem_bytes_per_task=max(mems) if len(mems) == len(group) else None,
                ),
                name="merged(" + ",".join(str(index) for index in group) + ")",
                members=tuple(member_ops),
                sources=tuple(group),
            ))

        rebuilt = PhysicalPlan(
            physical.dag,
            new_ops,
            fusion_plan=physical.fusion_plan,
            engine_name=physical.engine_name,
        )
        rebuilt.pass_reports = physical.pass_reports
        report.units_after = len(new_ops)
        return rebuilt, report

    @staticmethod
    def _member_estimate(engine, op: UnitOp, free: FrozenSet[object]):
        """(net, flops, seconds) of *op* with the *free* consolidations
        discounted; ``None`` when the unit cannot be costed or the
        discounted plan would be memory-infeasible."""
        est = op.estimate
        if est is None or op.unit is None:
            return None
        plan = op.unit.plan
        if not free:
            net, flops = float(est.net_bytes), float(est.flops)
            seconds = est.seconds
            if seconds is None:
                seconds = price(
                    engine.config, net, flops,
                    engine.calibration_for(op.kind, plan),
                )
            return net, flops, float(seconds)
        if op.pqr is not None and getattr(plan, "contains_matmul", False):
            # execution pins the member's own (P, Q, R) (bit-identity), so
            # the merged estimate prices exactly that, discounted
            model = CostModel(
                engine.config,
                calibration=engine.calibration_for(op.kind, plan),
                free_sources=free,
            )
            cost = model.evaluate(plan, plan_layout(plan).tree, op.pqr)
            if not cost.feasible:
                return None
            return (
                float(cost.net_bytes), float(cost.com_flops),
                float(cost.cost_seconds),
            )
        free_bytes = 0.0
        for dep in op.unit.dependencies():
            if not (isinstance(dep, InputNode) or dep.is_operator):
                continue
            if env_key_of(dep) in free:
                free_bytes += float(dep.meta.estimated_bytes)
        net = max(0.0, float(est.net_bytes) - free_bytes)
        flops = float(est.flops)
        seconds = price(
            engine.config, net, flops, engine.calibration_for(op.kind, plan)
        )
        return net, flops, seconds
