"""The Cuboid-based Fusion plan Generator (Section 4).

Two phases:

* **Exploration** (Algorithm 2) — seed a candidate partial fusion plan at
  each matrix multiplication and greedily grow it through adjacent operators.
  Growth stops at *termination operators*: materialization points (operators
  whose output has two or more consumers) and unary aggregations (which need
  a shuffle); a termination operator may only join a plan as its top (root).
  Unlike GEN, multiplications are never an obstacle — that is the paper's
  headline difference.
* **Exploitation** (Algorithm 3) — each candidate may be too large for the
  memory budget or slower fused than split.  Every non-main multiplication is
  a *splitting point*, tried farthest-from-main first (distant nested
  multiplications accumulate the largest replication factors, Figure 11); a
  split is kept when the summed costs of the two halves beat the original.

The final :class:`~repro.core.plan.FusionPlan` also covers every operator the
candidates did not absorb: leftover element-wise chains become Cell-fused
units and anything else runs as a single operator.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

from repro.config import EngineConfig
from repro.core.calibration import KernelCalibration
from repro.core.cost import price
from repro.core.optimizer import optimize_parameters
from repro.core.plan import FusionPlan, MultiAggPlan, PartialFusionPlan, PlanUnit
from repro.errors import PlanError
from repro.lang.dag import AggNode, DAG, MatMulNode, Node

#: Resolves fitted coefficients for a (kernel kind, partial plan) pair, or
#: ``None`` to price with the paper constants.  Engines bind this to their
#: :class:`~repro.core.calibration.CalibrationStore` in ``"active"`` mode.
CalibrationProvider = Callable[
    [str, PartialFusionPlan], Optional[KernelCalibration]
]


def is_termination(dag: DAG, node: Node) -> bool:
    """Whether *node* forces materialization (Section 4.1).

    Materialization points (two or more outgoing edges), unary aggregations
    (partial results must be shuffled), and DAG roots that are *also*
    consumed by other operators terminate fusion; they can only be fused as
    a plan's top operator — their output must exist as a matrix either way.
    """
    if dag.consumers(node) >= 2:
        return True
    if node in dag.roots and dag.consumers(node) >= 1:
        return True
    return isinstance(node, AggNode)


# ---------------------------------------------------------------------------
# exploration phase (Algorithm 2)
# ---------------------------------------------------------------------------


def exploration_phase(dag: DAG) -> list[PartialFusionPlan]:
    """Find candidate partial fusion plans, one seeded per multiplication."""
    workload: set[Node] = {n for n in dag.nodes() if n.is_operator}
    candidates: list[PartialFusionPlan] = []

    def pick_seed() -> Optional[MatMulNode]:
        matmuls = [n for n in workload if isinstance(n, MatMulNode)]
        if not matmuls:
            return None
        # deterministic: largest voxel volume first, then node id
        return max(
            matmuls,
            key=lambda n: (
                n.inputs[0].meta.rows * n.inputs[1].meta.cols * n.common_dim,
                -n.node_id,
            ),
        )

    while True:
        seed = pick_seed()
        if seed is None:
            break
        workload.discard(seed)
        members: set[Node] = {seed}
        top_reached = False
        rejected: set[Node] = set()
        fresh: set[Node] = {seed}
        while fresh:
            # only the members added last round can have new adjacents (every
            # earlier member's are members or rejected by now); they are
            # visited in the order a scan of all members would visit them
            order = fresh if len(fresh) == 1 else [m for m in members if m in fresh]
            frontier: list[Node] = []
            for member in order:
                # incoming adjacents: operator children
                for child in member.inputs:
                    if child.is_operator and child in workload and child not in rejected:
                        frontier.append(child)
                # outgoing adjacents: parents (skip once the top is fixed,
                # and never through a member that must materialize anyway —
                # a DAG root consumed by another root has one outgoing edge
                # but still has to surface its own value)
                if top_reached or dag.consumers(member) != 1 or member in dag.roots:
                    continue
                for parent in dag.parents(member):
                    if parent in workload and parent not in rejected:
                        frontier.append(parent)
            fresh = set()
            for candidate in frontier:
                if candidate in members or candidate in rejected:
                    continue
                if not is_termination(dag, candidate):
                    members.add(candidate)
                    fresh.add(candidate)
                    workload.discard(candidate)
                elif _is_outgoing(candidate, members) and not top_reached:
                    members.add(candidate)
                    fresh.add(candidate)
                    workload.discard(candidate)
                    top_reached = True
                else:
                    rejected.add(candidate)
        candidates.append(PartialFusionPlan(members, dag))
    return candidates


def _is_outgoing(candidate: Node, members: set[Node]) -> bool:
    """Whether *candidate* consumes a current member (is a parent of F)."""
    return any(child in members for child in candidate.inputs)


# ---------------------------------------------------------------------------
# exploitation phase (Algorithm 3)
# ---------------------------------------------------------------------------


@dataclass
class ExploitationReport:
    """What the exploitation phase did (inspectable by tests/benchmarks)."""

    splits: int = 0
    examined: int = 0
    final_costs: Dict[int, float] = field(default_factory=dict)


def exploitation_phase(
    candidates: list[PartialFusionPlan],
    config: EngineConfig,
    report: Optional[ExploitationReport] = None,
    calibration: Optional[CalibrationProvider] = None,
) -> list[PartialFusionPlan]:
    """Refine candidates: split where two smaller plans cost less than one."""
    final: list[PartialFusionPlan] = []
    queue = deque(candidates)
    while queue:
        plan = queue.popleft()
        plan = _exploit_one(plan, queue, config, report, calibration)
        final.append(plan)
    return final


def _fused_cost(
    plan: PartialFusionPlan,
    config: EngineConfig,
    calibration: Optional[CalibrationProvider] = None,
) -> float:
    """Optimal cost of a plan; infinite when it cannot lay out as one CFO."""
    if not plan.contains_matmul:
        return _cell_cost(plan, config, calibration)
    fit = calibration("cfo", plan) if calibration is not None else None
    try:
        return optimize_parameters(
            plan, config, calibration=fit
        ).cost.cost_seconds
    except PlanError:
        return float("inf")


def _exploit_one(
    plan: PartialFusionPlan,
    queue: deque,
    config: EngineConfig,
    report: Optional[ExploitationReport],
    calibration: Optional[CalibrationProvider] = None,
) -> PartialFusionPlan:
    if len(plan.matmuls()) <= 1:
        return plan
    main = plan.main_matmul()
    cost = _fused_cost(plan, config, calibration)
    split_points = [m for m in plan.matmuls() if m is not main]
    split_points.sort(key=lambda m: -_distance(plan, m, main))
    for point in split_points:
        if point not in plan.nodes or point is plan.root:
            continue  # already split away, or nothing would remain
        if report is not None:
            report.examined += 1
        remainder, split_off = plan.split(point)
        cost_m = _fused_cost(remainder, config, calibration)
        cost_i = _fused_cost(split_off, config, calibration)
        if cost > cost_m + cost_i:
            queue.append(split_off)
            plan = remainder
            cost = cost_m
            if report is not None:
                report.splits += 1
    if report is not None:
        report.final_costs[plan.root.node_id] = cost
    return plan


def _distance(plan: PartialFusionPlan, a: Node, b: Node) -> int:
    """Minimum hop count between two plan members (undirected BFS)."""
    neighbours: Dict[Node, set[Node]] = {n: set() for n in plan.nodes}
    for node in plan.nodes:
        for child in node.inputs:
            if child in plan.nodes:
                neighbours[node].add(child)
                neighbours[child].add(node)
    # level by level, so the work done does not depend on set order
    seen = {a}
    level = {a}
    dist = 0
    while level:
        if b in level:
            return dist
        level = {
            nxt for current in level for nxt in neighbours[current]
            if nxt not in seen
        }
        seen |= level
        dist += 1
    raise PlanError(f"{a!r} and {b!r} are not connected within the plan")


def _cell_cost(
    plan: PartialFusionPlan,
    config: EngineConfig,
    calibration: Optional[CalibrationProvider] = None,
) -> float:
    """Cost of a matmul-free plan: one pass over its frontier inputs."""
    total_bytes = sum(
        consumer.inputs[idx].meta.estimated_bytes
        for consumer in plan.topo_nodes()
        for idx, child in enumerate(consumer.inputs)
        if child not in plan.nodes
    )
    total_flops = sum(n.estimated_flops() for n in plan.topo_nodes())
    fit = calibration("cell", plan) if calibration is not None else None
    return price(config, total_bytes, total_flops, fit)


# ---------------------------------------------------------------------------
# full plan generation
# ---------------------------------------------------------------------------


def generate_fusion_plan(
    dag: DAG,
    config: EngineConfig,
    report: Optional[ExploitationReport] = None,
    calibration: Optional[CalibrationProvider] = None,
) -> FusionPlan:
    """Run CFG end-to-end and cover every operator of *dag* with units.

    With a *calibration* provider, Algorithm 3's keep-or-split comparisons
    price plans with fitted per-kernel throughputs — split decisions then
    reflect the machine the plan will run on, not the paper's testbed.
    """
    candidates = exploration_phase(dag)
    if config.exploitation_phase:
        partials = exploitation_phase(candidates, config, report, calibration)
    else:
        partials = candidates
    partials = _ensure_layouts(partials)

    covered: set[Node] = set()
    for plan in partials:
        covered |= plan.nodes

    leftovers = [n for n in dag.nodes() if n.is_operator and n not in covered]
    cell_plans = _cell_fuse_leftovers(dag, leftovers)

    units: list[PlanUnit] = []
    for plan in partials:
        units.append(PlanUnit(plan=plan))
    for group in cell_plans:
        units.append(PlanUnit(plan=PartialFusionPlan(group, dag)))
    units = merge_multi_aggregations(dag, units)
    return FusionPlan(dag, _order_units(dag, units))


def merge_multi_aggregations(dag: DAG, units: list[PlanUnit]) -> list[PlanUnit]:
    """Multi-aggregation fusion (Figure 2(d)): merge matmul-free
    aggregation units that scan the same inputs into one multi-output unit.

    Two aggregation chains merge when they share at least one frontier input
    matrix and aggregate over the same block grid — exactly the situation
    where one shared scan replaces several.
    """
    candidates = [
        unit for unit in units
        if isinstance(unit.plan.root, AggNode)
        and not isinstance(unit.plan, MultiAggPlan)
        and not unit.plan.contains_matmul
        and len(unit.outputs) == 1
    ]
    if len(candidates) < 2:
        return units

    def signature(unit: PlanUnit):
        grid = unit.plan.root.inputs[0].meta.block_grid
        sources = frozenset(n.node_id for n in unit.plan.frontier())
        return grid, sources

    # union-find over candidates: connect units sharing an input source
    parents = list(range(len(candidates)))

    def find(i: int) -> int:
        while parents[i] != i:
            parents[i] = parents[parents[i]]
            i = parents[i]
        return i

    signatures = [signature(u) for u in candidates]
    for i in range(len(candidates)):
        for j in range(i + 1, len(candidates)):
            (grid_i, src_i), (grid_j, src_j) = signatures[i], signatures[j]
            if grid_i == grid_j and src_i & src_j:
                parents[find(i)] = find(j)

    groups: dict[int, list[PlanUnit]] = {}
    for i, unit in enumerate(candidates):
        groups.setdefault(find(i), []).append(unit)

    merged: list[PlanUnit] = []
    absorbed: set[PlanUnit] = set()
    for members in groups.values():
        if len(members) < 2:
            continue
        nodes: set[Node] = set()
        for unit in members:
            nodes |= unit.plan.nodes
            absorbed.add(unit)
        merged.append(PlanUnit(plan=MultiAggPlan(nodes, dag)))
    if not merged:
        return units
    return [u for u in units if u not in absorbed] + merged


def _ensure_layouts(partials: list[PartialFusionPlan]) -> list[PartialFusionPlan]:
    """Guarantee every matmul plan has a valid 3-D layout, splitting if not.

    A plan where another multiplication *contracts* the main product stream
    cannot execute as one CFO (its output leaves the ``(i, j)`` plane); such
    plans split at a secondary multiplication until every piece lays out.
    """
    from repro.core.spaces import plan_layout

    out: list[PartialFusionPlan] = []
    work = deque(partials)
    while work:
        plan = work.popleft()
        if not plan.contains_matmul:
            out.append(plan)
            continue
        try:
            plan_layout(plan)
        except PlanError:
            points = [m for m in plan.matmuls() if m is not plan.root]
            if not points:
                raise
            remainder, split_off = plan.split(points[-1])
            work.append(split_off)
            work.append(remainder)
            continue
        out.append(plan)
    return out


def _cell_fuse_leftovers(dag: DAG, leftovers: list[Node]) -> list[set[Node]]:
    """Greedy Cell fusion over operators no candidate plan absorbed.

    A group grows from a worklist of its newly added members, each visited
    once: element-wise children join, and so does a member's one parent.
    Every member that grows upward has exactly one parent, so a group is a
    tree with at most one termination operator (its top), and the order of
    the visits cannot change which operators it ends up with.
    """
    remaining = set(leftovers)
    groups: list[set[Node]] = []
    for node in [n for n in dag.nodes() if n in remaining]:
        if node not in remaining:
            continue
        group = {node}
        remaining.discard(node)
        if isinstance(node, MatMulNode):
            groups.append(group)  # multiplications never Cell-fuse
            continue
        top_taken = is_termination(dag, node)
        work = [node]
        while work:
            member = work.pop()
            for child in member.inputs:
                if (
                    child in remaining
                    and not is_termination(dag, child)
                    and not isinstance(child, MatMulNode)
                ):
                    group.add(child)
                    remaining.discard(child)
                    work.append(child)
            # a termination member is the group's top: nothing fuses above
            # it (an aggregation's block partials must be combined before
            # any parent reads them)
            if (
                dag.consumers(member) != 1
                or member in dag.roots
                or is_termination(dag, member)
            ):
                continue
            for parent in dag.parents(member):
                if parent not in remaining or isinstance(parent, MatMulNode):
                    continue
                if is_termination(dag, parent):
                    if top_taken:
                        continue
                    # a termination operator may cap the group as its top
                    # (Algorithm 2's rule), ending upward growth
                    top_taken = True
                group.add(parent)
                remaining.discard(parent)
                work.append(parent)
        groups.append(group)
    return groups


def _order_units(dag: DAG, units: list[PlanUnit]) -> list[PlanUnit]:
    """Topologically order units by their materialized dependencies."""
    produced: set[Node] = set()
    pending = list(units)
    ordered: list[PlanUnit] = []
    while pending:
        progressed = False
        for unit in list(pending):
            deps = [d for d in unit.dependencies() if d.is_operator]
            if all(d in produced for d in deps):
                ordered.append(unit)
                produced.update(unit.outputs)
                pending.remove(unit)
                progressed = True
        if not progressed:
            raise PlanError("cyclic dependency among fusion plan units")
    return ordered
