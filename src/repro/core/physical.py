"""The physical-plan layer: a typed unit-graph IR between planner and runtime.

The paper separates *plan generation* (Section 4) from *fused-operator
execution* (Section 3); this module is the seam between the two.  A
:class:`~repro.core.plan.FusionPlan` says *which operators fuse*; lowering it
produces a :class:`PhysicalPlan` — a DAG of :class:`UnitOp` nodes that
additionally says, per unit:

* the **physical operator kind** the engine chose (CFO / BFO / RFO / cell /
  multi-agg / a standalone multiplication strategy);
* the **cuboid parameters** ``(P*, Q*, R*)`` and the
  :class:`~repro.core.optimizer.OptimizerResult` that justified them — the
  parameter search runs once here, at lowering time, instead of inside the
  operator's constructor on the execution path;
* **cost/footprint estimates** from the existing
  :class:`~repro.core.cost.CostModel` (network bytes, flops, modeled
  seconds, per-task memory);
* **dependency edges** on other units (derived from the query DAG); and
* **materialization lifetimes**: the environment keys whose *last* consumer
  is this unit, so intermediates are released as soon as they are dead
  instead of living until end-of-query.

Because lowering never opens a cluster stage, a ``PhysicalPlan`` is also the
engine's introspection surface: ``engine.explain(query)`` renders one without
executing anything (:meth:`PhysicalPlan.render`).

Execution goes through :func:`run_physical_plan`: units run one at a time in
plan order, so stage records are appended in unit-index order by
construction.  Dependency waves (:meth:`PhysicalPlan.waves`) are plan
*description* — EXPLAIN and the critical-path estimate read them; nothing
dispatches by them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.optimizer import OptimizerResult
from repro.core.plan import FusionPlan, PlanUnit
from repro.errors import PlanError
from repro.lang.dag import DAG, InputNode, Node
from repro.utils.formatting import format_bytes

#: Environment key of a materialized value: produced operator outputs are
#: keyed by ``node_id`` (int), input matrices by name (str).
EnvKey = object


@dataclass(frozen=True)
class UnitEstimate:
    """Planner-side cost/footprint estimate for one unit.

    ``seconds`` and ``mem_bytes_per_task`` are only known for units that ran
    the cuboid parameter search (their :class:`PlanCost` carries both);
    generic units estimate traffic and flops from node metadata alone.
    """

    net_bytes: float
    flops: float
    seconds: Optional[float] = None
    mem_bytes_per_task: Optional[float] = None
    #: When ``seconds`` was priced with fitted throughputs
    #: (``calibration="active"``): the same estimate under the paper
    #: constants, so EXPLAIN shows both.  ``None`` on the uncalibrated path.
    paper_seconds: Optional[float] = None


@dataclass(frozen=True)
class UnitAnnotation:
    """What an engine adds to a unit during lowering (the subclass hook)."""

    kind: str
    pqr: Optional[Tuple[int, int, int]] = None
    optimizer_result: Optional[OptimizerResult] = None
    estimate: Optional[UnitEstimate] = None


@dataclass(frozen=True)
class UnitOp:
    """One node of the physical plan: an executable unit, fully annotated."""

    index: int
    unit: Optional[PlanUnit]
    kind: str
    #: Indices of units whose outputs this unit consumes.
    deps: Tuple[int, ...]
    #: Nodes this unit materializes.
    outputs: Tuple[Node, ...]
    #: Environment keys whose last consumer in plan order is this unit —
    #: released as soon as it completes.  Never contains a key a DAG root
    #: still needs.
    releases: Tuple[EnvKey, ...]
    #: Environment keys this unit reads (deduplicated, stable order).
    consumes: Tuple[EnvKey, ...] = ()
    pqr: Optional[Tuple[int, int, int]] = None
    optimizer_result: Optional[OptimizerResult] = None
    estimate: Optional[UnitEstimate] = None
    #: Display label; defaults to the wrapped unit's plan label.
    name: str = ""
    #: For ``kind="merged"`` ops: the original units executed back-to-back
    #: under this op's identity (one stage-attribution index, shared
    #: lifetimes).  Members are mutually independent — the
    #: merge pass only fuses units with no path between them — and keep
    #: their original annotations (``pqr``, estimates), so execution stays
    #: bit-identical to the unmerged plan.
    members: Tuple["UnitOp", ...] = ()
    #: Provenance: original lowering indices this op descends from.  Empty
    #: means the op is untouched by any pass (it is its own source).
    sources: Tuple[int, ...] = ()
    #: Environment keys whose consolidation an *earlier* consumer (in final
    #: plan order) already paid for; the runtime charges these as local
    #: reads (memory only, no network).  Annotated statically at plan time.
    shared_inputs: Tuple[EnvKey, ...] = ()

    def label(self) -> str:
        if self.name:
            return self.name
        return self.unit.label() if self.unit is not None else f"unit{self.index}"

    @property
    def is_fused(self) -> bool:
        return self.unit is not None and self.unit.is_fused

    @property
    def source_indices(self) -> Tuple[int, ...]:
        """Original lowering indices behind this op (itself when untouched)."""
        return self.sources if self.sources else (self.index,)


def estimate_from_search(result) -> UnitEstimate:
    """A :class:`UnitEstimate` from a cuboid search's
    :class:`~repro.core.optimizer.OptimizerResult` (Eq. 2-5 outputs), with
    the paper-constant price when its cost was calibrated."""
    cost, paper = result.cost, result.paper_cost
    return UnitEstimate(
        net_bytes=float(cost.net_bytes),
        flops=float(cost.com_flops),
        seconds=float(cost.cost_seconds),
        mem_bytes_per_task=float(cost.mem_bytes_per_task),
        paper_seconds=paper.cost_seconds if paper is not None else None,
    )


def generic_unit_estimate(unit: PlanUnit) -> UnitEstimate:
    """A metadata-only estimate for units without a parameter search:
    consolidation traffic ~ the frontier matrices' sizes, flops ~ the fused
    operators' ``numOp`` totals (Eq. 5 with no replication)."""
    net = float(sum(n.meta.estimated_bytes for n in unit.plan.frontier()))
    flops = float(sum(n.estimated_flops() for n in unit.plan.nodes))
    return UnitEstimate(net_bytes=net, flops=flops)


class PhysicalPlan:
    """A fusion plan lowered to annotated, dependency-linked unit ops."""

    def __init__(
        self,
        dag: DAG,
        ops: Sequence[UnitOp],
        fusion_plan: Optional[FusionPlan] = None,
        engine_name: str = "",
    ):
        self.dag = dag
        self.ops: Tuple[UnitOp, ...] = tuple(ops)
        self.fusion_plan = fusion_plan
        self.engine_name = engine_name
        #: Reports of the graph passes that produced this plan (set by
        #: :func:`repro.core.passes.run_graph_passes`); empty for a raw
        #: lowering.  Rendered at the end of EXPLAIN.
        self.pass_reports: Tuple[object, ...] = ()
        for op in self.ops:
            for dep in op.deps:
                if not 0 <= dep < op.index:
                    raise PlanError(
                        f"unit {op.index} depends on {dep}, which does not "
                        f"precede it"
                    )

    # -- structure ---------------------------------------------------------

    def waves(self) -> List[List[UnitOp]]:
        """Units grouped into dependency waves (Kahn levels).

        Every unit lands in the earliest wave all its dependencies precede;
        units within a wave are mutually independent and listed in unit-index
        order.  Descriptive only: execution is plan order.
        """
        level: Dict[int, int] = {}
        waves: List[List[UnitOp]] = []
        for op in self.ops:
            depth = 1 + max((level[d] for d in op.deps), default=-1)
            level[op.index] = depth
            while len(waves) <= depth:
                waves.append([])
            waves[depth].append(op)
        return waves

    # -- rendering ---------------------------------------------------------

    def render(self) -> str:
        """The EXPLAIN text: every unit with kind, fused nodes, cuboid
        ``(P, Q, R)``, estimates, dependencies and lifetime releases."""
        waves = self.waves()
        header = (
            f"PhysicalPlan[{self.engine_name or 'engine'}]: "
            f"{len(self.ops)} unit(s), {len(waves)} wave(s), "
            f"{len(self.dag.roots)} root(s)"
        )
        lines = [header]
        for depth, wave in enumerate(waves):
            lines.append(f"wave {depth}:")
            for op in wave:
                lines.append("  " + self._render_op(op))
                for member in op.members:
                    lines.append("    + " + self._render_op(member))
        if self.pass_reports:
            lines.append("passes:")
            for report in self.pass_reports:
                lines.append("  " + str(report))
        return "\n".join(lines)

    @staticmethod
    def _render_op(op: UnitOp) -> str:
        parts = [f"[{op.index}] {op.kind:<10} {op.label()}"]
        if op.members:
            parts.append(
                "merges=" + ",".join(str(s) for s in op.source_indices)
            )
        if op.pqr is not None:
            parts.append(f"pqr={op.pqr}")
        est = op.estimate
        if est is not None:
            detail = f"est: net={format_bytes(int(est.net_bytes))} flops={est.flops:.3g}"
            if est.seconds is not None:
                detail += f" sec={est.seconds:.4g}"
            if est.paper_seconds is not None:
                detail += f" (paper {est.paper_seconds:.4g})"
            if est.mem_bytes_per_task is not None:
                detail += f" mem/task={format_bytes(int(est.mem_bytes_per_task))}"
            parts.append(detail)
        outs = ",".join(f"#{n.node_id}" for n in op.outputs)
        parts.append(f"-> {outs}")
        if op.deps:
            parts.append("deps=" + ",".join(str(d) for d in op.deps))
        if op.releases:
            parts.append(
                "releases=" + ",".join(_release_label(k) for k in op.releases)
            )
        if op.shared_inputs:
            parts.append(
                "shared=" + ",".join(_release_label(k) for k in op.shared_inputs)
            )
        return "  ".join(parts)

    def __len__(self) -> int:
        return len(self.ops)

    def __iter__(self):
        return iter(self.ops)

    def __repr__(self) -> str:
        return (
            f"PhysicalPlan(engine={self.engine_name!r}, units={len(self.ops)}, "
            f"waves={len(self.waves())})"
        )


def _release_label(key: EnvKey) -> str:
    return f"#{key}" if isinstance(key, int) else str(key)


def env_key_of(node: Node) -> EnvKey:
    """The environment key a node's materialization lives under: input
    leaves by name, everything else by ``node_id``."""
    return node.name if isinstance(node, InputNode) else node.node_id


def _consumed_keys(unit: PlanUnit) -> List[EnvKey]:
    """Environment keys a unit reads: operator dependencies by node id,
    input leaves by name."""
    keys: List[EnvKey] = []
    for dep in unit.dependencies():
        if isinstance(dep, InputNode) or dep.is_operator:
            keys.append(env_key_of(dep))
    return keys


def _root_keys(dag: DAG) -> set:
    """Keys the result collection still needs after the last unit ran."""
    keys = set()
    for root in dag.roots:
        if isinstance(root, InputNode):
            keys.add(root.name)
        else:
            keys.add(root.node_id)
    return keys


def release_schedule(
    dag: DAG, consumes: Sequence[Tuple[EnvKey, ...]]
) -> List[Tuple[EnvKey, ...]]:
    """Per unit in plan order, the environment keys it releases.

    *consumes* lists each unit's read keys in final plan order.  A key is
    released by its last consumer, and a key a DAG root still needs is never
    released.  :func:`lower_plan` and the graph passes that merge or
    renumber units derive lifetimes with this one rule.
    """
    last_consumer: Dict[EnvKey, int] = {}
    for index, keys in enumerate(consumes):
        for key in keys:
            last_consumer[key] = index
    keep_alive = _root_keys(dag)
    releases_at: List[List[EnvKey]] = [[] for _ in consumes]
    for key, index in last_consumer.items():
        if key not in keep_alive:
            releases_at[index].append(key)
    return [tuple(sorted(keys, key=str)) for keys in releases_at]


def execute_unit(engine, op: UnitOp, cluster, env: Mapping[EnvKey, object]):
    """Run one (possibly merged, possibly input-sharing) unit op.

    Where :func:`run_physical_plan` honours graph-pass annotations:

    * a ``shared_inputs`` annotation makes operators charge those
      consolidations as local reads (the earlier consumer already paid);
    * a merged op executes its members back-to-back — in original unit
      order, each with its original annotations, so every block value and
      per-member stage total is bit-identical to the unmerged plan — and
      returns a dict of all member outputs.
    """
    if op.members:
        results: Dict[Node, object] = {}
        for member in op.members:
            with cluster.shared_input_scope(member.shared_inputs):
                value = engine.run_unit(member, cluster, env)
            if isinstance(value, dict):
                results.update(value)
            else:
                results[member.unit.output] = value
        return results
    if op.shared_inputs:
        with cluster.shared_input_scope(op.shared_inputs):
            return engine.run_unit(op, cluster, env)
    return engine.run_unit(op, cluster, env)


def lower_plan(
    dag: DAG,
    fusion_plan: FusionPlan,
    annotate: Callable[[PlanUnit], UnitAnnotation],
    engine_name: str = "",
) -> PhysicalPlan:
    """Lower *fusion_plan* to a :class:`PhysicalPlan`.

    *annotate* is the engine's per-unit hook choosing the physical operator
    kind, the cuboid parameters and the cost estimate.
    """
    producer: Dict[Node, int] = {}
    ops: List[UnitOp] = []
    units = list(fusion_plan)
    consumes = [tuple(dict.fromkeys(_consumed_keys(unit))) for unit in units]
    releases = release_schedule(dag, consumes)

    for index, unit in enumerate(units):
        deps = sorted({
            producer[node]
            for node in unit.dependencies()
            if node.is_operator and node in producer
        })
        note = annotate(unit)
        ops.append(
            UnitOp(
                index=index,
                unit=unit,
                kind=note.kind,
                deps=tuple(deps),
                outputs=unit.outputs,
                releases=releases[index],
                consumes=consumes[index],
                pqr=note.pqr,
                optimizer_result=note.optimizer_result,
                estimate=note.estimate,
            )
        )
        for node in unit.outputs:
            producer[node] = index
    return PhysicalPlan(dag, ops, fusion_plan=fusion_plan, engine_name=engine_name)


def run_physical_plan(
    engine,
    physical: PhysicalPlan,
    cluster,
    env: Dict[EnvKey, object],
) -> None:
    """Execute *physical* on *cluster*, materializing unit outputs into *env*.

    Units run one at a time in plan order — the only execution order there
    is — and each unit's dead inputs (``op.releases``) are freed the moment
    it completes.  Stage records are therefore appended in unit-index order
    by construction.  Within a unit, operators run their cuboid/block
    tasks one after another in task order, on the same thread.
    """
    metrics = cluster.metrics
    for op in physical.ops:
        with cluster.unit_scope(op.index):
            result = execute_unit(engine, op, cluster, env)
        if isinstance(result, dict):
            # multi-output unit (Multi-aggregation fusion, merged units)
            for node, value in result.items():
                env[node.node_id] = value
        else:
            env[op.unit.output.node_id] = result
        for key in op.releases:
            if env.pop(key, None) is not None:
                metrics.bump("env_keys_released")
