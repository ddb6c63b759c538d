"""Fusion plan containers.

A *partial fusion plan* (Section 2.1) is a connected sub-DAG of the query plan
that one fused operator executes; the *fusion plan* is the whole query plan
with its partial plans marked.  Execution walks the fusion plan's units in
dependency order, materializing each unit's output; inside a unit nothing is
materialized — that is the entire point of fusion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Callable,
    FrozenSet,
    Hashable,
    Iterable,
    Optional,
    Sequence,
    TypeVar,
)

from repro.errors import PlanError
from repro.lang.dag import DAG, AggNode, MatMulNode, Node

T = TypeVar("T")


class PartialFusionPlan:
    """A sub-DAG executed as one fused operator.

    Parameters
    ----------
    nodes:
        The operator vertices fused together.  Must form a connected sub-DAG
        with a single top (root) operator.
    dag:
        The enclosing query DAG (used for consumer counts).
    """

    #: Memo behind :meth:`derived`; created on first use.
    _derived: Optional[dict] = None

    def __init__(self, nodes: Iterable[Node], dag: DAG):
        self.nodes: FrozenSet[Node] = frozenset(nodes)
        if not self.nodes:
            raise PlanError("a partial fusion plan cannot be empty")
        for node in self.nodes:
            if not node.is_operator:
                raise PlanError(f"{node!r} is not an operator")
        self.dag = dag
        self.root = self._find_root()

    def _find_root(self) -> Node:
        consumed_inside = {
            child for node in self.nodes for child in node.inputs if child in self.nodes
        }
        roots = [n for n in self.nodes if n not in consumed_inside]
        if len(roots) != 1:
            raise PlanError(
                f"a partial fusion plan must have exactly one root, found "
                f"{len(roots)}: {sorted(r.label() for r in roots)}"
            )
        return roots[0]

    # -- structure --------------------------------------------------------------

    def frontier(self) -> tuple[Node, ...]:
        """Nodes feeding the plan from outside (inputs to be consolidated).

        These are either :class:`InputNode` leaves or outputs of other plan
        units — in both cases materialized matrices.
        """
        return self.derived("frontier", lambda: tuple(dict.fromkeys(
            child
            for node in self.topo_nodes()
            for child in node.inputs
            if child not in self.nodes
        )))

    def topo_nodes(self) -> tuple[Node, ...]:
        """Plan operators in topological order (children first)."""
        return self.derived(
            "topo_nodes",
            lambda: tuple([n for n in self.dag.nodes() if n in self.nodes]),
        )

    def derived(self, key: Hashable, compute: Callable[[], T]) -> T:
        """``compute()``, evaluated once per *key* and kept with the plan.

        For pure functions of this immutable plan (its 3-D layout, sparsity
        mask, slice tables, operand table): a plan-cache hit re-executes the
        same plan objects, so these are derived once per plan rather than on
        every execute.  A *compute* that raises caches nothing.
        """
        memo = self._derived
        if memo is None:
            memo = self._derived = {}
        try:
            return memo[key]
        except KeyError:
            value = memo[key] = compute()
            return value

    def matmuls(self) -> tuple[MatMulNode, ...]:
        return tuple(n for n in self.topo_nodes() if isinstance(n, MatMulNode))

    @property
    def contains_matmul(self) -> bool:
        return any(isinstance(n, MatMulNode) for n in self.nodes)

    def main_matmul(self) -> MatMulNode:
        """The plan's main ``ba(x)``: the one with the largest ``I*J*K``
        voxel volume (Algorithm 3, line 3)."""
        matmuls = self.matmuls()
        if not matmuls:
            raise PlanError("plan contains no matrix multiplication")
        return max(
            matmuls,
            key=lambda n: (
                n.inputs[0].meta.rows * n.inputs[1].meta.cols * n.common_dim,
                -n.node_id,
            ),
        )

    def descendants_within(self, node: Node) -> set[Node]:
        """Plan members at or below *node* (following edges inside the plan)."""
        if node not in self.nodes:
            raise PlanError(f"{node!r} is not in this plan")
        result: set[Node] = set()
        stack = [node]
        while stack:
            current = stack.pop()
            if current in result:
                continue
            result.add(current)
            for child in current.inputs:
                if child in self.nodes:
                    stack.append(child)
        return result

    def split(self, at: MatMulNode) -> tuple["PartialFusionPlan", "PartialFusionPlan"]:
        """Split off the sub-plan rooted at *at* (Algorithm 3, line 9).

        Returns ``(remainder, split_off)``; *at* and its in-plan descendants
        become the split plan, whose output will be materialized and fed to
        the remainder.
        """
        if at is self.root:
            raise PlanError("cannot split the plan at its own root")
        below = self.descendants_within(at)
        rest = self.nodes - below
        if not rest:
            raise PlanError("splitting would empty the plan")
        return (PartialFusionPlan(rest, self.dag), PartialFusionPlan(below, self.dag))

    # -- misc ------------------------------------------------------------------------

    def label(self) -> str:
        ops = ",".join(n.label() for n in self.topo_nodes())
        return f"F[{ops}]"

    def __len__(self) -> int:
        return len(self.nodes)

    def __contains__(self, node: Node) -> bool:
        return node in self.nodes

    def __repr__(self) -> str:
        return f"PartialFusionPlan(root={self.root!r}, size={len(self.nodes)})"


class MultiAggPlan(PartialFusionPlan):
    """A Multi-aggregation fusion plan (Figure 2(d)).

    Several aggregation operators over shared inputs fuse into one operator
    with *multiple outputs*: the shared inputs are scanned once, every
    aggregation accumulates in the same pass.  Unlike a regular partial plan
    this one has several roots.
    """

    def __init__(self, nodes: Iterable[Node], dag: DAG):
        self.nodes = frozenset(nodes)
        if not self.nodes:
            raise PlanError("a multi-aggregation plan cannot be empty")
        for node in self.nodes:
            if not node.is_operator:
                raise PlanError(f"{node!r} is not an operator")
        self.dag = dag
        consumed_inside = {
            child for node in self.nodes for child in node.inputs
            if child in self.nodes
        }
        roots = tuple(
            n for n in self.topo_nodes() if n not in consumed_inside
        )
        if len(roots) < 2:
            raise PlanError("a multi-aggregation plan needs at least 2 roots")
        for root in roots:
            if not isinstance(root, AggNode):
                raise PlanError(
                    f"multi-aggregation roots must aggregate, got {root!r}"
                )
        self.roots = roots
        self.root = roots[0]

    def label(self) -> str:
        ops = ",".join(n.label() for n in self.topo_nodes())
        return f"MultiAgg[{ops}]"


@dataclass(frozen=True)
class PlanUnit:
    """One executable step of a fusion plan.

    Every unit wraps a partial fusion plan; a singleton plan is simply an
    unfused operator executed by a plain distributed operator.  A
    :class:`MultiAggPlan` unit materializes several outputs at once.
    """

    plan: PartialFusionPlan

    @property
    def output(self) -> Node:
        """The (first) node whose materialized value this unit produces."""
        return self.plan.root

    @property
    def outputs(self) -> tuple[Node, ...]:
        """All nodes this unit materializes."""
        if isinstance(self.plan, MultiAggPlan):
            return self.plan.roots
        return (self.plan.root,)

    @property
    def is_fused(self) -> bool:
        """Whether this unit actually fuses several operators."""
        return len(self.plan) > 1

    def dependencies(self) -> tuple[Node, ...]:
        """Materialized nodes this unit consumes."""
        return self.plan.frontier()

    def label(self) -> str:
        return self.plan.label()


class FusionPlan:
    """A whole query plan broken into executable units in dependency order."""

    def __init__(self, dag: DAG, units: Sequence[PlanUnit]):
        self.dag = dag
        self.units = tuple(units)
        self._validate()

    def _validate(self) -> None:
        covered: set[Node] = set()
        for unit in self.units:
            overlap = covered & unit.plan.nodes
            if overlap:
                raise PlanError(f"operators covered twice: {overlap}")
            covered |= unit.plan.nodes
        missing = [n for n in self.dag.nodes() if n.is_operator and n not in covered]
        if missing:
            raise PlanError(
                "fusion plan does not cover operators: "
                + ", ".join(repr(n) for n in missing)
            )
        produced: set[Node] = set()
        for unit in self.units:
            for dep in unit.dependencies():
                if dep.is_operator and dep not in produced:
                    raise PlanError(
                        f"unit {unit.label()} depends on unproduced {dep!r}"
                    )
            produced.update(unit.outputs)

    def dump(self) -> str:
        lines = []
        for i, unit in enumerate(self.units):
            kind = "fused " if unit.is_fused else "single"
            lines.append(f"[{i}] {kind} {unit.label()} -> #{unit.output.node_id}")
        return "\n".join(lines)

    def __len__(self) -> int:
        return len(self.units)

    def __iter__(self):
        return iter(self.units)
