"""GEN: the template-based fusion plan generator of SystemDS.

The paper characterizes GEN (Section 2.1, Section 4) by two behaviours this
re-implementation reproduces:

* it fuses along four templates — Cell (element-wise chains), Outer
  (multiplication masked by a *sparse* element-wise multiplication, i.e.
  sparsity exploitation), Row (multiplication by a narrow side matrix) and
  Multi-aggregation (several aggregations over shared inputs);
* it includes large-scale matrix multiplication in a plan *only when
  sparsity exploitation is possible* (the Outer template) — for GNMF it
  therefore fuses just the two element-wise operators ``*`` and ``/``
  (Figure 10), leaving every multiplication unfused.
"""

from __future__ import annotations

from typing import Optional

from repro.core.cfg import (
    _cell_fuse_leftovers,
    _order_units,
    merge_multi_aggregations,
)
from repro.core.plan import FusionPlan, PartialFusionPlan, PlanUnit
from repro.lang.dag import (
    AggNode,
    BinaryNode,
    DAG,
    MatMulNode,
    Node,
    TransposeNode,
    UnaryNode,
)

#: Density at or below which a multiplication operand counts as sparse
#: enough to mask its product (the Outer template's trigger).
OUTER_MAX_DENSITY = 0.4


class GenPlanner:
    """Template-based fusion plan generation (SystemDS' GEN)."""

    def plan(self, dag: DAG) -> FusionPlan:
        covered: set[Node] = set()
        partials: list[PartialFusionPlan] = []

        for plan in self._outer_templates(dag):
            if plan.nodes & covered:
                continue
            partials.append(plan)
            covered |= plan.nodes

        for plan in self._row_templates(dag, covered):
            if plan.nodes & covered:
                continue
            partials.append(plan)
            covered |= plan.nodes

        leftovers = [n for n in dag.nodes() if n.is_operator and n not in covered]
        for group in _cell_fuse_leftovers(dag, leftovers):
            partials.append(PartialFusionPlan(group, dag))

        units = [PlanUnit(plan=p) for p in partials]
        units = merge_multi_aggregations(dag, units)
        return FusionPlan(dag, _order_units(dag, units))

    # -- Outer template -----------------------------------------------------------

    def _outer_templates(self, dag: DAG) -> list[PartialFusionPlan]:
        """Multiplications fused only because a sparse mask covers them."""
        plans: list[PartialFusionPlan] = []
        claimed: set[Node] = set()
        for node in dag.nodes():
            if not (
                isinstance(node, BinaryNode)
                and node.kernel == "mul"
                and not node.has_scalar
            ):
                continue
            for idx in (0, 1):
                sparse_side = node.inputs[idx]
                dense_side = node.inputs[1 - idx]
                if sparse_side.meta.density > OUTER_MAX_DENSITY:
                    continue
                chain = self._matmul_chain(dag, dense_side)
                if chain is None:
                    continue
                mm, path = chain
                members = {node, mm, *path}
                members |= self._operand_transposes(dag, mm)
                members |= self._grow_top(dag, node, members)
                members = {m for m in members if m not in claimed}
                if mm not in members or node not in members:
                    continue
                plans.append(PartialFusionPlan(members, dag))
                claimed |= members
                break
        return plans

    def _matmul_chain(
        self, dag: DAG, node: Node
    ) -> Optional[tuple[MatMulNode, list[Node]]]:
        """Walk down through single-consumer element-wise ops to a matmul.

        DAG roots cannot be fused through — even with a single consumer
        their value must materialize on its own — so they stop the walk.
        """
        path: list[Node] = []
        current = node
        while True:
            if isinstance(current, MatMulNode):
                if dag.consumers(current) != 1 or current in dag.roots:
                    return None
                return current, path
            if isinstance(current, (UnaryNode, BinaryNode)):
                if dag.consumers(current) != 1 or current in dag.roots:
                    return None
                path.append(current)
                matrix_children = [
                    c for c in current.inputs if c.is_operator
                ]
                if len(matrix_children) != 1:
                    return None
                current = matrix_children[0]
                continue
            return None

    def _operand_transposes(self, dag: DAG, mm: MatMulNode) -> set[Node]:
        """Single-consumer transposes feeding the multiplication."""
        found: set[Node] = set()
        for child in mm.inputs:
            if (
                isinstance(child, TransposeNode)
                and dag.consumers(child) == 1
                and child not in dag.roots
            ):
                found.add(child)
        return found

    def _grow_top(self, dag: DAG, node: Node, members: set[Node]) -> set[Node]:
        """Absorb the single-consumer element-wise / aggregation chain above."""
        grown: set[Node] = set()
        current = node
        while dag.consumers(current) == 1 and current not in dag.roots:
            parents = dag.parents(current)
            if not parents:
                break
            parent = parents[0]
            if isinstance(parent, AggNode) or parent in dag.roots:
                # aggregations and consumed roots cap the chain as its top:
                # both must materialize their output anyway
                grown.add(parent)
                break
            if not isinstance(parent, (UnaryNode, BinaryNode)):
                break
            other_operands = [
                c for c in parent.inputs
                if c is not current and c.is_operator
                and c not in members and c not in grown
            ]
            if other_operands:
                break  # the other side would drag in unfusable work
            grown.add(parent)
            current = parent
        return grown

    # -- Row template -----------------------------------------------------------------

    def _row_templates(self, dag: DAG, covered: set[Node]) -> list[PartialFusionPlan]:
        """Multiplications with a narrow (one block wide) side matrix.

        SystemDS' Row template reuses the rows of the wide input across the
        multiplication and the following operators, e.g. PCA's
        ``(X x S)^T x X``.  We fuse conservatively: the multiplication plus a
        directly narrow-side chain.
        """
        plans: list[PartialFusionPlan] = []
        for node in dag.nodes():
            if not isinstance(node, MatMulNode) or node in covered:
                continue
            right = node.inputs[1]
            if right.meta.block_cols != 1:
                continue
            if right.meta.cols >= node.inputs[0].meta.cols:
                continue
            grown, top = self._climb_row_chain(dag, node)
            members: set[Node] = {node} | grown
            members |= self._grow_top(dag, top, members)
            members -= covered
            if node in members and not (members & covered):
                plans.append(PartialFusionPlan(members, dag))
        return plans

    def _climb_row_chain(
        self, dag: DAG, node: Node
    ) -> tuple[set[Node], Node]:
        """Follow the narrow product up through transposes into one more
        multiplication — the full PCA pattern ``(X x S)^T x X``.  Returns
        the absorbed operators and the top of the chain."""
        grown: set[Node] = set()
        current = node
        while dag.consumers(current) == 1 and current not in dag.roots:
            parent = dag.parents(current)[0]
            if isinstance(parent, TransposeNode):
                grown.add(parent)
                current = parent
                continue
            if isinstance(parent, MatMulNode):
                grown.add(parent)
                current = parent
            break
        return grown, current
