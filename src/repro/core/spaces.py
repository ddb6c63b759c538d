"""The 3-D model space of Section 3.1.

A partial fusion plan containing matrix multiplication is laid out in a
3-dimensional ``(i, j, k)`` space: the main multiplication ``v_mm`` occupies
``MM``-space, everything feeding its left operand lives in ``L``-space
(the ``ik``-plane), everything feeding its right operand in ``R``-space
(the ``kj``-plane), and everything consuming its output in ``O``-space
(the ``ij``-plane).  Nested multiplications inside a space open their own
(recursive) model spaces, exactly as in Figure 11.

Two artifacts are produced here:

* **axis tags** — every plan node and every frontier edge is tagged with the
  model-space axis its rows and columns align to, which is what lets the CFO
  slice arbitrary fused plans by cuboid;
* **the space tree** — the recursive L/R/O/MM membership that the cost model
  (Algorithm 1) walks.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.errors import PlanError
from repro.lang.dag import (
    AggNode,
    BinaryNode,
    MatMulNode,
    Node,
    TransposeNode,
    UnaryNode,
)
from repro.core.plan import PartialFusionPlan

_axis_counter = itertools.count()


class AxisKind(enum.Enum):
    """Which model-space axis a matrix dimension aligns to."""

    I = "i"
    J = "j"
    K = "k"
    #: A nested multiplication's private common dimension: never partitioned.
    PRIVATE = "private"


@dataclass(frozen=True)
class Axis:
    """One concrete axis instance (private axes are distinguished by id)."""

    kind: AxisKind
    uid: int = 0

    def __repr__(self) -> str:
        if self.kind is AxisKind.PRIVATE:
            return f"priv{self.uid}"
        return self.kind.value


AXIS_I = Axis(AxisKind.I)
AXIS_J = Axis(AxisKind.J)
AXIS_K = Axis(AxisKind.K)


def fresh_private_axis() -> Axis:
    return Axis(AxisKind.PRIVATE, next(_axis_counter))


#: ``(row_axis, col_axis)`` of a node's output matrix.
Tag = Tuple[Axis, Axis]

#: A frontier consumption point: (consumer node, operand index).
Edge = Tuple[Node, int]


@dataclass
class AxisTags:
    """Tags for plan operators (by node) and frontier inputs (by edge)."""

    operator_tags: Dict[Node, Tag]
    frontier_tags: Dict[Edge, Tag]

    def tag_of_operand(self, consumer: Node, index: int) -> Tag:
        """Tag of the *index*-th operand of *consumer* (plan op or frontier)."""
        child = consumer.inputs[index]
        if child in self.operator_tags:
            return self.operator_tags[child]
        return self.frontier_tags[(consumer, index)]

    def output_tag(self, root: Node) -> Tag:
        """Tag of the tile a plan rooted at *root* assembles: an
        aggregation's operand, else the root itself."""
        if isinstance(root, AggNode):
            return self.tag_of_operand(root, 0)
        return self.operator_tags[root]


def assign_axis_tags(plan: PartialFusionPlan, mm: MatMulNode) -> AxisTags:
    """Tag every plan node / frontier edge with model-space axes.

    Starts at the main multiplication (``mm`` gets ``(i, j)``, its left
    operand ``(i, k)``, its right operand ``(k, j)``) and propagates down
    through operand subtrees and up through the O-space, spawning private
    axes at nested multiplications.
    """
    if mm not in plan.nodes:
        raise PlanError("main matmul must be part of the plan")
    operator_tags: Dict[Node, Tag] = {mm: (AXIS_I, AXIS_J)}
    frontier_tags: Dict[Edge, Tag] = {}

    def push_down(consumer: Node, index: int, tag: Tag) -> None:
        """Assign *tag* to the operand edge and recurse into plan subtrees."""
        child = consumer.inputs[index]
        if child not in plan.nodes:
            frontier_tags[(consumer, index)] = tag
            return
        existing = operator_tags.get(child)
        if existing is not None:
            if existing != tag:
                raise PlanError(
                    f"conflicting axis tags for {child!r}: {existing} vs {tag}"
                )
            return
        operator_tags[child] = tag
        _push_through(child, tag)

    def _push_through(node: Node, tag: Tag) -> None:
        """Propagate a node's output tag to its operand edges."""
        if isinstance(node, (UnaryNode, BinaryNode, AggNode)):
            for idx in range(len(node.inputs)):
                push_down(node, idx, tag)
        elif isinstance(node, TransposeNode):
            push_down(node, 0, (tag[1], tag[0]))
        elif isinstance(node, MatMulNode):
            private = fresh_private_axis()
            push_down(node, 0, (tag[0], private))
            push_down(node, 1, (private, tag[1]))
        else:
            raise PlanError(f"cannot tag through node type {type(node).__name__}")

    # downward: operand subtrees of the main multiplication
    push_down(mm, 0, (AXIS_I, AXIS_K))
    push_down(mm, 1, (AXIS_K, AXIS_J))

    # upward: O-space (ancestors of mm inside the plan and their side inputs).
    # A node's tag comes either from a tagged operand (inference) or from a
    # tagged consumer (push-down); iterate to a fixpoint since side subtrees
    # only become taggable after their consumer is.
    progressed = True
    while progressed:
        progressed = False
        for node in plan.topo_nodes():
            if node in operator_tags:
                continue
            inferred = _infer_from_children(node, operator_tags)
            if inferred is None:
                continue
            tag, operand_tags = inferred
            operator_tags[node] = tag
            progressed = True
            # tag side subtrees (operands not yet covered)
            for idx, child in enumerate(node.inputs):
                if child in operator_tags:
                    continue
                push_down(node, idx, operand_tags[idx])
    untagged = [n for n in plan.topo_nodes() if n not in operator_tags]
    if untagged:
        raise PlanError(
            f"cannot infer axis tags for {untagged!r}: plan is not connected "
            "through the main multiplication"
        )
    return AxisTags(operator_tags, frontier_tags)


def _infer_from_children(
    node: Node, tags: Dict[Node, Tag]
) -> Optional[tuple[Tag, Dict[int, Tag]]]:
    """Infer *node*'s output tag and the tags of all its operands from the
    first operand that already carries a tag.

    For matrix multiplication the contraction axis is shared between both
    operands: when the tagged operand is the left one, the right operand's
    rows align with the left operand's columns (and symmetrically), and the
    free output dimension gets a fresh private axis.
    """
    for idx, child in enumerate(node.inputs):
        child_tag = tags.get(child)
        if child_tag is None:
            continue
        if isinstance(node, (UnaryNode, BinaryNode, AggNode)):
            operands = {i: child_tag for i in range(len(node.inputs))}
            return child_tag, operands
        if isinstance(node, TransposeNode):
            return (child_tag[1], child_tag[0]), {0: child_tag}
        if isinstance(node, MatMulNode):
            fresh = fresh_private_axis()
            if idx == 0:
                contraction = child_tag[1]
                own = (child_tag[0], fresh)
                return own, {0: child_tag, 1: (contraction, fresh)}
            contraction = child_tag[0]
            own = (fresh, child_tag[1])
            return own, {0: (fresh, contraction), 1: child_tag}
    return None


# ---------------------------------------------------------------------------
# space tree
# ---------------------------------------------------------------------------


class SpaceKind(enum.Enum):
    L = "L"
    R = "R"
    O = "O"


@dataclass
class Space:
    """Members of one of the L-, R- or O-spaces of a model space."""

    kind: SpaceKind
    #: Non-matmul plan operators directly in this space (not under a nested mm).
    operators: list[Node] = field(default_factory=list)
    #: Frontier consumption edges directly in this space.
    materialized: list[Edge] = field(default_factory=list)
    #: Nested model spaces opened by matmuls inside this space.
    nested: list["SpaceTree"] = field(default_factory=list)


@dataclass
class SpaceTree:
    """The recursive L/R/O/MM-space assignment of a partial fusion plan."""

    mm: MatMulNode
    spaces: Dict[SpaceKind, Space]
    #: True when the plan's materialized output is produced by this tree's
    #: root (only set on the outermost tree).
    produces_output: bool = False
    #: The cost model's compiled walks (:func:`repro.core.cost.tree_terms`),
    #: built on first use; they live and die with the tree.
    terms: object = field(default=None, repr=False, compare=False)

    def space(self, kind: SpaceKind) -> Space:
        return self.spaces[kind]

    def all_nested(self) -> list["SpaceTree"]:
        result = []
        for space in self.spaces.values():
            for tree in space.nested:
                result.append(tree)
                result.extend(tree.all_nested())
        return result


def build_space_tree(
    plan: PartialFusionPlan, mm: Optional[MatMulNode] = None
) -> SpaceTree:
    """Assign every plan member to L-, R-, O- or a nested space.

    ``mm`` defaults to the plan's main multiplication (largest voxel count).
    """
    if mm is None:
        mm = plan.main_matmul()
    return _build_tree(plan, plan.nodes - {mm} , mm, outermost=True)


@dataclass(frozen=True)
class PlanLayout:
    """A validated 3-D layout of a partial fusion plan.

    Bundles the chosen main multiplication, its space tree and the axis tags.
    The layout guarantees the plan's output is grounded on the ``(i, j)``
    plane, so the CFO can assemble result tiles.
    """

    mm: MatMulNode
    tree: "SpaceTree"
    tags: AxisTags


def plan_layout(plan: PartialFusionPlan) -> PlanLayout:
    """Choose a main multiplication that yields a valid 3-D layout.

    Candidates are tried in the paper's order — largest ``I*J*K`` voxel
    volume first (Algorithm 3, line 3) — but a candidate is rejected when it
    cannot tag the whole plan consistently or leaves the plan output on a
    private axis (which happens when another multiplication *contracts* the
    main product stream; such a plan cannot execute as one CFO and the plan
    generator splits it instead).

    The layout is a pure function of the (immutable) plan, so it is derived
    once and kept on the plan: every execute of a cached physical plan, and
    the parameter search before it, share one layout.
    """
    return plan.derived("layout", lambda: _choose_layout(plan))


def _choose_layout(plan: PartialFusionPlan) -> PlanLayout:
    matmuls = sorted(
        plan.matmuls(),
        key=lambda n: (
            -(n.inputs[0].meta.rows * n.inputs[1].meta.cols * n.common_dim),
            n.node_id,
        ),
    )
    if not matmuls:
        raise PlanError("plan contains no matrix multiplication")
    last_error: Optional[PlanError] = None
    for mm in matmuls:
        try:
            tags = assign_axis_tags(plan, mm)
        except PlanError as exc:
            last_error = exc
            continue
        if not _root_grounded(plan, tags):
            last_error = PlanError(
                f"plan output not on the (i, j) plane with main {mm!r}"
            )
            continue
        tree = build_space_tree(plan, mm)
        return PlanLayout(mm=mm, tree=tree, tags=tags)
    raise last_error if last_error is not None else PlanError(
        "no valid main multiplication"
    )


def _root_grounded(plan: PartialFusionPlan, tags: AxisTags) -> bool:
    """Whether the plan output tile lies on model axes the CFO can assemble."""
    tag = tags.output_tag(plan.root)
    allowed = {AxisKind.I, AxisKind.J}
    return tag[0].kind in allowed and tag[1].kind in allowed


def _build_tree(
    plan: PartialFusionPlan,
    members: frozenset[Node] | set[Node],
    mm: MatMulNode,
    outermost: bool,
) -> SpaceTree:
    members = set(members)

    def in_plan_descendants(anchor: Node) -> set[Node]:
        """Members reachable strictly below *anchor* through member edges."""
        result: set[Node] = set()
        stack = [anchor]
        while stack:
            current = stack.pop()
            for child in current.inputs:
                if child in members and child not in result:
                    result.add(child)
                    stack.append(child)
        return result

    left_members = (
        in_plan_descendants(mm.inputs[0]) | ({mm.inputs[0]} & members)
    )
    right_members = (
        (in_plan_descendants(mm.inputs[1]) | ({mm.inputs[1]} & members))
        - left_members
    )
    out_members = members - left_members - right_members

    spaces = {
        SpaceKind.L: _build_space(plan, SpaceKind.L, left_members, anchors=(mm, 0)),
        SpaceKind.R: _build_space(plan, SpaceKind.R, right_members, anchors=(mm, 1)),
        SpaceKind.O: _build_space(plan, SpaceKind.O, out_members, anchors=None),
    }
    return SpaceTree(mm=mm, spaces=spaces, produces_output=outermost)


def _build_space(
    plan: PartialFusionPlan,
    kind: SpaceKind,
    members: set[Node],
    anchors: Optional[Edge],
) -> Space:
    """Split a member set into direct operators, frontier edges and nested
    model spaces."""
    space = Space(kind=kind)

    # frontier edge feeding this space directly at the mm operand
    if anchors is not None:
        consumer, index = anchors
        if consumer.inputs[index] not in plan.nodes:
            space.materialized.append(anchors)

    if not members:
        return space

    matmuls = [n for n in members if isinstance(n, MatMulNode)]
    # top-level nested matmuls: not below another member matmul
    nested_roots: list[MatMulNode] = []
    below_some: set[Node] = set()
    for m in matmuls:
        others = [x for x in matmuls if x is not m]
        if not any(m in plan.descendants_within(x) - {x} for x in others if x in members):
            nested_roots.append(m)
    for m in nested_roots:
        nested_members = (plan.descendants_within(m) - {m}) & members
        below_some |= nested_members | {m}
        space.nested.append(_build_tree(plan, nested_members, m, outermost=False))

    direct = members - below_some
    ordered = [n for n in plan.topo_nodes() if n in direct]
    space.operators.extend(ordered)

    # frontier edges consumed by direct members
    for node in ordered:
        for idx, child in enumerate(node.inputs):
            if child not in plan.nodes:
                space.materialized.append((node, idx))
    return space


# ---------------------------------------------------------------------------
# sparsity exploitation detection
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SparsityMask:
    """A valid Outer-fusion masking opportunity.

    ``mask_mul`` is the element-wise multiplication whose sparse side
    restricts which output cells of the main multiplication ever need
    computing; ``mask_operand_index`` points at the sparse side.
    """

    mask_mul: BinaryNode
    mask_operand_index: int


def find_sparsity_mask(
    plan: PartialFusionPlan,
    mm: MatMulNode,
    tree: SpaceTree,
    density_threshold: float = 0.25,
) -> Optional[SparsityMask]:
    """Detect the paper's sparsity-exploitation pattern (Outer fusion).

    Conditions checked:

    * O-space contains an element-wise ``mul`` one of whose operand subtrees
      is estimated sparse and independent of ``mm``;
    * every path from ``mm`` to the plan root passes through that ``mul``
      (otherwise unmasked cells of the product would still be observable);
    * the O-space contains no nested multiplication (masked evaluation
      operates on gathered 1-D cell vectors, which only element-wise,
      transpose and aggregation operators support).

    *tree* is the space tree of ``(plan, mm)``, so the answer is a pure
    function of ``(plan, mm, density_threshold)`` and is kept on the plan
    like its layout.
    """
    return plan.derived(
        ("sparsity_mask", mm.node_id, density_threshold),
        lambda: _detect_sparsity_mask(plan, mm, tree, density_threshold),
    )


def _detect_sparsity_mask(
    plan: PartialFusionPlan,
    mm: MatMulNode,
    tree: SpaceTree,
    density_threshold: float,
) -> Optional[SparsityMask]:
    o_space = tree.space(SpaceKind.O)
    if o_space.nested:
        return None
    if any(isinstance(n, TransposeNode) for n in o_space.operators):
        # masked evaluation gathers 1-D cell vectors positionally; a
        # transpose in O-space would change cell orientation mid-chain
        return None

    if not (plan.root is mm or mm in plan.descendants_within(plan.root)):
        return None

    for node in o_space.operators:
        if not (isinstance(node, BinaryNode) and node.kernel == "mul" and not node.has_scalar):
            continue
        for idx in (0, 1):
            side = node.inputs[idx]
            other = node.inputs[1 - idx]
            if side.meta.density > density_threshold:
                continue
            if _depends_on(plan, side, mm):
                continue
            if not _depends_on_or_is(plan, other, mm):
                continue
            if _reaches_avoiding(plan, mm, plan.root, blocked=node):
                continue  # a path escapes the mask
            if not _zero_preserving_above(plan, node):
                continue  # e.g. "+ eps" above the mask would densify
            return SparsityMask(mask_mul=node, mask_operand_index=idx)
    return None


def _zero_preserving_above(plan: PartialFusionPlan, mask_mul: Node) -> bool:
    """Whether every operator between *mask_mul* and the plan root keeps the
    masked stream's zeros at zero.

    Cells outside the mask are never computed, so they materialize as zeros;
    any operator above the mask that maps 0 to something else (``+ eps``,
    ``log``, a subtraction with another matrix, ...) would make those zeros
    observable and the masked evaluation wrong.
    """
    from repro.blocks.kernels import UNARY_KERNELS

    current = mask_mul
    while current is not plan.root:
        parents = [p for p in plan.dag.parents(current) if p in plan.nodes]
        if len(parents) != 1:
            return False
        parent = parents[0]
        if isinstance(parent, AggNode):
            current = parent
            continue
        if isinstance(parent, UnaryNode):
            if not UNARY_KERNELS[parent.kernel].zero_preserving:
                return False
            current = parent
            continue
        if isinstance(parent, BinaryNode):
            if parent.has_scalar:
                # scalar on the other side: only mul keeps 0 -> 0 from
                # either side; div/pow only when the stream is the left
                if parent.kernel == "mul":
                    current = parent
                    continue
                if parent.kernel in ("div", "pow") and not parent.scalar_on_left:
                    current = parent
                    continue
                return False
            if parent.kernel == "mul":
                current = parent
                continue
            if parent.kernel == "div" and parent.inputs[0] is current:
                current = parent
                continue
            return False
        return False
    return True


def _depends_on(plan: PartialFusionPlan, node: Node, target: Node) -> bool:
    """Whether *node* (possibly a frontier node) depends on *target* within
    the plan."""
    if node is target:
        return True
    if node not in plan.nodes:
        return False
    return target in plan.descendants_within(node)


def _depends_on_or_is(plan: PartialFusionPlan, node: Node, target: Node) -> bool:
    return node is target or _depends_on(plan, node, target)


def _reaches_avoiding(
    plan: PartialFusionPlan, source: Node, target: Node, blocked: Node
) -> bool:
    """Whether *target* is reachable upward from *source* without passing
    through *blocked*."""
    frontier = {source}
    visited: set[Node] = set()
    while frontier:
        current = frontier.pop()
        if current is target:
            return True
        if current in visited or current is blocked:
            continue
        visited.add(current)
        for parent in plan.dag.parents(current):
            if parent in plan.nodes and parent is not blocked:
                if parent is target:
                    return True
                frontier.add(parent)
    return False
