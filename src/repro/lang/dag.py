"""DAG node types and the query-plan container.

A query plan is a DAG whose leaves are input matrices and whose inner vertices
are matrix operators (Section 2.1).  Nodes are immutable once built; shape and
density metadata (:class:`~repro.matrix.meta.MatrixMeta`) is inferred at
construction so the optimizer can cost plans without touching data.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterable, Iterator, Optional, Sequence

from repro.blocks.kernels import (
    AGGREGATION_KERNELS,
    BINARY_KERNELS,
    UNARY_KERNELS,
)
from repro.errors import PlanError
from repro.lang.ops import OpType
from repro.matrix.meta import MatrixMeta

_node_counter = itertools.count()


class Node:
    """Base class of all DAG vertices.

    Attributes
    ----------
    node_id:
        Process-unique integer identifier (stable ordering key).
    op_type:
        The operator taxonomy entry.
    inputs:
        Child nodes (operands), in operand order.
    meta:
        Inferred output shape/density metadata.
    """

    __slots__ = ("node_id", "op_type", "inputs", "meta")

    def __init__(self, op_type: OpType, inputs: Sequence["Node"], meta: MatrixMeta):
        self.node_id = next(_node_counter)
        self.op_type = op_type
        self.inputs = tuple(inputs)
        self.meta = meta

    @property
    def is_operator(self) -> bool:
        return self.op_type is not OpType.INPUT

    def label(self) -> str:
        """Short human-readable label used in plan dumps."""
        raise NotImplementedError

    def estimated_flops(self) -> int:
        """``numOp(v)`` of Eq. 5: estimated floating point operations."""
        return 0

    def __repr__(self) -> str:
        rows, cols = self.meta.shape
        return f"{self.label()}#{self.node_id}[{rows}x{cols}]"

    def __hash__(self) -> int:
        return self.node_id

    def __eq__(self, other: object) -> bool:
        return self is other


class InputNode(Node):
    """A leaf: a named input matrix."""

    __slots__ = ("name",)

    def __init__(self, name: str, meta: MatrixMeta):
        super().__init__(OpType.INPUT, (), meta)
        self.name = name

    def label(self) -> str:
        return self.name


class UnaryNode(Node):
    """Element-wise unary operator ``u(kernel)``."""

    __slots__ = ("kernel",)

    def __init__(self, kernel: str, child: Node):
        spec = UNARY_KERNELS.get(kernel)
        if spec is None:
            raise KeyError(f"unknown unary kernel {kernel!r}")
        density = child.meta.density if spec.zero_preserving else 1.0
        meta = child.meta.with_density(density)
        super().__init__(OpType.UNARY, (child,), meta)
        self.kernel = kernel

    def label(self) -> str:
        return f"u({self.kernel})"

    def estimated_flops(self) -> int:
        child = self.inputs[0]
        if UNARY_KERNELS[self.kernel].zero_preserving and child.meta.density < 0.5:
            return child.meta.estimated_nnz
        return child.meta.num_elements


class BinaryNode(Node):
    """Element-wise binary operator ``b(kernel)``; one side may be a scalar."""

    __slots__ = ("kernel", "scalar", "scalar_on_left")

    def __init__(
        self,
        kernel: str,
        left: Optional[Node],
        right: Optional[Node],
        scalar: Optional[float] = None,
    ):
        spec = BINARY_KERNELS.get(kernel)
        if spec is None:
            raise KeyError(f"unknown binary kernel {kernel!r}")
        if scalar is None:
            if left is None or right is None:
                raise PlanError("matrix-matrix binary needs two matrix operands")
            meta = left.meta.elementwise_meta(right.meta, spec.sparse_safe_left)
            children: tuple[Node, ...] = (left, right)
            scalar_on_left = False
        else:
            operand = left if left is not None else right
            if operand is None:
                raise PlanError("scalar binary needs one matrix operand")
            scalar_on_left = left is None
            children = (operand,)
            meta = self._scalar_meta(kernel, operand.meta, float(scalar), scalar_on_left)
        super().__init__(OpType.BINARY, children, meta)
        self.kernel = kernel
        self.scalar = None if scalar is None else float(scalar)
        self.scalar_on_left = scalar_on_left

    @staticmethod
    def _scalar_meta(
        kernel: str, meta: MatrixMeta, scalar: float, scalar_on_left: bool
    ) -> MatrixMeta:
        zero_preserving = (
            kernel in ("mul", "div", "pow") and not scalar_on_left
        ) or (kernel == "mul" and scalar_on_left)
        if kernel == "neq" and scalar == 0.0 and not scalar_on_left:
            zero_preserving = True
        if zero_preserving:
            return meta
        return meta.with_density(1.0)

    @property
    def has_scalar(self) -> bool:
        return self.scalar is not None

    def label(self) -> str:
        if self.has_scalar:
            side = "s," if self.scalar_on_left else ",s"
            return f"b({self.kernel}:{side}{self.scalar:g})"
        return f"b({self.kernel})"

    def estimated_flops(self) -> int:
        spec = BINARY_KERNELS[self.kernel]
        left = self.inputs[0]
        if spec.sparse_safe_left and left.meta.density < 0.5 and not self.scalar_on_left:
            return left.meta.estimated_nnz
        return self.meta.num_elements


class AggNode(Node):
    """Unary aggregation operator ``ua(kernel)``."""

    __slots__ = ("kernel",)

    def __init__(self, kernel: str, child: Node):
        spec = AGGREGATION_KERNELS.get(kernel)
        if spec is None:
            raise KeyError(f"unknown aggregation kernel {kernel!r}")
        if spec.axis == "all":
            meta = MatrixMeta(1, 1, child.meta.block_size, density=1.0)
        elif spec.axis == "row":
            meta = MatrixMeta(child.meta.rows, 1, child.meta.block_size, density=1.0)
        else:
            meta = MatrixMeta(1, child.meta.cols, child.meta.block_size, density=1.0)
        super().__init__(OpType.UNARY_AGG, (child,), meta)
        self.kernel = kernel

    def label(self) -> str:
        return f"ua({self.kernel})"

    def estimated_flops(self) -> int:
        child = self.inputs[0]
        if child.meta.density < 0.5:
            return child.meta.estimated_nnz
        return child.meta.num_elements


class MatMulNode(Node):
    """Binary aggregation operator ``ba(x)``: matrix multiplication."""

    def __init__(self, left: Node, right: Node):
        meta = left.meta.matmul_meta(right.meta)
        super().__init__(OpType.MATMUL, (left, right), meta)

    def label(self) -> str:
        return "ba(x)"

    @property
    def common_dim(self) -> int:
        """``K``: the aggregated element dimension."""
        return self.inputs[0].meta.cols

    def mm_dims(self) -> tuple[int, int, int]:
        """``(I, J, K)`` in *blocks* — the 3-D model space extents."""
        left, right = self.inputs
        return (
            left.meta.block_rows,
            right.meta.block_cols,
            left.meta.block_cols,
        )

    def estimated_flops(self) -> int:
        left, right = self.inputs
        if left.meta.density < 0.5:
            return 2 * left.meta.estimated_nnz * right.meta.cols
        if right.meta.density < 0.5:
            return 2 * right.meta.estimated_nnz * left.meta.rows
        return 2 * left.meta.rows * left.meta.cols * right.meta.cols


class TransposeNode(Node):
    """Reorganization operator ``r(T)``."""

    def __init__(self, child: Node):
        super().__init__(OpType.TRANSPOSE, (child,), child.meta.transposed())

    def label(self) -> str:
        return "r(T)"

    def estimated_flops(self) -> int:
        # data movement, not arithmetic; charge one op per stored element
        child = self.inputs[0]
        if child.meta.density < 0.5:
            return child.meta.estimated_nnz
        return child.meta.num_elements


def post_order(
    roots: Iterable[Node], stop: Optional[Callable[[Node], bool]] = None
) -> list[Node]:
    """Every node reachable from *roots*, each once, children before parents.

    The order is a depth-first post-order that visits operands in operand
    order and roots in the order given.  A node for which ``stop(node)`` is
    true is emitted without visiting its inputs (the interpreter's bound
    frontier).  The walk keeps an explicit stack, so a plan's depth is not
    bounded by the interpreter's recursion limit, and it leaves no
    reference cycle behind.
    """
    order: list[Node] = []
    done: set[Node] = set()
    path: set[Node] = set()

    def operands(node: Node) -> Iterator[Node]:
        return iter(()) if stop is not None and stop(node) else iter(node.inputs)

    for root in roots:
        if root in done:
            continue
        path.add(root)
        stack = [(root, operands(root))]
        while stack:
            node, pending = stack[-1]
            for child in pending:
                if child in done:
                    continue
                if child in path:
                    raise PlanError("query plan contains a cycle")
                path.add(child)
                stack.append((child, operands(child)))
                break
            else:
                stack.pop()
                path.discard(node)
                done.add(node)
                order.append(node)
    return order


class DAG:
    """A query plan: one or more root nodes over shared inputs."""

    def __init__(self, roots: Sequence[Node] | Node):
        if isinstance(roots, Node):
            roots = (roots,)
        if not roots:
            raise PlanError("a DAG needs at least one root")
        self.roots: tuple[Node, ...] = tuple(roots)
        self._topo = self._toposort()
        self._consumers = self._count_consumers()
        #: node -> its consumers, built by the first :meth:`parents` call
        self._parents: Optional[dict[Node, tuple[Node, ...]]] = None

    # -- traversal -------------------------------------------------------------

    def _toposort(self) -> tuple[Node, ...]:
        return tuple(post_order(self.roots))

    def _count_consumers(self) -> dict[Node, int]:
        counts: dict[Node, int] = {node: 0 for node in self._topo}
        for node in self._topo:
            for child in node.inputs:
                counts[child] += 1
        return counts

    def nodes(self) -> tuple[Node, ...]:
        """All nodes in topological order (children before parents)."""
        return self._topo

    def operators(self) -> Iterator[Node]:
        """Operator vertices only (no inputs), topological order."""
        return (n for n in self._topo if n.is_operator)

    def inputs(self) -> tuple[InputNode, ...]:
        return tuple(n for n in self._topo if isinstance(n, InputNode))

    def consumers(self, node: Node) -> int:
        """Number of outgoing edges of *node* within this DAG."""
        try:
            return self._consumers[node]
        except KeyError:
            raise PlanError(f"{node!r} is not part of this DAG") from None

    def parents(self, node: Node) -> tuple[Node, ...]:
        """Nodes consuming *node* directly, in topological order."""
        if self._parents is None:
            found: dict[Node, list[Node]] = {}
            for parent in self._topo:
                for child in dict.fromkeys(parent.inputs):
                    found.setdefault(child, []).append(parent)
            self._parents = {
                child: tuple(parents) for child, parents in found.items()
            }
        return self._parents.get(node, ())

    def matmul_nodes(self) -> tuple[MatMulNode, ...]:
        return tuple(n for n in self._topo if isinstance(n, MatMulNode))

    # -- validation / display -------------------------------------------------------

    def validate_inputs(self, bindings: Iterable[str]) -> None:
        """Check that every named input has a binding."""
        provided = set(bindings)
        missing = [n.name for n in self.inputs() if n.name not in provided]
        if missing:
            raise PlanError(f"missing input bindings: {sorted(set(missing))}")

    def dump(self) -> str:
        """Multi-line description of the plan (children listed by id)."""
        lines = []
        for node in self._topo:
            deps = ",".join(str(c.node_id) for c in node.inputs)
            rows, cols = node.meta.shape
            lines.append(
                f"#{node.node_id:<4} {node.label():<14} "
                f"[{rows}x{cols} d={node.meta.density:.4f}] <- ({deps})"
            )
        return "\n".join(lines)

    def __len__(self) -> int:
        return len(self._topo)
