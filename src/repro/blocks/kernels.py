"""Named element-wise, aggregation and multiplication kernels.

Each kernel is registered under the operator name the DAG layer uses (e.g.
``"mul"`` for the paper's ``b(*)``, ``"log"`` for ``u(log)``,
``"sum"``/``"rowSum"``/``"colSum"`` for the unary aggregations of Section 2.1).
Kernels are pure: they take blocks (or scalars) and return a new block, and
they never write to an operand's payload — the aliasing contract that lets
them read dense operands through :meth:`Block.dense_view` without a copy.
Separate ``*_flops`` estimators let the simulated cluster charge computation
cost without instrumenting the math itself, mirroring ``numOp(v)`` in Eq. 5.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Callable, Mapping, Union

import numpy as np
import scipy.sparse as sp

from repro.blocks.block import Block
from repro.errors import MatrixShapeError, SparsityError

Operand = Union[Block, float, int]


# ---------------------------------------------------------------------------
# unary kernels
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class UnaryKernel:
    """A named element-wise function of one matrix.

    ``zero_preserving`` kernels map 0 to 0 and may therefore operate on the
    stored values of a sparse block without densifying it; non-preserving
    kernels (``log``, ``exp``, ...) densify, exactly the effect that makes
    sparsity exploitation valuable in the paper's Outer fusion.
    """

    name: str
    fn: Callable[[np.ndarray], np.ndarray]
    zero_preserving: bool


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # the overflow-free form, without a masked gather/scatter: exp(-|x|) is
    # exp(-x) where x >= 0 and exp(x) elsewhere, so each branch divides
    # exactly as 1/(1+exp(-x)) and exp(x)/(1+exp(x)) would
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


UNARY_KERNELS: Mapping[str, UnaryKernel] = {
    k.name: k
    for k in (
        UnaryKernel("log", lambda x: np.log(x), zero_preserving=False),
        UnaryKernel("log1p", np.log1p, zero_preserving=True),
        UnaryKernel("exp", np.exp, zero_preserving=False),
        UnaryKernel("sigmoid", _sigmoid, zero_preserving=False),
        UnaryKernel("sqrt", np.sqrt, zero_preserving=True),
        UnaryKernel("abs", np.abs, zero_preserving=True),
        UnaryKernel("neg", np.negative, zero_preserving=True),
        UnaryKernel("sq", np.square, zero_preserving=True),
        UnaryKernel("relu", lambda x: np.maximum(x, 0.0), zero_preserving=True),
        UnaryKernel("sin", np.sin, zero_preserving=True),
        UnaryKernel("cos", np.cos, zero_preserving=False),
        UnaryKernel("tanh", np.tanh, zero_preserving=True),
        UnaryKernel("round", np.round, zero_preserving=True),
        UnaryKernel("recip", lambda x: 1.0 / x, zero_preserving=False),
    )
}


def unary(name: str, a: Block) -> Block:
    """Apply the unary kernel *name* element-wise to block *a*."""
    kernel = UNARY_KERNELS.get(name)
    if kernel is None:
        raise KeyError(f"unknown unary kernel {name!r}")
    if a.is_sparse and kernel.zero_preserving:
        result = a.data.copy()
        result.data = kernel.fn(result.data)
        return Block(result)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return Block(kernel.fn(a.dense_view()))


def unary_flops(name: str, a: Block) -> int:
    """Floating point operations charged for a unary kernel application."""
    kernel = UNARY_KERNELS.get(name)
    if kernel is None:
        raise KeyError(f"unknown unary kernel {name!r}")
    if a.is_sparse and kernel.zero_preserving:
        return a.nnz
    rows, cols = a.shape
    return rows * cols


# ---------------------------------------------------------------------------
# binary kernels
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BinaryKernel:
    """A named element-wise function of two matrices (or matrix and scalar).

    ``sparse_safe_left`` means a zero on the left forces a zero output
    regardless of the right operand (e.g. multiplication and division),
    so a sparse left operand keeps the result sparse.
    """

    name: str
    fn: Callable[[np.ndarray, np.ndarray], np.ndarray]
    sparse_safe_left: bool


BINARY_KERNELS: Mapping[str, BinaryKernel] = {
    k.name: k
    for k in (
        BinaryKernel("add", np.add, sparse_safe_left=False),
        BinaryKernel("sub", np.subtract, sparse_safe_left=False),
        BinaryKernel("mul", np.multiply, sparse_safe_left=True),
        BinaryKernel("div", np.divide, sparse_safe_left=True),
        BinaryKernel("pow", np.power, sparse_safe_left=True),
        BinaryKernel("min", np.minimum, sparse_safe_left=False),
        BinaryKernel("max", np.maximum, sparse_safe_left=False),
        BinaryKernel("neq", lambda a, b: (a != b).astype(np.float64), sparse_safe_left=False),
        BinaryKernel("eq", lambda a, b: (a == b).astype(np.float64), sparse_safe_left=False),
        BinaryKernel("gt", lambda a, b: (a > b).astype(np.float64), sparse_safe_left=False),
        BinaryKernel("lt", lambda a, b: (a < b).astype(np.float64), sparse_safe_left=False),
    )
}

#: Kernels a sparse left operand and a scalar right one may keep sparse: for
#: those scalars ``r`` where ``fn(0, r) == 0`` the implicit zeros stay zero.
_SPARSE_SCALAR_OK = {"mul", "div", "pow", "neq", "gt"}


def _as_operands(a: Operand, b: Operand) -> tuple[Operand, Operand]:
    if not isinstance(a, Block) and not isinstance(b, Block):
        raise TypeError("at least one binary operand must be a Block")
    return a, b


def binary(name: str, a: Operand, b: Operand) -> Block:
    """Apply the binary kernel *name* element-wise.

    Either operand may be a scalar.  Matrix operands must share a shape.
    Sparse representations are preserved whenever the kernel semantics allow
    (a zero on the sparse side forcing a zero output).
    """
    kernel = BINARY_KERNELS.get(name)
    if kernel is None:
        raise KeyError(f"unknown binary kernel {name!r}")
    a, b = _as_operands(a, b)

    # scalar cases -----------------------------------------------------------
    if not isinstance(a, Block):
        left = float(a)
        assert isinstance(b, Block)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            return Block(kernel.fn(left, b.dense_view()))
    if not isinstance(b, Block):
        right = float(b)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            if (a.is_sparse and name in _SPARSE_SCALAR_OK
                    and kernel.fn(np.float64(0.0), right) == 0.0):
                # only the stored values change; (X != 0) maps an explicitly
                # stored zero to a stored zero
                result = a.data.copy()
                result.data = kernel.fn(result.data, right)
                return Block(result)
            return Block(kernel.fn(a.dense_view(), right))

    # matrix-matrix case -------------------------------------------------------
    if a.shape != b.shape:
        raise MatrixShapeError(
            f"binary {name!r} operands must match: {a.shape} vs {b.shape}"
        )
    if a.is_sparse and kernel.sparse_safe_left:
        if name == "mul":
            return Block(a.data.multiply(b.data if b.is_sparse else b.dense_view()).tocsr())
        if name == "div":
            with np.errstate(divide="ignore", invalid="ignore"):
                return Block(a.data.multiply(1.0 / b.dense_view()).tocsr())
        # pow with a sparse left: operate at the stored pattern
        result = a.data.copy()
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            result.data = kernel.fn(result.data, values_on(b, a.data))
        return Block(result)
    if b.is_sparse and name == "mul":
        return Block(b.data.multiply(a.dense_view()).tocsr())
    if a.is_sparse and b.is_sparse and name in ("add", "sub"):
        op = a.data + b.data if name == "add" else a.data - b.data
        return Block(op.tocsr())
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return Block(kernel.fn(a.dense_view(), b.dense_view()))


def binary_flops(name: str, a: Operand, b: Operand) -> int:
    """Floating point operations charged for a binary kernel application."""
    if name not in BINARY_KERNELS:
        raise KeyError(f"unknown binary kernel {name!r}")
    blocks = [x for x in (a, b) if isinstance(x, Block)]
    if not blocks:
        raise TypeError("at least one binary operand must be a Block")
    kernel = BINARY_KERNELS[name]
    left = blocks[0]
    if kernel.sparse_safe_left and isinstance(a, Block) and a.is_sparse:
        return a.nnz
    rows, cols = left.shape
    return rows * cols


# ---------------------------------------------------------------------------
# aggregation kernels
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AggregationKernel:
    """A named unary aggregation: full, per-row or per-column reduction.

    ``combine`` merges partial results from different blocks along the
    aggregated axis; for sums it is addition, for min/max the corresponding
    element-wise reduction.  This is what the paper's "matrix aggregation
    step" shuffles.
    """

    name: str
    axis: str  # "all" | "row" | "col"
    fn: Callable[[np.ndarray], np.ndarray]
    combine: Callable[[np.ndarray, np.ndarray], np.ndarray]


AGGREGATION_KERNELS: Mapping[str, AggregationKernel] = {
    k.name: k
    for k in (
        AggregationKernel(
            "sum", "all", lambda x: np.sum(x, keepdims=True).reshape(1, 1), np.add
        ),
        AggregationKernel(
            "rowSum", "row", lambda x: np.sum(x, axis=1, keepdims=True), np.add
        ),
        AggregationKernel(
            "colSum", "col", lambda x: np.sum(x, axis=0, keepdims=True), np.add
        ),
        AggregationKernel(
            "min", "all", lambda x: np.min(x, keepdims=True).reshape(1, 1), np.minimum
        ),
        AggregationKernel(
            "max", "all", lambda x: np.max(x, keepdims=True).reshape(1, 1), np.maximum
        ),
        AggregationKernel(
            "rowMax", "row", lambda x: np.max(x, axis=1, keepdims=True), np.maximum
        ),
        AggregationKernel(
            "colMax", "col", lambda x: np.max(x, axis=0, keepdims=True), np.maximum
        ),
    )
}


def aggregate(name: str, a: Block) -> Block:
    """Apply the aggregation kernel *name* to a single block."""
    kernel = AGGREGATION_KERNELS.get(name)
    if kernel is None:
        raise KeyError(f"unknown aggregation kernel {name!r}")
    return Block(kernel.fn(a.dense_view()))


def aggregate_combine(name: str, a: Block, b: Block) -> Block:
    """Merge two partial aggregation results for kernel *name*."""
    kernel = AGGREGATION_KERNELS.get(name)
    if kernel is None:
        raise KeyError(f"unknown aggregation kernel {name!r}")
    return Block(kernel.combine(a.dense_view(), b.dense_view()))


def aggregate_flops(name: str, a: Block) -> int:
    if name not in AGGREGATION_KERNELS:
        raise KeyError(f"unknown aggregation kernel {name!r}")
    if a.is_sparse:
        return a.nnz
    rows, cols = a.shape
    return rows * cols


# ---------------------------------------------------------------------------
# matrix multiplication and SDDMM
# ---------------------------------------------------------------------------


def matmul(a: Block, b: Block) -> Block:
    """Binary-aggregation kernel ``ba(x)`` on two blocks."""
    if a.shape[1] != b.shape[0]:
        raise MatrixShapeError(
            f"cannot multiply {a.shape} by {b.shape}: inner dimensions differ"
        )
    result = a.data @ b.data
    if sp.issparse(result):
        return Block(result.tocsr())
    return Block(np.asarray(result))


def matmul_flops(a: Block, b: Block) -> int:
    """Multiply-add count for a block multiplication, sparsity-aware."""
    if a.shape[1] != b.shape[0]:
        raise MatrixShapeError(
            f"cannot multiply {a.shape} by {b.shape}: inner dimensions differ"
        )
    n = b.shape[1]
    if a.is_sparse:
        return 2 * a.nnz * n
    if b.is_sparse:
        return 2 * b.nnz * a.shape[0]
    m, k = a.shape
    return 2 * m * k * n


def sddmm(mask: Block, a: Block, b: Block) -> Block:
    """Sampled dense-dense matrix multiplication.

    Computes ``(a @ b)`` only at the non-zero positions of the sparse *mask*
    and returns a CSR block with those values — the kernel behind the paper's
    sparsity exploitation (Figure 1(a) / Outer fusion): for ``(U x V) * X``
    only the cells where ``X`` is non-zero are ever computed.  The result
    shares the index arrays of the mask's :func:`nonzero_pattern`.
    """
    if not mask.is_sparse:
        raise SparsityError("sddmm mask must be a sparse block")
    if a.shape[1] != b.shape[0]:
        raise MatrixShapeError(
            f"cannot multiply {a.shape} by {b.shape}: inner dimensions differ"
        )
    if mask.shape != (a.shape[0], b.shape[1]):
        raise MatrixShapeError(
            f"mask shape {mask.shape} does not match product shape "
            f"{(a.shape[0], b.shape[1])}"
        )
    pattern = nonzero_pattern(mask.data)
    # C-ordered (nnz, K) gathers, as a[rows, :] and b[:, cols].T are: einsum
    # sums in an order its operands' layout sets, so each sum matches theirs
    values = np.einsum(
        "ij,ij->i",
        np.repeat(a.dense_view(), np.diff(pattern.indptr), axis=0),
        np.take(b.dense_view().T, pattern.indices, axis=0),
    )
    return Block(on_pattern(pattern, values))


def sddmm_flops(mask: Block, a: Block, b: Block) -> int:
    """Multiply-add count for SDDMM: ``2 * nnz(mask) * K``."""
    return 2 * mask.nnz * a.shape[1]


def nonzero_pattern(csr: sp.csr_matrix) -> sp.csr_matrix:
    """*csr* with sorted indices, no duplicates and no explicit zeros: *csr*
    itself when it already is, else a canonicalised copy."""
    if csr.has_canonical_format and csr.data.all():
        return csr
    csr = csr.copy()
    csr.sum_duplicates()
    csr.eliminate_zeros()
    return csr


def pattern_rows(pattern: sp.csr_matrix) -> np.ndarray:
    """The row of each stored entry of *pattern*."""
    return np.repeat(np.arange(pattern.shape[0]), np.diff(pattern.indptr))


def on_pattern(pattern: sp.csr_matrix, values: np.ndarray) -> sp.csr_matrix:
    """*values*, one per entry, stored on canonical *pattern*: a shallow copy
    sharing its index arrays and format flags (blocks are immutable)."""
    csr = copy.copy(pattern)
    csr.data = values
    return csr


def nonzero_on_pattern(pattern: sp.csr_matrix, values: np.ndarray) -> Block:
    """:func:`on_pattern` with the exact zeros dropped, as scipy's sparse
    arithmetic drops them (from a copy owning its index arrays)."""
    csr = on_pattern(pattern, values)
    if not values.all():
        csr = csr.copy()
        csr.eliminate_zeros()
    return Block(csr)


def values_on(block: Block, pattern: sp.csr_matrix) -> np.ndarray:
    """*block*'s values at *pattern*'s stored entries, in storage order.  A
    sparse block on another pattern is gathered by one ``searchsorted`` over
    its row-major entry keys, reading 0 where it stores nothing."""
    if block.is_sparse and same_pattern(block.data, pattern):
        return block.data.data
    rows = pattern_rows(pattern)
    if not block.is_sparse:
        return block.data[rows, pattern.indices]
    csr = block.data
    if not csr.has_canonical_format:
        csr = csr.copy()
        csr.sum_duplicates()
    if csr.nnz == 0:
        return np.zeros(rows.size)
    cols = csr.shape[1]
    stored = pattern_rows(csr) * cols + csr.indices
    wanted = rows * cols + pattern.indices
    at = np.minimum(np.searchsorted(stored, wanted), stored.size - 1)
    return np.where(stored[at] == wanted, csr.data[at], 0.0)


def same_pattern(a: sp.csr_matrix, b: sp.csr_matrix) -> bool:
    """Whether *a* and *b* store their entries at the same positions."""
    return all(x is y or np.array_equal(x, y)
               for x, y in ((a.indptr, b.indptr), (a.indices, b.indices)))
