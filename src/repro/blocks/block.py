"""The :class:`Block` container: one tile of a distributed blocked matrix.

A block is the paper's basic unit of computation, communication and memory
accounting.  It wraps either a dense ``numpy.ndarray`` (float64) or a
``scipy.sparse.csr_matrix``; the wrapper normalises dtypes, provides size
estimates used by the cost model (Eq. 3-4 operate on ``size(v)``), and
converts between representations.
"""

from __future__ import annotations

from typing import Union

import numpy as np
import scipy.sparse as sp

from repro.config import ELEMENT_BYTES

ArrayLike = Union[np.ndarray, sp.spmatrix]

#: Per-nonzero cost of the CSR layout: 8-byte value + 4-byte column index,
#: plus the row-pointer array amortised into :meth:`Block.nbytes`.
_CSR_NNZ_BYTES = 12
_CSR_ROWPTR_BYTES = 4

_FLOAT64 = np.dtype(np.float64)


class Block:
    """One dense or sparse tile of a blocked matrix — an immutable value.

    The payload, its representation (``is_sparse``) and the derived facts
    (``nnz``, ``nbytes``) are fixed at construction; kernels are pure and
    return new blocks, so a block (and its payload) may be shared freely
    between tasks, slabs and caches.

    Parameters
    ----------
    data:
        A 2-D ``numpy.ndarray`` or any scipy sparse matrix.  Sparse input is
        converted to CSR; dense input to a C-contiguous float64 array.  A
        payload that is already in that normal form — what every kernel
        produces — is adopted as is, without a copy.  Adoption transfers
        ownership: the block keeps the very ndarray / ``csr_matrix`` object
        it was given and memoises ``nnz``/``nbytes`` from it, so the caller
        must not mutate that object afterwards (pass a copy to keep one).
    """

    __slots__ = ("data", "is_sparse", "_nnz", "_nbytes")

    def __init__(self, data: ArrayLike):
        if type(data) is np.ndarray and data.ndim == 2:
            # the hot path: a no-op for float64 C-contiguous kernel results
            self.data = np.ascontiguousarray(data, _FLOAT64)
            self.is_sparse = False
        elif type(data) is sp.csr_matrix and data.dtype == _FLOAT64:
            self.data = data
            self.is_sparse = True
        elif sp.issparse(data):
            self.data = sp.csr_matrix(data, dtype=np.float64)
            self.is_sparse = True
        else:
            arr = np.asarray(data, dtype=np.float64)
            if arr.ndim == 0:
                arr = arr.reshape(1, 1)
            elif arr.ndim == 1:
                arr = arr.reshape(-1, 1)
            elif arr.ndim != 2:
                raise ValueError(f"a block must be 2-D, got ndim={arr.ndim}")
            self.data = np.ascontiguousarray(arr)
            self.is_sparse = False
        self._nnz = -1
        self._nbytes = -1

    # -- classification ---------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape  # type: ignore[return-value]

    @property
    def nnz(self) -> int:
        """Number of stored non-zero elements (counted once)."""
        nnz = self._nnz
        if nnz < 0:
            if self.is_sparse:
                nnz = int(self.data.nnz)
            else:
                nnz = int(np.count_nonzero(self.data))
            self._nnz = nnz
        return nnz

    @property
    def density(self) -> float:
        rows, cols = self.shape
        total = rows * cols
        return self.nnz / total if total else 0.0

    @property
    def nbytes(self) -> int:
        """Estimated in-memory/on-wire size, as the cost model's ``size(v)``."""
        nbytes = self._nbytes
        if nbytes < 0:
            rows, cols = self.data.shape
            if self.is_sparse:
                nbytes = self.nnz * _CSR_NNZ_BYTES + (rows + 1) * _CSR_ROWPTR_BYTES
            else:
                nbytes = rows * cols * ELEMENT_BYTES
            self._nbytes = nbytes
        return nbytes

    # -- conversions -------------------------------------------------------

    def to_dense(self) -> "Block":
        """Return a dense copy (self if already dense)."""
        if self.is_sparse:
            return Block(np.asarray(self.data.todense()))
        return self

    def to_sparse(self) -> "Block":
        """Return a CSR copy (self if already sparse)."""
        if self.is_sparse:
            return self
        return Block(sp.csr_matrix(self.data))

    def to_numpy(self) -> np.ndarray:
        """Materialize the block as a dense ndarray (always a safe copy)."""
        if self.is_sparse:
            return self.dense_view()  # densifying already made a fresh array
        return self.data.copy()

    def dense_view(self) -> np.ndarray:
        """The dense values without a copy: a dense block's own payload.

        Read-only by contract — the array aliases this (shared, immutable)
        block, so callers may read it and feed it to pure functions but
        must never write to it.  Use :meth:`to_numpy` for an array you own.
        """
        if self.is_sparse:
            return self.data.toarray()
        return self.data

    # -- structural helpers -------------------------------------------------

    def transpose(self) -> "Block":
        """Reorganization kernel ``r(T)``."""
        if self.is_sparse:
            return Block(self.data.transpose().tocsr())
        return Block(np.ascontiguousarray(self.data.T))

    def slice(self, rows: slice, cols: slice) -> "Block":
        """Extract a sub-tile; used when cuboid partitioning splits blocks."""
        return Block(self.data[rows, cols])

    def copy(self) -> "Block":
        return Block(self.data.copy())

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zeros(rows: int, cols: int, sparse: bool = False) -> "Block":
        """An all-zero block, dense or CSR."""
        if sparse:
            return Block(sp.csr_matrix((rows, cols), dtype=np.float64))
        return Block(np.zeros((rows, cols)))

    @staticmethod
    def full(rows: int, cols: int, value: float) -> "Block":
        return Block(np.full((rows, cols), float(value)))

    @staticmethod
    def eye(rows: int, cols: int) -> "Block":
        return Block(np.eye(rows, cols))

    # -- equality / repr ------------------------------------------------------

    def allclose(self, other: "Block", rtol: float = 1e-9, atol: float = 1e-9) -> bool:
        """Numerical equality regardless of representation."""
        if self.shape != other.shape:
            return False
        return np.allclose(self.to_numpy(), other.to_numpy(), rtol=rtol, atol=atol)

    def __repr__(self) -> str:
        kind = "sparse" if self.is_sparse else "dense"
        rows, cols = self.shape
        return f"Block({kind}, {rows}x{cols}, nnz={self.nnz})"
