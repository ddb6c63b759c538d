"""The blocked matrix: a grid of dense/sparse tiles.

``BlockedMatrix`` mirrors the paper's representation of a matrix as an RDD of
``((i, j), block)`` records.  Keys missing from :attr:`BlockedMatrix.blocks`
denote all-zero tiles, so a 0.1%-dense rating matrix does not allocate its
empty regions — this is also what drives the paper's observation that a very
sparse ``X`` repartitions into few partitions (Section 6.2, overall analysis).
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Mapping, Tuple

import numpy as np
import scipy.sparse as sp

from repro.blocks.block import Block
from repro.errors import BlockLayoutError
from repro.matrix.meta import MatrixMeta

BlockKey = Tuple[int, int]


class BlockedMatrix:
    """A matrix stored as a grid of blocks.

    Parameters
    ----------
    meta:
        Shape/blocking metadata.
    blocks:
        Mapping from ``(block_row, block_col)`` to :class:`Block`.  Missing
        keys are implicit zero tiles.
    """

    # weak-referenceable so caches keyed on identity (the slice cache) can
    # drop their entries when the matrix dies instead of pinning it
    __slots__ = ("meta", "blocks", "version", "__weakref__")

    def __init__(self, meta: MatrixMeta, blocks: Mapping[BlockKey, Block] | None = None):
        self.meta = meta
        self.blocks: Dict[BlockKey, Block] = {}
        #: Mutation counter; ``set_block`` bumps it so slice caches keyed on
        #: (identity, version) can never serve slabs of replaced content.
        self.version = 0
        if blocks:
            for key, block in blocks.items():
                self._validate_block(key, block)
                self.blocks[key] = block

    def _validate_block(self, key: BlockKey, block: Block) -> None:
        bi, bj = key
        expected = self.meta.block_dims(bi, bj)
        if block.shape != expected:
            raise BlockLayoutError(
                f"block {key} has shape {block.shape}, expected {expected} "
                f"for a {self.meta.rows}x{self.meta.cols} matrix with block "
                f"size {self.meta.block_size}"
            )

    # -- basic introspection ---------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return self.meta.shape

    @property
    def block_size(self) -> int:
        return self.meta.block_size

    @property
    def block_grid(self) -> tuple[int, int]:
        return self.meta.block_grid

    @property
    def nnz(self) -> int:
        """Exact stored non-zero count."""
        return sum(block.nnz for block in self.blocks.values())

    @property
    def density(self) -> float:
        return self.nnz / self.meta.num_elements

    @property
    def nbytes(self) -> int:
        """Actual stored bytes across all tiles."""
        return sum(block.nbytes for block in self.blocks.values())

    @property
    def num_stored_blocks(self) -> int:
        return len(self.blocks)

    def refreshed_meta(self) -> MatrixMeta:
        """Meta with density recomputed from the actual blocks."""
        return self.meta.with_density(self.density)

    # -- block access ------------------------------------------------------------

    def get_block(self, bi: int, bj: int) -> Block:
        """Tile ``(bi, bj)``, materializing an implicit zero tile if absent."""
        block = self.blocks.get((bi, bj))
        if block is not None:
            return block
        rows, cols = self.meta.block_dims(bi, bj)
        return Block.zeros(rows, cols, sparse=True)

    def set_block(self, bi: int, bj: int, block: Block) -> None:
        self._validate_block((bi, bj), block)
        self.blocks[(bi, bj)] = block
        self.version += 1

    def iter_blocks(self) -> Iterator[tuple[BlockKey, Block]]:
        """Iterate stored (non-zero) tiles in key order."""
        for key in sorted(self.blocks):
            yield key, self.blocks[key]

    def block_keys(self) -> list[BlockKey]:
        return sorted(self.blocks)

    # -- structural operations -----------------------------------------------------

    def transpose(self) -> "BlockedMatrix":
        """Logical transpose: swap grid axes and transpose every tile."""
        result = BlockedMatrix(self.meta.transposed())
        for (bi, bj), block in self.blocks.items():
            result.blocks[(bj, bi)] = block.transpose()
        return result

    def _range_shape(
        self, row_blocks: tuple[int, int], col_blocks: tuple[int, int]
    ) -> tuple[int, int]:
        """Element shape of block rows/cols ``[start, stop)``, validated."""
        r0, r1 = row_blocks
        c0, c1 = col_blocks
        grid_rows, grid_cols = self.meta.block_grid
        if not (0 <= r0 < r1 <= grid_rows and 0 <= c0 < c1 <= grid_cols):
            raise BlockLayoutError(
                f"slice rows {row_blocks} cols {col_blocks} outside grid "
                f"{self.meta.block_grid}"
            )
        size = self.block_size
        return (
            min(r1 * size, self.meta.rows) - r0 * size,
            min(c1 * size, self.meta.cols) - c0 * size,
        )

    def block_slice(
        self,
        row_blocks: tuple[int, int],
        col_blocks: tuple[int, int],
    ) -> "BlockedMatrix":
        """Sub-matrix covering block rows/cols ``[start, stop)``.

        Block indices in the result are re-based to zero and the tiles are
        shared, not copied.  (A task's consolidated working tile comes from
        :meth:`slab`, which never builds this intermediate matrix.)
        """
        rows, cols = self._range_shape(row_blocks, col_blocks)
        r0, r1 = row_blocks
        c0, c1 = col_blocks
        meta = MatrixMeta(
            rows=rows,
            cols=cols,
            block_size=self.block_size,
            density=self.meta.density,
        )
        result = BlockedMatrix(meta)
        for (bi, bj), block in self.blocks.items():
            if r0 <= bi < r1 and c0 <= bj < c1:
                result.blocks[(bi - r0, bj - c0)] = block
        return result

    # -- conversion ------------------------------------------------------------------

    def _stored_in(
        self, r0: int, r1: int, c0: int, c1: int
    ) -> list[tuple[BlockKey, Block]]:
        """Stored tiles of block rows/cols ``[start, stop)``, in key order.

        Probes the requested keys, so a slab of a large matrix does not pay
        for the tiles outside it.
        """
        blocks = self.blocks
        found = []
        for bi in range(r0, r1):
            for bj in range(c0, c1):
                block = blocks.get((bi, bj))
                if block is not None:
                    found.append(((bi, bj), block))
        return found

    def _assemble_dense(
        self,
        tiles: Iterable[tuple[BlockKey, Block]],
        origin: BlockKey,
        shape: tuple[int, int],
    ) -> np.ndarray:
        """*tiles* written into one fresh ndarray whose element (0, 0) is the
        top-left of block *origin*."""
        size = self.block_size
        row0, col0 = origin[0] * size, origin[1] * size
        out = np.zeros(shape)
        for (bi, bj), block in tiles:
            values = block.dense_view()
            r = bi * size - row0
            c = bj * size - col0
            out[r:r + values.shape[0], c:c + values.shape[1]] = values
        return out

    def _assemble_csr(
        self,
        tiles: list[tuple[BlockKey, Block]],
        origin: BlockKey,
        shape: tuple[int, int],
    ) -> sp.csr_matrix:
        """*tiles* (in key order) as one CSR matrix based at block *origin*.

        Joined straight from the tiles' CSR arrays: every tile row is one run
        of entries, and one stable ordering by slab row puts the runs of a
        slab row side by side in key order.  Canonical tiles (sorted columns,
        in disjoint column ranges) therefore give sorted rows, and
        ``sum_duplicates`` only confirms it; a non-canonical tile is sorted
        and summed there, as scipy's coordinate constructor would.
        """
        if not tiles:
            return sp.csr_matrix(shape)
        csrs = [block.to_sparse().data for _, block in tiles]
        heights = np.array([csr.shape[0] for csr in csrs])
        offsets = (np.array([key for key, _ in tiles]) - origin) * self.block_size
        # per tile row: its run length (dropping the differences that straddle
        # two tiles' pointer arrays), and the slab row it lands in
        ptrs = np.concatenate([csr.indptr for csr in csrs])
        runs = np.delete(np.diff(ptrs), np.cumsum(heights + 1)[:-1] - 1)
        firsts = np.cumsum(heights) - heights
        slab_rows = np.arange(len(runs)) + np.repeat(offsets[:, 0] - firsts, heights)
        entry_rows = np.repeat(slab_rows, runs)
        order = np.argsort(entry_rows, kind="stable")
        indices = np.concatenate([csr.indices for csr in csrs])
        indices = indices + np.repeat(np.repeat(offsets[:, 1], heights), runs)
        data = np.concatenate([csr.data for csr in csrs])
        indptr = np.zeros(shape[0] + 1, dtype=np.int64)
        np.cumsum(np.bincount(entry_rows, minlength=shape[0]), out=indptr[1:])
        joined = sp.csr_matrix((data[order], indices[order], indptr), shape=shape)
        joined.sum_duplicates()
        return joined

    def to_numpy(self) -> np.ndarray:
        """Materialize the full matrix as a dense ndarray (tests/small data)."""
        return self._assemble_dense(self.blocks.items(), (0, 0), self.meta.shape)

    def to_scipy(self) -> sp.csr_matrix:
        """Materialize as one CSR matrix."""
        return self._assemble_csr(list(self.iter_blocks()), (0, 0), self.meta.shape)

    def slab(
        self,
        row_blocks: tuple[int, int],
        col_blocks: tuple[int, int],
    ) -> Block:
        """Block rows/cols ``[start, stop)`` consolidated into one
        :class:`Block` — a task-local working tile.

        Goes straight from the block dict to the tile.  The representation
        is whichever is smaller (CSR when the stored tiles total fewer
        bytes than the dense slab), so downstream kernels see the same
        layout a task would actually hold; a range holding no stored tile
        is an empty CSR block.
        """
        rows, cols = shape = self._range_shape(row_blocks, col_blocks)
        tiles = self._stored_in(*row_blocks, *col_blocks)
        if not tiles:
            return Block.zeros(rows, cols, sparse=True)
        origin = (row_blocks[0], col_blocks[0])
        if sum(block.nbytes for _, block in tiles) < rows * cols * 8:
            return Block(self._assemble_csr(tiles, origin, shape))
        return Block(self._assemble_dense(tiles, origin, shape))

    def as_single_block(self) -> Block:
        """The whole matrix as one :class:`Block` (see :meth:`slab`)."""
        grid_rows, grid_cols = self.meta.block_grid
        return self.slab((0, grid_rows), (0, grid_cols))

    # -- comparison --------------------------------------------------------------------

    def allclose(self, other: "BlockedMatrix", rtol: float = 1e-8, atol: float = 1e-8) -> bool:
        """Tile-wise comparison; a key missing on either side is a zero tile.

        Never densifies the whole matrix, so comparing two large sparse
        matrices costs memory proportional to one block, not ``rows*cols``.
        Falls back to a dense compare when block layouts differ.
        """
        if self.shape != other.shape:
            return False
        if self.block_size != other.block_size:
            return np.allclose(self.to_numpy(), other.to_numpy(), rtol=rtol, atol=atol)
        for key in self.blocks.keys() | other.blocks.keys():
            mine = self.blocks.get(key)
            theirs = other.blocks.get(key)
            if mine is None:
                left = np.zeros(self.meta.block_dims(*key))
            else:
                left = mine.to_numpy()
            if theirs is None:
                right = np.zeros(other.meta.block_dims(*key))
            else:
                right = theirs.to_numpy()
            if not np.allclose(left, right, rtol=rtol, atol=atol):
                return False
        return True

    def __repr__(self) -> str:
        rows, cols = self.shape
        return (
            f"BlockedMatrix({rows}x{cols}, block_size={self.block_size}, "
            f"stored_blocks={len(self.blocks)}/{self.meta.num_blocks}, "
            f"nnz={self.nnz})"
        )
