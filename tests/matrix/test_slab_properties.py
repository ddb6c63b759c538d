"""Property-based tests (hypothesis) for the one-pass slab stitch/scatter.

``BlockedMatrix.slab`` goes straight from the block dict to one task-local
tile.  It is held, bit for bit, to the two-step path it replaced —
``block_slice`` (an intermediate matrix with re-based keys) followed by a
whole-matrix consolidation written here as the reference loop: per-block
offsets from the meta, per-block copies, CSR through a COO round trip.

The sparse join itself (``_assemble_csr``, behind ``slab`` and ``to_scipy``)
is held to the COO join it replaced, kept here as :class:`CooJoined`, on
tiles the engine's own kernels rarely make: explicit zeros, unsorted and
duplicate column indices, empty CSR tiles, and dense tiles in a CSR slab.
"""

import numpy as np
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from repro.blocks import Block
from repro.core.stages import _scatter_tile
from repro.matrix import BlockedMatrix, MatrixMeta


@st.composite
def blocked_matrices(draw):
    """A matrix with ragged edges whose tiles are dense, CSR or missing."""
    size = draw(st.integers(1, 4))
    rows = draw(st.integers(1, 3 * size + 2))
    cols = draw(st.integers(1, 3 * size + 2))
    meta = MatrixMeta(rows, cols, size)
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    density = draw(st.sampled_from([0.1, 0.5, 1.0]))
    matrix = BlockedMatrix(meta)
    grid_rows, grid_cols = meta.block_grid
    for bi in range(grid_rows):
        for bj in range(grid_cols):
            kind = draw(st.sampled_from(["dense", "csr", "missing"]))
            if kind == "missing":
                continue
            values = rng.normal(size=meta.block_dims(bi, bj))
            # (not ``values * mask``: that leaves -0.0, which CSR drops)
            values = np.where(rng.random(values.shape) < density, values, 0.0)
            matrix.set_block(
                bi, bj, Block(values if kind == "dense" else sp.csr_matrix(values))
            )
    return matrix


@st.composite
def matrices_and_ranges(draw):
    matrix = draw(blocked_matrices())
    grid_rows, grid_cols = matrix.block_grid
    r0 = draw(st.integers(0, grid_rows - 1))
    r1 = draw(st.integers(r0 + 1, grid_rows))
    c0 = draw(st.integers(0, grid_cols - 1))
    c1 = draw(st.integers(c0 + 1, grid_cols))
    return matrix, (r0, r1), (c0, c1)


def reference_single_block(matrix: BlockedMatrix) -> Block:
    """The whole-matrix consolidation as it was before ``slab``."""
    meta = matrix.meta
    rows, cols = meta.shape
    if not matrix.blocks:
        return Block.zeros(rows, cols, sparse=True)
    if sum(b.nbytes for b in matrix.blocks.values()) < rows * cols * 8:
        parts = []
        for (bi, bj), block in matrix.iter_blocks():
            coo = block.to_sparse().data.tocoo()
            parts.append((
                coo.row + meta.block_row_range(bi)[0],
                coo.col + meta.block_col_range(bj)[0],
                coo.data,
            ))
        return Block(sp.csr_matrix(
            (
                np.concatenate([p[2] for p in parts]),
                (
                    np.concatenate([p[0] for p in parts]),
                    np.concatenate([p[1] for p in parts]),
                ),
            ),
            shape=meta.shape,
        ))
    out = np.zeros(meta.shape)
    for (bi, bj), block in matrix.blocks.items():
        r0, r1 = meta.block_row_range(bi)
        c0, c1 = meta.block_col_range(bj)
        out[r0:r1, c0:c1] = block.to_numpy()
    return Block(out)


def assert_same_block(got: Block, want: Block) -> None:
    """Same representation, same ``nbytes``, same payload bytes."""
    assert got.is_sparse == want.is_sparse
    assert got.shape == want.shape
    assert got.nbytes == want.nbytes
    if want.is_sparse:
        for part in ("data", "indices", "indptr"):
            got_part = getattr(got.data, part)
            want_part = getattr(want.data, part)
            assert got_part.dtype == want_part.dtype
            assert got_part.tobytes() == want_part.tobytes()
    else:
        assert got.data.tobytes() == want.data.tobytes()


class CooJoined(BlockedMatrix):
    """The same tiles, joined into CSR the old way: one COO matrix per tile,
    then a coordinates -> CSR build over all of them."""

    __slots__ = ()

    def _assemble_csr(self, tiles, origin, shape):
        size = self.block_size
        row0, col0 = origin[0] * size, origin[1] * size
        parts = []
        for (bi, bj), block in tiles:
            coo = block.to_sparse().data.tocoo()
            parts.append(
                (coo.row + (bi * size - row0), coo.col + (bj * size - col0), coo.data)
            )
        if not parts:
            return sp.csr_matrix(shape)
        rows = np.concatenate([p[0] for p in parts])
        cols = np.concatenate([p[1] for p in parts])
        data = np.concatenate([p[2] for p in parts])
        return sp.csr_matrix((data, (rows, cols)), shape=shape)


def raw_csr(rng, values, kind):
    """*values* as a CSR payload adopted as is: canonical, with explicit
    zeros, with each row's entries shuffled, with duplicate entries, or empty."""
    if kind == "empty":
        return sp.csr_matrix(values.shape)
    keep = values != 0 if kind != "zeros" else rng.random(values.shape) < 0.7
    indptr = np.concatenate([[0], np.cumsum(keep.sum(axis=1))])
    indices = np.nonzero(keep)[1]
    data = values[keep]
    if kind == "unsorted":
        for r in range(values.shape[0]):
            run = slice(indptr[r], indptr[r + 1])
            perm = rng.permutation(indptr[r + 1] - indptr[r])
            indices[run], data[run] = indices[run][perm], data[run][perm]
    if kind == "duplicates" and len(data):
        # two entries that cancel go in front of the first stored one, so
        # the stored sum depends on the order the duplicates are added in
        indices = np.concatenate([indices[:1], indices[:1], indices])
        data = np.concatenate([data[:1] * 1e8, data[:1] * -1e8, data])
        indptr = indptr + 2 * (indptr > 0)
    return sp.csr_matrix((data, indices, indptr), shape=values.shape)


@st.composite
def raw_tile_matrices(draw):
    """A ragged-edged matrix whose tiles are any mix of the above, dense
    tiles and missing tiles, with a block range to cut."""
    size = draw(st.integers(1, 5))
    meta = MatrixMeta(
        draw(st.integers(1, 4 * size + 3)), draw(st.integers(1, 4 * size + 3)), size
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    density = draw(st.sampled_from([0.05, 0.3, 1.0]))
    kinds = ["missing", "dense", "csr", "zeros", "unsorted", "duplicates", "empty"]
    matrix = BlockedMatrix(meta)
    grid_rows, grid_cols = meta.block_grid
    for bi in range(grid_rows):
        for bj in range(grid_cols):
            kind = draw(st.sampled_from(kinds))
            if kind == "missing":
                continue
            values = rng.normal(size=meta.block_dims(bi, bj))
            values = np.where(rng.random(values.shape) < density, values, 0.0)
            payload = values if kind == "dense" else raw_csr(rng, values, kind)
            matrix.set_block(bi, bj, Block(payload))
    r0 = draw(st.integers(0, grid_rows - 1))
    c0 = draw(st.integers(0, grid_cols - 1))
    rows = (r0, draw(st.integers(r0 + 1, grid_rows)))
    cols = (c0, draw(st.integers(c0 + 1, grid_cols)))
    return matrix, rows, cols


def assert_same_csr(got, want) -> None:
    """Bit-identical CSR arrays, dtypes included."""
    assert type(got) is type(want) is sp.csr_matrix
    assert got.shape == want.shape
    for part in ("data", "indices", "indptr"):
        got_part, want_part = getattr(got, part), getattr(want, part)
        assert got_part.dtype == want_part.dtype, part
        assert got_part.tobytes() == want_part.tobytes(), part


@settings(max_examples=300, deadline=None)
@given(raw_tile_matrices())
def test_csr_join_equals_the_coo_join(case):
    matrix, row_range, col_range = case
    oracle = CooJoined(matrix.meta, matrix.blocks)
    assert_same_block(
        matrix.slab(row_range, col_range), oracle.slab(row_range, col_range)
    )
    assert_same_csr(matrix.to_scipy(), oracle.to_scipy())
    assert_same_block(matrix.as_single_block(), oracle.as_single_block())


def test_csr_join_of_empty_ranges_and_matrices():
    meta = MatrixMeta(7, 9, 3)
    matrix = BlockedMatrix(meta, {(2, 1): Block(sp.csr_matrix((1, 3)))})
    oracle = CooJoined(meta, matrix.blocks)
    # a range with no stored tile, one with only an empty CSR tile
    for rows, cols in (((0, 2), (0, 3)), ((1, 3), (1, 2)), ((0, 3), (0, 3))):
        assert_same_block(matrix.slab(rows, cols), oracle.slab(rows, cols))
    assert_same_csr(matrix.to_scipy(), oracle.to_scipy())
    assert_same_csr(BlockedMatrix(meta).to_scipy(), CooJoined(meta).to_scipy())


@settings(max_examples=150, deadline=None)
@given(matrices_and_ranges())
def test_slab_equals_block_slice_then_consolidation(case):
    matrix, row_range, col_range = case
    sliced = matrix.block_slice(row_range, col_range)
    want = reference_single_block(sliced)
    assert_same_block(matrix.slab(row_range, col_range), want)
    assert_same_block(sliced.as_single_block(), want)


@settings(max_examples=60, deadline=None)
@given(blocked_matrices())
def test_whole_matrix_conversions_match_the_reference(matrix):
    assert_same_block(matrix.as_single_block(), reference_single_block(matrix))
    dense = np.zeros(matrix.shape)
    for (bi, bj), block in matrix.blocks.items():
        r0, r1 = matrix.meta.block_row_range(bi)
        c0, c1 = matrix.meta.block_col_range(bj)
        dense[r0:r1, c0:c1] = block.to_numpy()
    assert matrix.to_numpy().tobytes() == dense.tobytes()
    assert matrix.to_scipy().toarray().tobytes() == dense.tobytes()


@settings(max_examples=60, deadline=None)
@given(blocked_matrices())
def test_slab_never_writes_to_the_stored_tiles(matrix):
    before = {key: block.to_numpy().tobytes() for key, block in matrix.blocks.items()}
    grid_rows, grid_cols = matrix.block_grid
    slab = matrix.slab((0, grid_rows), (0, grid_cols))
    if not slab.is_sparse:
        # a dense slab is a fresh array, not an alias of any tile
        for block in matrix.blocks.values():
            if not block.is_sparse:
                assert not np.shares_memory(slab.data, block.data)
    after = {key: block.to_numpy().tobytes() for key, block in matrix.blocks.items()}
    assert after == before


@settings(max_examples=100, deadline=None)
@given(
    blocked_matrices(),
    st.integers(1, 3),
    st.integers(1, 3),
    st.booleans(),
)
def test_scatter_then_slab_round_trips_a_tile(matrix, p, q, sparse_tiles):
    """Cut the matrix into up to ``p x q`` block-aligned task tiles, scatter
    them into an empty matrix, and stitch the full grid back: every value
    returns exactly, and only non-zero blocks are stored."""
    values = matrix.to_numpy()
    meta = matrix.meta
    grid_rows, grid_cols = meta.block_grid
    size = meta.block_size
    result = BlockedMatrix(meta)
    row_cuts = np.linspace(0, grid_rows, min(p, grid_rows) + 1).astype(int) * size
    col_cuts = np.linspace(0, grid_cols, min(q, grid_cols) + 1).astype(int) * size
    for r0, r1 in zip(row_cuts[:-1], row_cuts[1:]):
        for c0, c1 in zip(col_cuts[:-1], col_cuts[1:]):
            tile = values[r0:min(r1, meta.rows), c0:min(c1, meta.cols)]
            _scatter_tile(
                result,
                Block(sp.csr_matrix(tile) if sparse_tiles else tile),
                int(r0),
                int(c0),
            )
    stitched = result.slab((0, grid_rows), (0, grid_cols))
    assert stitched.to_numpy().tobytes() == values.tobytes()
    assert result.to_numpy().tobytes() == values.tobytes()
    for (bi, bj), block in result.blocks.items():
        assert block.shape == meta.block_dims(bi, bj)
        assert block.nnz > 0
    assert result.nnz == np.count_nonzero(values)
