"""Property-based tests (hypothesis) for the one-pass slab stitch/scatter.

``BlockedMatrix.slab`` goes straight from the block dict to one task-local
tile.  It is held, bit for bit, to the two-step path it replaced —
``block_slice`` (an intermediate matrix with re-based keys) followed by a
whole-matrix consolidation written here as the reference loop: per-block
offsets from the meta, per-block copies, CSR through a COO round trip.
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
