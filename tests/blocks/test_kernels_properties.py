"""Property-based tests (hypothesis) on block kernels.

Invariants checked: representation independence (sparse and dense blocks
yield identical numbers), algebraic identities, and SDDMM's defining
property against full multiplication.
"""

import numpy as np
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from repro.blocks import (
    AGGREGATION_KERNELS,
    BINARY_KERNELS,
    UNARY_KERNELS,
    Block,
    aggregate,
    binary,
    matmul,
    sddmm,
    unary,
)
from repro.blocks.kernels import aggregate_combine

finite = st.floats(min_value=-100, max_value=100, allow_nan=False, width=64)
positive = st.floats(min_value=0.1, max_value=100, allow_nan=False, width=64)


def small_matrix(rows=st.integers(1, 6), cols=st.integers(1, 6), elements=finite):
    return st.tuples(rows, cols).flatmap(
        lambda rc: arrays(np.float64, (rc[0], rc[1]), elements=elements)
    )


def sparsify(arr: np.ndarray) -> np.ndarray:
    """Zero out roughly half the entries deterministically."""
    mask = (np.arange(arr.size).reshape(arr.shape) % 2).astype(bool)
    return arr * mask


@settings(max_examples=60, deadline=None)
@given(small_matrix())
def test_unary_sparse_dense_agree(arr):
    arr = sparsify(arr)
    dense_out = unary("sq", Block(arr)).to_numpy()
    sparse_out = unary("sq", Block(sp.csr_matrix(arr))).to_numpy()
    np.testing.assert_allclose(dense_out, sparse_out)


@settings(max_examples=60, deadline=None)
@given(small_matrix(elements=positive))
def test_binary_mul_sparse_dense_agree(arr):
    masked = sparsify(arr)
    a_dense = binary("mul", Block(masked), Block(arr)).to_numpy()
    a_sparse = binary("mul", Block(sp.csr_matrix(masked)), Block(arr)).to_numpy()
    np.testing.assert_allclose(a_dense, a_sparse)


@settings(max_examples=60, deadline=None)
@given(small_matrix())
def test_add_commutative(arr):
    a, b = Block(arr), Block(arr[::-1].copy())
    np.testing.assert_allclose(
        binary("add", a, b).to_numpy(), binary("add", b, a).to_numpy()
    )


@settings(max_examples=60, deadline=None)
@given(small_matrix())
def test_double_transpose_identity(arr):
    b = Block(arr)
    np.testing.assert_allclose(b.transpose().transpose().to_numpy(), arr)


@settings(max_examples=60, deadline=None)
@given(small_matrix())
def test_neg_involution(arr):
    b = Block(arr)
    np.testing.assert_allclose(unary("neg", unary("neg", b)).to_numpy(), arr)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 5), st.integers(1, 5), st.integers(1, 5),
    st.randoms(use_true_random=False),
)
def test_sddmm_equals_masked_matmul(m, k, n, rnd):
    rng = np.random.default_rng(rnd.randint(0, 2**31))
    a = rng.normal(size=(m, k))
    b = rng.normal(size=(k, n))
    mask = (rng.random((m, n)) < 0.5).astype(float)
    mask_block = Block(sp.csr_matrix(mask))
    expected = (a @ b) * mask
    got = sddmm(mask_block, Block(a), Block(b)).to_numpy()
    np.testing.assert_allclose(got, expected, atol=1e-10)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 4), st.integers(1, 4), st.integers(1, 4),
    st.randoms(use_true_random=False),
)
def test_matmul_matches_numpy(m, k, n, rnd):
    rng = np.random.default_rng(rnd.randint(0, 2**31))
    a = rng.normal(size=(m, k))
    b = rng.normal(size=(k, n))
    np.testing.assert_allclose(
        matmul(Block(a), Block(b)).to_numpy(), a @ b, atol=1e-10
    )


@settings(max_examples=60, deadline=None)
@given(small_matrix(elements=positive), st.floats(0.1, 10))
def test_scalar_div_then_mul_roundtrip(arr, scalar):
    b = Block(arr)
    round_trip = binary("mul", binary("div", b, scalar), scalar).to_numpy()
    np.testing.assert_allclose(round_trip, arr, rtol=1e-9)


# ---------------------------------------------------------------------------
# immutability: cached facts and the aliasing contract
# ---------------------------------------------------------------------------


def _fresh_facts(block: Block) -> tuple[bool, int, int]:
    """``(is_sparse, nnz, nbytes)`` recomputed from the payload alone."""
    rows, cols = block.data.shape
    if sp.issparse(block.data):
        stored = int(block.data.nnz)
        return True, stored, stored * 12 + (rows + 1) * 4
    return False, int(np.count_nonzero(block.data)), rows * cols * 8


@settings(max_examples=60, deadline=None)
@given(small_matrix(), st.booleans(), st.booleans())
def test_cached_facts_equal_fresh_ones(arr, sparse, explicit_zero):
    arr = sparsify(arr)
    if sparse:
        payload = sp.csr_matrix(arr)
        if explicit_zero and payload.nnz:
            payload.data[0] = 0.0  # a stored zero still counts as stored
    else:
        payload = arr
    block = Block(payload)
    for _ in range(2):  # first read computes, second reads the memo
        assert (block.is_sparse, block.nnz, block.nbytes) == _fresh_facts(block)


def _payload_bytes(block: Block) -> tuple:
    data = block.data
    if block.is_sparse:
        return (
            data.shape, data.data.tobytes(), data.indices.tobytes(),
            data.indptr.tobytes(),
        )
    return (data.shape, data.tobytes())


def _both_forms(arr: np.ndarray) -> list[Block]:
    return [Block(arr.copy()), Block(sp.csr_matrix(arr))]


@settings(max_examples=25, deadline=None)
@given(small_matrix(elements=positive))
def test_kernels_never_write_to_their_operands(arr):
    """The aliasing contract ``Block.dense_view`` relies on: kernels read
    dense operands through their own payload, so every kernel — in every
    dense/sparse operand combination — must leave operand payloads
    byte-identical."""
    other = arr[::-1].copy()

    def check(kernel, *operands):
        blocks = [op for op in operands if isinstance(op, Block)]
        before = [_payload_bytes(b) for b in blocks]
        kernel(*operands)
        assert [_payload_bytes(b) for b in blocks] == before

    for a in _both_forms(sparsify(arr)):
        for name in UNARY_KERNELS:
            check(lambda x, name=name: unary(name, x), a)
        for name in AGGREGATION_KERNELS:
            check(lambda x, name=name: aggregate(name, x), a)
            check(
                lambda x, name=name: aggregate_combine(
                    name, aggregate(name, x), aggregate(name, x)
                ),
                a,
            )
        for name in BINARY_KERNELS:
            check(lambda x, name=name: binary(name, x, 2.0), a)
            check(lambda x, name=name: binary(name, 2.0, x), a)
            check(lambda x, name=name: binary(name, x, 0.0), a)
            for b in _both_forms(other):
                check(lambda x, y, name=name: binary(name, x, y), a, b)
        for b in _both_forms(other.T):
            check(matmul, a, b)
            mask = Block(sp.csr_matrix(sparsify(np.ones((arr.shape[0],) * 2))))
            check(sddmm, mask, a, b)


def _with_explicit_zeros(arr: np.ndarray) -> sp.csr_matrix:
    """*arr* as CSR that also stores a zero at every other empty cell."""
    stored = arr != 0
    stored.flat[::2] = True
    rows, cols = np.nonzero(stored)
    return sp.csr_matrix((arr[rows, cols], (rows, cols)), shape=arr.shape)


@settings(max_examples=200, deadline=None)
@given(
    small_matrix(),
    st.sampled_from(sorted(BINARY_KERNELS)),
    st.sampled_from([0.0, 0.5, 2.0, -1.5]),
    st.booleans(),
)
def test_binary_scalar_on_sparse_matches_dense_kernel(arr, name, scalar, left):
    """Every binary kernel with a scalar, on a sparse operand holding
    explicit zeros, gives the dense kernel's values: the sparse fast path
    may only touch stored values where ``fn(0, scalar) == 0``."""
    sparse = Block(_with_explicit_zeros(sparsify(arr)))
    dense = Block(sparse.to_numpy())  # what the sparse block stands for
    operands = (scalar, sparse) if left else (sparse, scalar)
    dense_operands = (scalar, dense) if left else (dense, scalar)
    np.testing.assert_array_equal(
        binary(name, *operands).to_numpy(),
        binary(name, *dense_operands).to_numpy(),
    )
