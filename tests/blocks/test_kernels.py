"""Unit tests for named block kernels and flop estimators."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.blocks import (
    Block,
    aggregate,
    binary,
    binary_flops,
    matmul,
    matmul_flops,
    sddmm,
    sddmm_flops,
    unary,
    unary_flops,
)
from repro.blocks.kernels import (
    BINARY_KERNELS,
    UNARY_KERNELS,
    aggregate_combine,
    aggregate_flops,
)
from repro.errors import MatrixShapeError, SparsityError


def dense(seed=0, shape=(4, 5)):
    return Block(np.random.default_rng(seed).uniform(0.5, 2.0, shape))


def sparse(seed=0, shape=(4, 5), density=0.3):
    return Block(sp.random(*shape, density=density, format="csr",
                           random_state=seed, data_rvs=lambda n: np.full(n, 1.5)))


class TestUnary:
    @pytest.mark.parametrize("name", sorted(UNARY_KERNELS))
    def test_matches_numpy_on_dense(self, name):
        b = dense()
        with np.errstate(all="ignore"):
            expected = UNARY_KERNELS[name].fn(b.to_numpy())
        np.testing.assert_allclose(unary(name, b).to_numpy(), expected)

    def test_zero_preserving_keeps_sparse(self):
        b = sparse()
        out = unary("sq", b)
        assert out.is_sparse
        np.testing.assert_allclose(out.to_numpy(), b.to_numpy() ** 2)

    def test_non_preserving_densifies(self):
        out = unary("exp", sparse())
        assert not out.is_sparse

    def test_unknown_kernel(self):
        with pytest.raises(KeyError):
            unary("nope", dense())

    def test_flops_dense(self):
        assert unary_flops("log", dense(shape=(3, 7))) == 21

    def test_flops_sparse_zero_preserving(self):
        b = sparse()
        assert unary_flops("sq", b) == b.nnz

    def test_sigmoid_stable_for_large_inputs(self):
        b = Block(np.array([[1000.0, -1000.0]]))
        out = unary("sigmoid", b).to_numpy()
        assert out[0, 0] == pytest.approx(1.0)
        assert out[0, 1] == pytest.approx(0.0)


def masked_sigmoid(x):
    """The former two-branch sigmoid (boolean-mask gather/scatter), kept as
    the oracle the single-pass kernel must reproduce bit for bit."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


class TestSigmoidExact:
    SPECIAL = np.array(
        [0.0, -0.0, np.nan, np.inf, -np.inf, 1e-300, -1e-300, 5e-324,
         -5e-324, 709.0, -709.0, 710.0, -746.0, 36.7, -36.7, 1.0, -1.0]
    )

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("scale", [1e-3, 1.0, 30.0, 800.0])
    def test_bit_identical_on_random_data(self, seed, scale):
        x = np.random.default_rng(seed).normal(0.0, scale, (37, 23))
        with np.errstate(all="ignore"):
            got = UNARY_KERNELS["sigmoid"].fn(x)
            want = masked_sigmoid(x)
        assert np.array_equal(got, want, equal_nan=True)

    def test_bit_identical_on_special_values(self):
        x = np.concatenate([self.SPECIAL, -self.SPECIAL]).reshape(2, -1)
        with np.errstate(all="ignore"):
            got = UNARY_KERNELS["sigmoid"].fn(x)
            want = masked_sigmoid(x)
        assert np.array_equal(got, want, equal_nan=True)
        # the sign of every non-NaN output cell matches too
        numbers = ~np.isnan(want)
        assert np.array_equal(np.signbit(got[numbers]), np.signbit(want[numbers]))

    def test_one_dimensional_and_empty(self):
        for x in (np.linspace(-50, 50, 101), np.empty((0, 3))):
            with np.errstate(all="ignore"):
                got = UNARY_KERNELS["sigmoid"].fn(x)
            assert got.shape == x.shape
            assert np.array_equal(got, masked_sigmoid(x), equal_nan=True)


class TestBinary:
    @pytest.mark.parametrize("name", sorted(BINARY_KERNELS))
    def test_matches_numpy_dense_dense(self, name):
        a, b = dense(1), dense(2)
        with np.errstate(all="ignore"):
            expected = BINARY_KERNELS[name].fn(a.to_numpy(), b.to_numpy())
        np.testing.assert_allclose(binary(name, a, b).to_numpy(), expected)

    def test_scalar_right(self):
        a = dense()
        np.testing.assert_allclose(
            binary("add", a, 2.0).to_numpy(), a.to_numpy() + 2.0
        )

    def test_scalar_left(self):
        a = dense()
        np.testing.assert_allclose(
            binary("sub", 1.0, a).to_numpy(), 1.0 - a.to_numpy()
        )

    def test_sparse_mul_dense_stays_sparse(self):
        a, b = sparse(), dense()
        out = binary("mul", a, b)
        assert out.is_sparse
        np.testing.assert_allclose(out.to_numpy(), a.to_numpy() * b.to_numpy())

    def test_sparse_div_dense_stays_sparse(self):
        a, b = sparse(), dense()
        out = binary("div", a, b)
        assert out.is_sparse
        np.testing.assert_allclose(out.to_numpy(), a.to_numpy() / b.to_numpy())

    @pytest.mark.parametrize("b_sparse", [False, True])
    def test_sparse_pow_reads_the_exponent_at_every_stored_entry(self, b_sparse):
        """An explicitly stored zero on the sparse left is a stored entry
        too: the exponent is read there (it was skipped, and the stored
        values and the exponents no longer lined up)."""
        a = Block(sp.csr_matrix(
            (np.array([2.0, 0.0, 3.0]), np.array([0, 1, 2]), np.array([0, 2, 3])),
            shape=(2, 3),
        ))
        exponents = np.array([[2.0, 3.0, 1.0], [1.0, 2.0, 0.5]])
        b = Block(sp.csr_matrix(exponents) if b_sparse else exponents)
        out = binary("pow", a, b)
        assert out.is_sparse and out.nnz == 3
        np.testing.assert_array_equal(
            out.to_numpy(), [[4.0, 0.0, 0.0], [0.0, 0.0, np.sqrt(3.0)]]
        )

    def test_dense_mul_sparse_stays_sparse(self):
        a, b = dense(), sparse()
        out = binary("mul", a, b)
        assert out.is_sparse
        np.testing.assert_allclose(out.to_numpy(), a.to_numpy() * b.to_numpy())

    def test_sparse_add_sparse(self):
        a, b = sparse(1), sparse(2)
        out = binary("add", a, b)
        assert out.is_sparse
        np.testing.assert_allclose(out.to_numpy(), a.to_numpy() + b.to_numpy())

    def test_neq_zero_mask_on_sparse(self):
        a = sparse()
        out = binary("neq", a, 0.0)
        assert out.is_sparse
        np.testing.assert_allclose(
            out.to_numpy(), (a.to_numpy() != 0).astype(float)
        )

    def test_sparse_scalar_mul_preserves_format(self):
        out = binary("mul", sparse(), 3.0)
        assert out.is_sparse

    def test_shape_mismatch(self):
        with pytest.raises(MatrixShapeError):
            binary("add", dense(shape=(2, 2)), dense(shape=(2, 3)))

    def test_both_scalars_rejected(self):
        with pytest.raises(TypeError):
            binary("add", 1.0, 2.0)

    def test_flops_sparse_left(self):
        a = sparse()
        assert binary_flops("mul", a, dense()) == a.nnz

    def test_flops_dense(self):
        assert binary_flops("add", dense(shape=(3, 3)), dense(shape=(3, 3))) == 9

    def test_pow_sparse_left_dense_right(self):
        a, b = sparse(), Block(np.full((4, 5), 2.0))
        out = binary("pow", a, b)
        assert out.is_sparse
        np.testing.assert_allclose(out.to_numpy(), a.to_numpy() ** 2)


class TestAggregation:
    def test_sum(self):
        b = dense()
        assert aggregate("sum", b).to_numpy()[0, 0] == pytest.approx(
            b.to_numpy().sum()
        )

    def test_rowsum_shape_and_values(self):
        b = dense(shape=(4, 6))
        out = aggregate("rowSum", b)
        assert out.shape == (4, 1)
        np.testing.assert_allclose(
            out.to_numpy(), b.to_numpy().sum(axis=1, keepdims=True)
        )

    def test_colsum(self):
        b = dense(shape=(4, 6))
        np.testing.assert_allclose(
            aggregate("colSum", b).to_numpy(),
            b.to_numpy().sum(axis=0, keepdims=True),
        )

    def test_min_max(self):
        b = dense()
        assert aggregate("min", b).to_numpy()[0, 0] == b.to_numpy().min()
        assert aggregate("max", b).to_numpy()[0, 0] == b.to_numpy().max()

    def test_combine_sum_partials(self):
        a, b = dense(1), dense(2)
        merged = aggregate_combine(
            "sum", aggregate("sum", a), aggregate("sum", b)
        )
        assert merged.to_numpy()[0, 0] == pytest.approx(
            a.to_numpy().sum() + b.to_numpy().sum()
        )

    def test_combine_max_partials(self):
        a, b = dense(1), dense(2)
        merged = aggregate_combine(
            "max", aggregate("max", a), aggregate("max", b)
        )
        assert merged.to_numpy()[0, 0] == max(
            a.to_numpy().max(), b.to_numpy().max()
        )

    def test_flops_sparse(self):
        b = sparse()
        assert aggregate_flops("sum", b) == b.nnz

    def test_unknown(self):
        with pytest.raises(KeyError):
            aggregate("median", dense())


class TestMatMul:
    def test_dense_dense(self):
        a, b = dense(1, (3, 4)), dense(2, (4, 5))
        np.testing.assert_allclose(
            matmul(a, b).to_numpy(), a.to_numpy() @ b.to_numpy()
        )

    def test_sparse_dense(self):
        a, b = sparse(1, (3, 4), 0.5), dense(2, (4, 5))
        np.testing.assert_allclose(
            matmul(a, b).to_numpy(), a.to_numpy() @ b.to_numpy()
        )

    def test_sparse_sparse_stays_sparse(self):
        a, b = sparse(1, (4, 4), 0.3), sparse(2, (4, 4), 0.3)
        out = matmul(a, b)
        assert out.is_sparse
        np.testing.assert_allclose(out.to_numpy(), a.to_numpy() @ b.to_numpy())

    def test_shape_mismatch(self):
        with pytest.raises(MatrixShapeError):
            matmul(dense(shape=(2, 3)), dense(shape=(2, 3)))

    def test_flops_dense(self):
        assert matmul_flops(dense(shape=(2, 3)), dense(shape=(3, 4))) == 2 * 2 * 3 * 4

    def test_flops_sparse_left(self):
        a = sparse(shape=(4, 4), density=0.25)
        assert matmul_flops(a, dense(shape=(4, 5))) == 2 * a.nnz * 5


class TestSDDMM:
    def test_matches_masked_product(self):
        mask = sparse(3, (4, 6), 0.3)
        a, b = dense(1, (4, 5)), dense(2, (5, 6))
        out = sddmm(mask, a, b)
        assert out.is_sparse
        expected = (a.to_numpy() @ b.to_numpy()) * (mask.to_numpy() != 0)
        np.testing.assert_allclose(out.to_numpy(), expected)

    def test_empty_mask(self):
        mask = Block.zeros(4, 6, sparse=True)
        out = sddmm(mask, dense(1, (4, 5)), dense(2, (5, 6)))
        assert out.nnz == 0

    def test_dense_mask_rejected(self):
        with pytest.raises(SparsityError):
            sddmm(dense(shape=(4, 6)), dense(1, (4, 5)), dense(2, (5, 6)))

    def test_mask_shape_mismatch(self):
        with pytest.raises(MatrixShapeError):
            sddmm(sparse(shape=(3, 3)), dense(1, (4, 5)), dense(2, (5, 6)))

    def test_flops_proportional_to_nnz(self):
        mask = sparse(3, (4, 6), 0.3)
        assert sddmm_flops(mask, dense(1, (4, 5)), dense(2, (5, 6))) == 2 * mask.nnz * 5
