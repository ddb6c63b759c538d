"""Unit tests for the Block container."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.blocks import Block


class TestConstruction:
    def test_dense_from_list(self):
        b = Block([[1.0, 2.0], [3.0, 4.0]])
        assert not b.is_sparse
        assert b.shape == (2, 2)
        assert b.data.dtype == np.float64

    def test_scalar_becomes_1x1(self):
        b = Block(np.float64(5.0))
        assert b.shape == (1, 1)

    def test_vector_becomes_column(self):
        b = Block(np.array([1.0, 2.0, 3.0]))
        assert b.shape == (3, 1)

    def test_3d_rejected(self):
        with pytest.raises(ValueError):
            Block(np.zeros((2, 2, 2)))

    def test_sparse_normalized_to_csr(self):
        b = Block(sp.coo_matrix(np.eye(3)))
        assert b.is_sparse
        assert isinstance(b.data, sp.csr_matrix)

    def test_integer_input_coerced_to_float(self):
        b = Block(np.array([[1, 2], [3, 4]]))
        assert b.data.dtype == np.float64


class TestProperties:
    def test_nnz_dense(self):
        b = Block(np.array([[0.0, 1.0], [2.0, 0.0]]))
        assert b.nnz == 2

    def test_nnz_sparse(self):
        b = Block(sp.csr_matrix(np.array([[0.0, 1.0], [2.0, 0.0]])))
        assert b.nnz == 2

    def test_density(self):
        b = Block(np.array([[0.0, 1.0], [2.0, 0.0]]))
        assert b.density == pytest.approx(0.5)

    def test_dense_nbytes(self):
        b = Block(np.zeros((10, 20)))
        assert b.nbytes == 10 * 20 * 8

    def test_sparse_nbytes_scales_with_nnz(self):
        a = Block(sp.random(50, 50, density=0.02, format="csr", random_state=0))
        b = Block(sp.random(50, 50, density=0.2, format="csr", random_state=0))
        assert a.nbytes < b.nbytes

    def test_empty_block_density_zero(self):
        b = Block.zeros(4, 4, sparse=True)
        assert b.density == 0.0


class TestConversions:
    def test_round_trip_sparse_dense(self):
        arr = np.array([[0.0, 1.5], [2.5, 0.0]])
        b = Block(arr)
        assert b.to_sparse().to_dense().allclose(b)

    def test_to_numpy_is_copy(self):
        arr = np.ones((2, 2))
        b = Block(arr)
        out = b.to_numpy()
        out[0, 0] = 99.0
        assert b.data[0, 0] == 1.0


class TestStructural:
    def test_transpose_dense(self):
        arr = np.arange(6.0).reshape(2, 3)
        assert np.array_equal(Block(arr).transpose().to_numpy(), arr.T)

    def test_transpose_sparse_stays_sparse(self):
        b = Block(sp.eye(3, 4, format="csr"))
        t = b.transpose()
        assert t.is_sparse
        assert t.shape == (4, 3)

    def test_slice(self):
        arr = np.arange(16.0).reshape(4, 4)
        piece = Block(arr).slice(slice(1, 3), slice(0, 2))
        assert np.array_equal(piece.to_numpy(), arr[1:3, 0:2])

    def test_copy_is_independent(self):
        b = Block(np.ones((2, 2)))
        c = b.copy()
        c.data[0, 0] = 7.0
        assert b.data[0, 0] == 1.0

    def test_zeros_and_full_and_eye(self):
        assert Block.zeros(2, 3).to_numpy().sum() == 0.0
        assert Block.full(2, 2, 3.0).to_numpy().sum() == 12.0
        assert np.array_equal(Block.eye(2, 3).to_numpy(), np.eye(2, 3))

    def test_allclose_across_formats(self):
        arr = np.array([[0.0, 2.0], [0.0, 0.0]])
        assert Block(arr).allclose(Block(sp.csr_matrix(arr)))

    def test_allclose_shape_mismatch(self):
        assert not Block(np.zeros((2, 2))).allclose(Block(np.zeros((2, 3))))

    def test_repr_mentions_kind(self):
        assert "dense" in repr(Block(np.ones((2, 2))))
        assert "sparse" in repr(Block(sp.eye(2, format="csr")))


class TestImmutableValue:
    """The facts a block caches are fixed at construction and equal to what
    a fresh computation over its payload gives."""

    def test_normalised_dense_payload_is_adopted_not_copied(self):
        arr = np.arange(6.0).reshape(2, 3)
        assert Block(arr).data is arr

    def test_normalised_csr_payload_is_adopted_not_copied(self):
        csr = sp.random(5, 4, density=0.5, format="csr", dtype=np.float64)
        assert Block(csr).data is csr

    @pytest.mark.parametrize(
        "payload",
        [
            np.arange(6).reshape(2, 3),  # integer dtype
            np.asfortranarray(np.arange(6.0).reshape(2, 3)),
            np.arange(12.0).reshape(3, 4)[:, ::2],  # strided view
            [[1, 2], [3, 4]],
        ],
    )
    def test_other_dense_payloads_are_normalised(self, payload):
        b = Block(payload)
        assert type(b.data) is np.ndarray
        assert b.data.dtype == np.float64 and b.data.flags.c_contiguous
        assert not b.is_sparse
        assert np.array_equal(b.data, np.asarray(payload, dtype=np.float64))

    @pytest.mark.parametrize(
        "payload",
        [
            sp.coo_matrix(np.eye(3)),
            sp.csc_matrix(np.eye(3)),
            sp.csr_matrix(np.eye(3, dtype=np.int64)),
        ],
    )
    def test_other_sparse_payloads_are_normalised(self, payload):
        b = Block(payload)
        assert type(b.data) is sp.csr_matrix and b.data.dtype == np.float64
        assert b.is_sparse
        assert np.array_equal(b.to_numpy(), np.eye(3))

    def test_dense_view_aliases_a_dense_payload(self):
        b = Block(np.ones((2, 2)))
        assert b.dense_view() is b.data

    def test_dense_view_of_sparse_equals_to_numpy(self):
        b = Block(sp.csr_matrix(np.array([[0.0, 2.0], [3.0, 0.0]])))
        view = b.dense_view()
        assert type(view) is np.ndarray
        assert view.tobytes() == b.to_numpy().tobytes()

    def test_to_numpy_stays_a_private_copy(self):
        b = Block(np.ones((2, 2)))
        out = b.to_numpy()
        out[0, 0] = 7.0
        assert b.data[0, 0] == 1.0

    def test_cached_facts_survive_pickling(self):
        import pickle

        for b in (Block(np.eye(3)), Block(sp.eye(3, format="csr"))):
            nnz, nbytes = b.nnz, b.nbytes  # memoise, then ship
            clone = pickle.loads(pickle.dumps(b))
            assert (clone.is_sparse, clone.nnz, clone.nbytes) == (
                b.is_sparse, nnz, nbytes
            )
