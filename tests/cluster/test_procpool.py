"""Unit tests for the process-pool substrate (`repro.cluster.procpool`).

Pool mechanics (spawn workers, ordering, error vs crash, bounded respawn,
pool-broken salvage) and the shared-memory block store (dense + sparse
round trips, zero-copy refs, spill fallback, lifecycle).
"""

import os

import numpy as np
import pytest
import scipy.sparse as sp

from repro.cluster.procpool import (
    PoolBrokenError,
    ProcessPool,
    SharedBlockStore,
    open_matrix,
    write_matrix,
)
from repro.cluster.procpool.testing import (
    crash_once_task,
    crash_task,
    double_task,
    echo_task,
    fail_task,
)
from repro.matrix import rand_dense, rand_sparse


@pytest.fixture(scope="module")
def pool():
    """One persistent pool for the fast-path tests (spawn cost amortized)."""
    with ProcessPool(2) as pool:
        yield pool


class TestProcessPool:
    def test_results_in_submission_order(self, pool):
        outs = pool.run_tasks([(double_task, i) for i in range(7)])
        assert [o.value for o in outs] == [0, 2, 4, 6, 8, 10, 12]
        assert [o.index for o in outs] == list(range(7))

    def test_empty_batch(self, pool):
        assert pool.run_tasks([]) == []

    def test_pool_is_lazy(self):
        pool = ProcessPool(2)
        assert not pool.started
        pool.close()

    def test_task_error_is_reported_not_raised(self, pool):
        outs = pool.run_tasks(
            [(double_task, 1), (fail_task, "boom"), (echo_task, "z")]
        )
        assert outs[0].value == 2
        assert isinstance(outs[1].error, ValueError)
        assert "boom" in str(outs[1].error)
        assert outs[2].value == "z"

    def test_outcomes_carry_timing(self, pool):
        (out,) = pool.run_tasks([(double_task, 3)])
        assert out.worker_id in (0, 1)
        assert out.completed_at >= out.submitted_at

    def test_nonpositive_width_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            ProcessPool(0)

    def test_crash_respawns_and_retries(self, tmp_path):
        marker = str(tmp_path / "crash-marker")
        with ProcessPool(2) as pool:
            outs = pool.run_tasks(
                [(double_task, 5), (crash_once_task, marker)]
            )
            assert [o.value for o in outs] == [10, "recovered"]
            assert pool.stats.respawns == 1
            assert os.path.exists(marker)
            # the pool survives and keeps serving batches
            outs = pool.run_tasks([(echo_task, "still-alive")])
            assert outs[0].value == "still-alive"

    def test_persistent_crash_breaks_pool_with_salvage(self):
        with ProcessPool(2) as pool:
            with pytest.raises(PoolBrokenError) as info:
                pool.run_tasks([(crash_task, {}), (double_task, 4)])
            salvaged = info.value.completed
            assert salvaged and salvaged[1].value == 8
            assert pool.broken
            # a broken pool refuses new batches
            with pytest.raises(PoolBrokenError):
                pool.run_tasks([(echo_task, 1)])

    def test_stats_accumulate(self, pool):
        before = pool.stats.tasks
        pool.run_tasks([(echo_task, i) for i in range(3)])
        assert pool.stats.tasks == before + 3
        assert pool.stats.as_dict()["workers"] == 2


class TestSharedBlockStore:
    def test_dense_roundtrip_is_bit_identical(self):
        matrix = rand_dense(30, 20, 10, seed=3)
        with SharedBlockStore() as store:
            ref = store.register(matrix)
            rebuilt, close = open_matrix(ref)
            try:
                assert (
                    rebuilt.to_numpy().tobytes() == matrix.to_numpy().tobytes()
                )
                assert rebuilt.version == matrix.version
            finally:
                close()

    def test_sparse_roundtrip_keeps_csr(self):
        matrix = rand_sparse(40, 30, density=0.2, block_size=10, seed=4)
        with SharedBlockStore() as store:
            rebuilt, close = open_matrix(store.register(matrix))
            try:
                for (key, block), (key2, block2) in zip(
                    matrix.iter_blocks(), rebuilt.iter_blocks()
                ):
                    assert key == key2
                    if block.is_sparse:
                        assert block2.is_sparse
                        assert sp.issparse(block2.data)
                    got = (
                        block2.data.toarray()
                        if block2.is_sparse else block2.data
                    )
                    want = (
                        block.data.toarray() if block.is_sparse else block.data
                    )
                    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
            finally:
                close()

    def test_unpacked_blocks_are_whole_blocks_over_zero_copy_views(self):
        """Unpacking goes through ``Block.__init__``: the cached facts of
        every rebuilt block equal the original's, while dense payloads and
        CSR arrays stay read-only views into the segment (no copy)."""
        dense = rand_dense(30, 20, 10, seed=3)
        sparse = rand_sparse(40, 30, density=0.2, block_size=10, seed=4)
        with SharedBlockStore() as store:
            for matrix in (dense, sparse):
                ref = store.register(matrix)
                rebuilt, close = open_matrix(ref)
                try:
                    assert rebuilt.blocks.keys() == matrix.blocks.keys()
                    for key, original in matrix.blocks.items():
                        block = rebuilt.blocks[key]
                        assert block.is_sparse == original.is_sparse
                        assert block.nnz == original.nnz
                        assert block.nbytes == original.nbytes
                        assert block.shape == original.shape
                        arrays = (
                            (block.data.data, block.data.indices,
                             block.data.indptr)
                            if block.is_sparse else (block.data,)
                        )
                        for arr in arrays:
                            assert not arr.flags.writeable
                            assert not arr.flags.owndata
                    assert rebuilt.nbytes == matrix.nbytes
                finally:
                    close()

    def test_views_are_read_only(self):
        matrix = rand_dense(10, 10, 10, seed=5)
        with SharedBlockStore() as store:
            rebuilt, close = open_matrix(store.register(matrix))
            try:
                block = next(iter(rebuilt.blocks.values()))
                with pytest.raises(ValueError):
                    block.data[0, 0] = 99.0
            finally:
                close()

    def test_register_dedups_by_identity_and_version(self):
        matrix = rand_dense(10, 10, 10, seed=6)
        with SharedBlockStore() as store:
            ref1 = store.register(matrix)
            ref2 = store.register(matrix)
            assert ref1 is ref2

    def test_spill_fallback_to_files(self):
        matrix = rand_dense(10, 10, 10, seed=7)
        with SharedBlockStore(prefer_shm=False) as store:
            ref = store.register(matrix)
            assert ref.segment.kind == "file"
            rebuilt, close = open_matrix(ref)
            try:
                assert (
                    rebuilt.to_numpy().tobytes() == matrix.to_numpy().tobytes()
                )
            finally:
                close()

    def test_write_matrix_then_adopt(self, tmp_path):
        matrix = rand_dense(20, 20, 10, seed=8)
        ref = write_matrix(matrix, str(tmp_path))
        store = SharedBlockStore()
        try:
            adopted = store.adopt(ref)
            assert store.owns(adopted)
            assert adopted.to_numpy().tobytes() == matrix.to_numpy().tobytes()
            copied = store.detach_copy(adopted)
            assert not store.owns(copied)
        finally:
            store.close()
        # the detached copy survives segment unlinking
        assert copied.to_numpy().tobytes() == matrix.to_numpy().tobytes()

    def test_close_removes_spill_directory(self):
        store = SharedBlockStore(prefer_shm=False)
        store.register(rand_dense(10, 10, 10, seed=9))
        directory = store.directory
        assert os.path.isdir(directory)
        store.close()
        assert not os.path.exists(directory)

    def test_release_unlinks_file_segment(self, tmp_path):
        matrix = rand_dense(10, 10, 10, seed=10)
        ref = write_matrix(matrix, str(tmp_path))
        store = SharedBlockStore()
        try:
            adopted = store.adopt(ref)
            assert os.path.exists(ref.segment.name)
            store.release(adopted)
            assert not os.path.exists(ref.segment.name)
        finally:
            store.close()
