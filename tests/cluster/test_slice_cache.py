"""SliceCache: sharing, version invalidation, eviction, correctness."""

import gc
import sys
import threading
import time
import weakref

import numpy as np

from repro import FuseMEEngine
from repro.blocks.block import Block
from repro.cluster.slice_cache import SliceCache
from repro.lang import matrix_input
from repro.matrix import rand_dense

from tests.conftest import make_config

BS = 25


def matrix(seed=1, n=100):
    return rand_dense(n, n, BS, seed=seed)


class TestSharing:
    def test_same_range_is_materialized_once(self):
        cache = SliceCache()
        m = matrix()
        first = cache.get(m, (0, 2), (0, 2))
        second = cache.get(m, (0, 2), (0, 2))
        assert second is first
        assert cache.hits == 1 and cache.misses == 1

    def test_distinct_ranges_are_distinct_entries(self):
        cache = SliceCache()
        m = matrix()
        a = cache.get(m, (0, 2), (0, 2))
        b = cache.get(m, (2, 4), (0, 2))
        assert a is not b
        assert cache.num_entries == 2

    def test_slab_content_matches_direct_materialization(self):
        cache = SliceCache()
        m = matrix()
        slab = cache.get(m, (1, 3), (0, 4))
        direct = m.block_slice((1, 3), (0, 4)).as_single_block()
        assert np.array_equal(slab.to_numpy(), direct.to_numpy())


class TestVersionInvalidation:
    def test_set_block_invalidates_cached_slabs(self):
        """Mutating a matrix must never serve the stale materialization."""
        cache = SliceCache()
        m = matrix()
        stale = cache.get(m, (0, 2), (0, 2))

        m.set_block(0, 0, Block(np.full((BS, BS), 9.0)))

        fresh = cache.get(m, (0, 2), (0, 2))
        assert fresh is not stale
        assert cache.hits == 0 and cache.misses == 2
        assert fresh.to_numpy()[0, 0] == 9.0
        assert stale.to_numpy()[0, 0] != 9.0  # old slab untouched

    def test_unmutated_version_still_hits(self):
        cache = SliceCache()
        m = matrix()
        version = m.version
        cache.get(m, (0, 2), (0, 2))
        cache.get(m, (0, 2), (0, 2))
        assert m.version == version
        assert cache.hits == 1

    def test_engine_level_regression(self):
        """set_block between executes flows through to fresh results."""
        engine = FuseMEEngine(make_config())
        m = matrix(n=50)
        query = matrix_input("X", 50, 50, BS) * 1.0
        before = engine.execute(query, {"X": m}).output(0).to_numpy()
        m.set_block(0, 0, Block(np.full((BS, BS), 3.5)))
        after = engine.execute(query, {"X": m}).output(0).to_numpy()
        assert not np.array_equal(before, after)
        assert np.all(after[:BS, :BS] == 3.5)


class TestDisabledAndEviction:
    def test_lru_eviction_respects_max_bytes(self):
        m = matrix()
        slab_bytes = m.block_slice((0, 1), (0, 1)).as_single_block().nbytes
        cache = SliceCache(max_bytes=2 * slab_bytes)
        cache.get(m, (0, 1), (0, 1))
        cache.get(m, (1, 2), (0, 1))
        cache.get(m, (2, 3), (0, 1))  # evicts the (0,1) entry
        assert cache.num_entries == 2
        assert cache.cached_bytes <= 2 * slab_bytes
        cache.get(m, (0, 1), (0, 1))
        assert cache.misses == 4  # re-materialized after eviction

    def test_reset_clears_entries_and_counters(self):
        cache = SliceCache()
        cache.get(matrix(), (0, 1), (0, 1))
        cache.clear()
        assert cache.num_entries == 0
        assert cache.hits == 0 and cache.misses == 0
        assert cache.cached_bytes == 0

    def test_stats_dict(self):
        cache = SliceCache()
        m = matrix()
        cache.get(m, (0, 1), (0, 1))
        cache.get(m, (0, 1), (0, 1))
        stats = cache.stats()
        assert stats["entries"] == 1
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["hit_rate"] == 0.5
        assert stats["bytes"] == cache.cached_bytes


class TestSourceMatrixLifetime:
    """Slabs live exactly as long as the matrix they were cut from."""

    def test_entries_do_not_pin_their_source_matrix(self):
        cache = SliceCache()
        m = matrix()
        cache.get(m, (0, 2), (0, 2))
        alive = weakref.ref(m)
        del m
        gc.collect()
        assert alive() is None

    def test_dead_matrix_slabs_are_dropped_at_the_next_lookup(self):
        cache = SliceCache()
        dead, live = matrix(seed=1), matrix(seed=2)
        cache.get(dead, (0, 2), (0, 2))
        cache.get(dead, (2, 4), (0, 2))
        del dead
        gc.collect()
        slab = cache.get(live, (0, 1), (0, 1))
        assert cache.num_entries == 1
        assert cache.cached_bytes == slab.nbytes
        assert cache.hits == 0 and cache.misses == 3  # counters untouched

    def test_stats_do_not_report_dead_slabs(self):
        cache = SliceCache()
        cache.get(matrix(), (0, 1), (0, 1))  # the matrix dies right here
        gc.collect()
        stats = cache.stats()
        assert stats["entries"] == 0 and stats["bytes"] == 0

    def test_recycled_identity_is_never_served_stale_content(self):
        """``id()`` of a dead matrix is free for the next one; a slab must
        still always be the content of the matrix that was asked for."""
        cache = SliceCache()
        seen_ids = set()
        for seed in range(60):
            m = matrix(seed=seed, n=50)
            seen_ids.add(id(m))
            slab = cache.get(m, (0, 2), (0, 2))
            assert np.array_equal(slab.to_numpy(), m.to_numpy())
            assert cache.num_entries == 1  # the previous matrix is gone
            del m, slab
        assert cache.hits == 0 and cache.misses == 60
        assert len(seen_ids) < 60  # identities really were recycled

    def test_eviction_and_death_keep_the_byte_ledger_exact(self):
        m, other = matrix(seed=1), matrix(seed=2)
        slab_bytes = m.slab((0, 1), (0, 1)).nbytes
        cache = SliceCache(max_bytes=2 * slab_bytes)
        cache.get(m, (0, 1), (0, 1))
        cache.get(other, (0, 1), (0, 1))
        cache.get(m, (1, 2), (0, 1))  # evicts m's first slab
        assert cache.cached_bytes == 2 * slab_bytes
        del m
        gc.collect()
        cache.get(other, (0, 1), (0, 1))
        assert cache.num_entries == 1 and cache.cached_bytes == slab_bytes
        assert cache.hits == 1

    def test_a_finalizer_never_waits_for_the_cache_lock(self):
        """A matrix may die on a thread that is inside ``get`` (holding the
        lock): the finalizer only queues the id, the next lookup drops it."""
        cache = SliceCache()
        m = matrix()
        cache.get(m, (0, 1), (0, 1))
        with cache._lock:
            del m
            gc.collect()  # would deadlock here if the finalizer locked
            assert cache.num_entries == 1
        cache.get(matrix(seed=9), (0, 1), (0, 1))
        assert cache.num_entries == 1

    def test_reset_keeps_tracking_live_matrices(self):
        cache = SliceCache()
        m = matrix()
        cache.get(m, (0, 1), (0, 1))
        cache.clear()
        cache.get(m, (0, 1), (0, 1))
        del m
        gc.collect()
        assert cache.stats()["entries"] == 0

    def test_concurrent_lookups_over_dying_matrices(self):
        """More threads than cores, a short switch interval, matrices born
        and dropped in every thread: each slab is its own matrix's content
        and the ledger ends exact."""
        cache = SliceCache()
        shared = matrix(seed=100)
        errors = []
        deadline = time.monotonic() + 20.0

        def worker(base: int) -> None:
            try:
                for i in range(40):
                    if time.monotonic() > deadline:
                        raise TimeoutError("stress loop overran its budget")
                    m = matrix(seed=base + i, n=50)
                    slab = cache.get(m, (0, 2), (0, 1))
                    if not np.array_equal(slab.to_numpy(), m.to_numpy()[:, :BS]):
                        raise AssertionError("slab of another matrix served")
                    cache.get(shared, (i % 4, i % 4 + 1), (0, 4))
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=worker, args=(1000 * t,))
                for t in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        gc.collect()
        stats = cache.stats()  # drains the deaths of the last matrices
        assert stats["entries"] == 4  # the shared matrix's four slabs
        assert stats["bytes"] == sum(
            shared.slab((r, r + 1), (0, 4)).nbytes for r in range(4)
        )
        assert stats["misses"] == 8 * 40 + 4
        assert stats["hits"] == 8 * 40 - 4
