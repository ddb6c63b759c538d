"""Result-cache keying: versions, re-binding, liveness, LRU eviction."""

import gc
import weakref

import numpy as np

from repro.blocks.block import Block
from repro.cluster.metrics import MetricsCollector
from repro.execution import ExecutionResult, as_dag
from repro.lang import matrix_input
from repro.matrix import rand_dense
from repro.serving.result_cache import ResultCache, result_key

SIG = ("engine", "knobs")


def make_result(dag, matrix):
    return ExecutionResult(
        outputs={root: matrix for root in dag.roots},
        metrics=MetricsCollector(),
        fusion_plan=None,
        dag=dag,
    )


def query(name="X", n=50):
    return as_dag(matrix_input(name, n, n, 25) * 2.0)


class TestKeying:
    def test_identical_query_and_bindings_share_a_key(self):
        dag_a, dag_b = query(), query()  # independently built, same shape
        matrix = rand_dense(50, 50, 25, seed=1)
        assert result_key(SIG, dag_a, {"X": matrix}) == \
            result_key(SIG, dag_b, {"X": matrix})

    def test_set_block_bumps_version_and_changes_key(self):
        dag = query()
        matrix = rand_dense(50, 50, 25, seed=1)
        before = result_key(SIG, dag, {"X": matrix})
        matrix.set_block(0, 0, Block(np.ones((25, 25))))
        after = result_key(SIG, dag, {"X": matrix})
        assert before != after

    def test_rebinding_a_new_matrix_changes_key(self):
        dag = query()
        first = rand_dense(50, 50, 25, seed=1)
        second = rand_dense(50, 50, 25, seed=2)
        assert result_key(SIG, dag, {"X": first}) != \
            result_key(SIG, dag, {"X": second})

    def test_signature_is_part_of_the_key(self):
        dag = query()
        matrix = rand_dense(50, 50, 25, seed=1)
        assert result_key(("a",), dag, {"X": matrix}) != \
            result_key(("b",), dag, {"X": matrix})


class TestCache:
    def test_roundtrip_and_counters(self):
        cache = ResultCache(max_entries=4)
        dag = query()
        matrix = rand_dense(50, 50, 25, seed=1)
        key = result_key(SIG, dag, {"X": matrix})
        assert cache.get(key) is None
        result = make_result(dag, matrix)
        cache.put(key, result, {"X": matrix})
        assert cache.get(key) is result
        assert cache.hits == 1 and cache.misses == 1

    def test_stale_version_not_served(self):
        cache = ResultCache(max_entries=4)
        dag = query()
        matrix = rand_dense(50, 50, 25, seed=1)
        key = result_key(SIG, dag, {"X": matrix})
        cache.put(key, make_result(dag, matrix), {"X": matrix})
        matrix.set_block(0, 0, Block(np.ones((25, 25))))
        assert cache.get(result_key(SIG, dag, {"X": matrix})) is None

    def test_lru_eviction_by_entries(self):
        cache = ResultCache(max_entries=2)
        dag = query()
        keys = []
        for seed in range(3):
            matrix = rand_dense(50, 50, 25, seed=seed)
            key = result_key(SIG, dag, {"X": matrix})
            keys.append((key, matrix))
            cache.put(key, make_result(dag, matrix), {"X": matrix})
        assert cache.num_entries == 2
        assert cache.get(keys[0][0]) is None  # oldest evicted
        assert cache.get(keys[2][0]) is not None

    def test_byte_cap_evicts(self):
        matrix = rand_dense(50, 50, 25, seed=1)
        dag = query()
        cache = ResultCache(max_entries=8, max_bytes=int(matrix.nbytes * 1.5))
        for seed in range(3):
            m = rand_dense(50, 50, 25, seed=seed)
            key = result_key(SIG, dag, {"X": m})
            cache.put(key, make_result(dag, m), {"X": m})
        assert cache.num_entries == 1
        assert cache.cached_bytes <= int(matrix.nbytes * 1.5)

    def test_oversized_result_is_not_stored(self):
        matrix = rand_dense(50, 50, 25, seed=1)
        dag = query()
        cache = ResultCache(max_entries=8, max_bytes=matrix.nbytes - 1)
        key = result_key(SIG, dag, {"X": matrix})
        cache.put(key, make_result(dag, matrix), {"X": matrix})
        assert cache.num_entries == 0

    def test_disabled_cache(self):
        cache = ResultCache(max_entries=0)
        dag = query()
        matrix = rand_dense(50, 50, 25, seed=1)
        key = result_key(SIG, dag, {"X": matrix})
        cache.put(key, make_result(dag, matrix), {"X": matrix})
        assert cache.get(key) is None
        assert cache.num_entries == 0

    def test_stats_dict(self):
        cache = ResultCache(max_entries=4)
        dag = query()
        matrix = rand_dense(50, 50, 25, seed=1)
        key = result_key(SIG, dag, {"X": matrix})
        cache.get(key)
        cache.put(key, make_result(dag, matrix), {"X": matrix})
        cache.get(key)
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["entries"] == 1
        assert stats["hit_rate"] == 0.5


class TestLiveness:
    """An entry lives only as long as a lookup can still hit it."""

    def put_one(self, cache, matrix, dag=None):
        dag = dag or query()
        key = result_key(SIG, dag, {"X": matrix})
        # the cached outputs must not be the input, or they would pin it
        cache.put(key, make_result(dag, rand_dense(50, 50, 25, seed=99)),
                  {"X": matrix})
        return key

    def test_entries_do_not_pin_their_inputs(self):
        cache = ResultCache(max_entries=4)
        matrix = rand_dense(50, 50, 25, seed=1)
        self.put_one(cache, matrix)
        alive = weakref.ref(matrix)
        del matrix
        gc.collect()
        assert alive() is None
        assert cache.stats()["entries"] == 0 and cache.cached_bytes == 0

    def test_an_older_version_is_dropped_when_a_newer_one_is_stored(self):
        cache = ResultCache(max_entries=4)
        matrix = rand_dense(50, 50, 25, seed=1)
        old = self.put_one(cache, matrix)
        matrix.set_block(0, 0, Block(np.ones((25, 25))))
        assert cache.num_entries == 1  # nothing has seen the new version yet
        new = self.put_one(cache, matrix)
        assert cache.num_entries == 1
        assert cache.get(new) is not None and cache.get(old) is None

    def test_one_finalizer_per_matrix_however_many_puts(self):
        cache = ResultCache(max_entries=8)
        matrix = rand_dense(50, 50, 25, seed=1)
        before = len(weakref.finalize._registry)
        for scale in (2.0, 3.0, 4.0):
            dag = as_dag(matrix_input("X", 50, 50, 25) * scale)
            self.put_one(cache, matrix, dag)
        assert cache.num_entries == 3
        assert len(weakref.finalize._registry) == before + 1
