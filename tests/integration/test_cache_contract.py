"""One contract for the engine's three caches, all on ``BoundedCache``.

Each cache is driven through its own front door — slabs through
``SliceCache.get``, plans and results through ``get`` then ``put`` on a
miss — with entries of one equal size that read one matrix each, and must
keep the same LRU order, entry and byte bounds, liveness rule and stats.
"""

import gc

import numpy as np
import pytest

from repro.blocks.block import Block
from repro.cluster.metrics import MetricsCollector
from repro.cluster.slice_cache import SliceCache
from repro.core.plan_cache import PlanCache, PlanCacheEntry
from repro.execution import ExecutionResult, as_dag
from repro.lang import matrix_input
from repro.matrix import rand_dense
from repro.serving.result_cache import ResultCache, result_key

BS = 25
N = 4 * BS
#: bytes of one dense tile: one slab, one result output, one plan entry
ENTRY_BYTES = rand_dense(BS, BS, BS, seed=0).nbytes
MANY = 1 << 20
STATS_KEYS = {"entries", "bytes", "hits", "misses", "hit_rate"}


def matrix(seed=1):
    return rand_dense(N, N, BS, seed=seed)


class Slices:
    make = SliceCache
    extra_stats: set = set()

    @staticmethod
    def key(m, tag):
        return (id(m), m.version, (tag, tag + 1), (0, 1))

    @staticmethod
    def lookup(cache, m, tag):
        cache.get(m, (tag, tag + 1), (0, 1))


class Plans:
    make = PlanCache
    extra_stats = {"invalidations"}

    @staticmethod
    def key(m, tag):
        return ("plan", id(m), m.version, tag)

    @staticmethod
    def lookup(cache, m, tag):
        key = Plans.key(m, tag)
        if cache.get(key) is None:
            entry = PlanCacheEntry(physical=None)
            cache.put(key, entry, ENTRY_BYTES, [(m, m.version)])


class Results:
    make = ResultCache
    extra_stats: set = set()

    @staticmethod
    def query(tag):
        return as_dag(matrix_input("X", N, N, BS) * float(tag + 2))

    @staticmethod
    def key(m, tag):
        return result_key(("sig",), Results.query(tag), {"X": m})

    @staticmethod
    def lookup(cache, m, tag):
        key = Results.key(m, tag)
        if cache.get(key) is None:
            dag = Results.query(tag)
            output = rand_dense(BS, BS, BS, seed=99)  # never the input
            result = ExecutionResult(
                outputs={root: output for root in dag.roots},
                metrics=MetricsCollector(),
                fusion_plan=None,
                dag=dag,
            )
            cache.put(key, result, {"X": m})


@pytest.fixture(params=[Slices, Plans, Results], ids=["slice", "plan", "result"])
def kind(request):
    return request.param


def stored(cache, kind, m, tag):
    return cache.peek(kind.key(m, tag)) is not None


def test_lru_order_and_entry_bound(kind):
    cache = kind.make(max_entries=2, max_bytes=MANY * ENTRY_BYTES)
    m = matrix()
    kind.lookup(cache, m, 0)
    kind.lookup(cache, m, 1)
    kind.lookup(cache, m, 0)  # a hit: 1 is now the least recently used
    kind.lookup(cache, m, 2)
    assert cache.num_entries == 2
    assert stored(cache, kind, m, 0) and stored(cache, kind, m, 2)
    assert not stored(cache, kind, m, 1)
    assert (cache.hits, cache.misses) == (1, 3)


def test_byte_bound(kind):
    cache = kind.make(max_entries=MANY, max_bytes=2 * ENTRY_BYTES)
    m = matrix()
    for tag in range(3):
        kind.lookup(cache, m, tag)
    assert cache.num_entries == 2
    assert cache.cached_bytes == 2 * ENTRY_BYTES
    assert not stored(cache, kind, m, 0)


def test_an_oversized_entry_is_not_stored(kind):
    cache = kind.make(max_entries=MANY, max_bytes=ENTRY_BYTES - 1)
    m = matrix()
    kind.lookup(cache, m, 0)
    assert cache.num_entries == 0 and cache.cached_bytes == 0
    assert cache.misses == 1


def test_a_zero_entry_cache_holds_nothing(kind):
    cache = kind.make(max_entries=0)
    m = matrix()
    kind.lookup(cache, m, 0)
    kind.lookup(cache, m, 0)
    assert cache.num_entries == 0 and cache.cached_bytes == 0
    assert (cache.hits, cache.misses) == (0, 2)


def test_an_entry_goes_when_its_matrix_dies(kind):
    cache = kind.make(max_entries=MANY)
    dead, live = matrix(seed=1), matrix(seed=2)
    kind.lookup(cache, dead, 0)
    kind.lookup(cache, live, 0)
    del dead
    gc.collect()
    stats = cache.stats()
    assert stats["entries"] == 1 and stats["bytes"] == ENTRY_BYTES
    assert stored(cache, kind, live, 0)


def test_an_entry_goes_when_its_matrix_is_stored_at_a_newer_version(kind):
    cache = kind.make(max_entries=MANY)
    m, other = matrix(seed=1), matrix(seed=2)
    kind.lookup(cache, m, 0)
    kind.lookup(cache, other, 0)
    old = kind.key(m, 0)
    m.set_block(0, 0, Block(np.ones((BS, BS))))
    assert cache.num_entries == 2  # nothing has seen the new version yet
    kind.lookup(cache, m, 1)
    assert cache.num_entries == 2
    assert cache.peek(old) is None
    assert stored(cache, kind, m, 1) and stored(cache, kind, other, 0)


def test_a_recycled_id_never_finds_a_dead_matrix_entry(kind):
    cache = kind.make(max_entries=MANY)
    seen_ids = set()
    for seed in range(60):
        m = matrix(seed=seed)
        seen_ids.add(id(m))
        assert cache.peek(kind.key(m, 0)) is None
        kind.lookup(cache, m, 0)
        assert cache.num_entries == 1  # the previous matrix is gone
        del m
    assert cache.hits == 0 and cache.misses == 60
    assert len(seen_ids) < 60  # identities really were recycled


def test_stats_keys(kind):
    cache = kind.make()
    m = matrix()
    kind.lookup(cache, m, 0)
    kind.lookup(cache, m, 0)
    stats = cache.stats()
    assert set(stats) == STATS_KEYS | kind.extra_stats
    assert (stats["entries"], stats["bytes"]) == (1, ENTRY_BYTES)
    assert (stats["hits"], stats["misses"], stats["hit_rate"]) == (1, 1, 0.5)
