"""Plan-cache behaviour: fingerprint canonicalization, hits, invalidation."""

import numpy as np

from repro import FuseMEEngine, matrix_input, sum_of
from repro.core.plan_cache import PlanCache, PlanCacheEntry, dag_fingerprint
from repro.lang import DAG, nnz_mask, sq
from repro.matrix import rand_dense, rand_sparse

from tests.conftest import make_config

BS = 25
M, N, K = 75, 50, 25


def _gnmf_like_dag(m=M, n=N, k=K, bs=BS, density=0.1, masked=False):
    x = matrix_input("X", m, n, bs, density=density)
    u = matrix_input("U", m, k, bs)
    v = matrix_input("V", k, n, bs)
    product = u @ v
    body = nnz_mask(x) * sq(x - product) if masked else sq(x - product)
    return DAG(sum_of(body).node)


def _inputs(m=M, n=N, k=K, bs=BS, density=0.1):
    return {
        "X": rand_sparse(m, n, density, bs, seed=1),
        "U": rand_dense(m, k, bs, seed=2),
        "V": rand_dense(k, n, bs, seed=3),
    }


# -- fingerprint canonicalization ---------------------------------------------


def test_fingerprint_deterministic_across_rebuilds():
    assert dag_fingerprint(_gnmf_like_dag()) == dag_fingerprint(_gnmf_like_dag())


def test_fingerprint_changes_with_shape():
    assert dag_fingerprint(_gnmf_like_dag()) != dag_fingerprint(_gnmf_like_dag(m=100))


def test_fingerprint_changes_with_block_size():
    assert dag_fingerprint(_gnmf_like_dag()) != dag_fingerprint(_gnmf_like_dag(bs=50))


def test_fingerprint_changes_with_density():
    assert dag_fingerprint(_gnmf_like_dag(density=0.1)) != dag_fingerprint(
        _gnmf_like_dag(density=0.3)
    )


def test_fingerprint_changes_with_mask():
    assert dag_fingerprint(_gnmf_like_dag(masked=True)) != dag_fingerprint(
        _gnmf_like_dag(masked=False)
    )


# -- planning signature --------------------------------------------------------


def test_signature_changes_with_config():
    base = FuseMEEngine(make_config())
    more_nodes = FuseMEEngine(make_config(num_nodes=4))
    no_sparsity = FuseMEEngine(make_config(sparsity_exploitation=False))
    exhaustive = FuseMEEngine(make_config(), optimizer_method="exhaustive")
    signatures = {
        base.planning_signature(),
        more_nodes.planning_signature(),
        no_sparsity.planning_signature(),
        exhaustive.planning_signature(),
    }
    assert len(signatures) == 4


# -- engine-level behaviour ----------------------------------------------------


def test_reexecute_hits_and_matches():
    engine = FuseMEEngine(make_config())
    inputs = _inputs()
    first = engine.execute(_gnmf_like_dag(), inputs)
    second = engine.execute(_gnmf_like_dag(), inputs)
    assert engine.plan_cache.misses == 1
    assert engine.plan_cache.hits == 1
    assert first.metrics.counter("plan_cache_misses") == 1
    assert second.metrics.counter("plan_cache_hits") == 1
    assert np.array_equal(first.output().to_numpy(), second.output().to_numpy())
    # modeled numbers must be unaffected by the cached fast path
    assert first.metrics.elapsed_seconds == second.metrics.elapsed_seconds
    assert first.metrics.comm_bytes == second.metrics.comm_bytes


def test_structural_changes_miss():
    engine = FuseMEEngine(make_config())
    engine.execute(_gnmf_like_dag(), _inputs())
    engine.execute(_gnmf_like_dag(density=0.3), _inputs(density=0.3))
    engine.execute(_gnmf_like_dag(masked=True), _inputs())
    assert engine.plan_cache.hits == 0
    assert engine.plan_cache.misses == 3
    assert engine.plan_cache.num_entries == 3


def test_lru_eviction_at_capacity():
    cache = PlanCache(max_entries=1)
    cache.put("a", PlanCacheEntry(physical=None))
    cache.put("b", PlanCacheEntry(physical=None))
    assert cache.num_entries == 1
    assert cache.get("a") is None
    assert cache.get("b") is not None


def test_hit_result_matches_fresh_engine():
    inputs = _inputs()
    warm = FuseMEEngine(make_config())
    warm.execute(_gnmf_like_dag(), inputs)
    cached = warm.execute(_gnmf_like_dag(), inputs)
    cold = FuseMEEngine(make_config()).execute(_gnmf_like_dag(), inputs)
    assert warm.plan_cache.hits == 1
    assert np.array_equal(cached.output().to_numpy(), cold.output().to_numpy())
    assert cached.metrics.elapsed_seconds == cold.metrics.elapsed_seconds
    assert cached.metrics.comm_bytes == cold.metrics.comm_bytes
