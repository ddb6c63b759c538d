"""The execution fast path must be invisible in results and modeled metrics.

Each engine (CFO via FuseME, BFO/RFO via SystemDS) must produce
bit-identical outputs and the exact same MetricsCollector totals whether
it plans afresh (a fresh engine's first execute misses the plan cache) or
runs a cached plan on warm slabs — speed is the only thing allowed to
change.  That two fresh engines agree run to run is the stage-record
golden's second-run check.
"""

import numpy as np
import pytest

from repro import FuseMEEngine, SystemDSLikeEngine
from repro.lang import DAG, matrix_input, nnz_mask, sq, sum_of
from repro.matrix import rand_dense, rand_sparse

from tests.conftest import make_config

BS = 25
M, N, K = 100, 75, 25


def _query():
    x = matrix_input("X", M, N, BS, density=0.1)
    u = matrix_input("U", M, K, BS)
    v = matrix_input("V", K, N, BS)
    product = u @ v
    return DAG([
        (nnz_mask(x) * sq(x - product)).node,
        sum_of(sq(product)).node,
    ])


def _inputs():
    return {
        "X": rand_sparse(M, N, 0.1, BS, seed=11),
        "U": rand_dense(M, K, BS, seed=12),
        "V": rand_dense(K, N, BS, seed=13),
    }


@pytest.mark.parametrize("engine_cls", [FuseMEEngine, SystemDSLikeEngine])
def test_repeated_execution_stays_invisible(engine_cls):
    """Iteration 2 runs the cached plan + warm slice cache: still identical."""
    engine = engine_cls(make_config())
    inputs = _inputs()
    first = engine.execute(_query(), inputs)
    second = engine.execute(_query(), inputs)
    assert first.metrics.totals() == second.metrics.totals()
    for root_a, root_b in zip(first.dag.roots, second.dag.roots):
        assert np.array_equal(
            first.outputs[root_a].to_numpy(),
            second.outputs[root_b].to_numpy(),
        )

