"""The closed calibration loop, end to end.

Two contracts:

* ``calibration="off"`` (the default) is inert — every engine's outputs and
  modeled metrics are bit-identical to a default-config run, and the store
  stays empty;
* ``calibration="active"`` converges — the first execute runs on paper
  constants, its error evicts the cached plan, the re-plan prices with
  fitted coefficients, prediction error collapses under the re-plan
  threshold, and the loop then settles into plan-cache hits.
"""

import numpy as np
import pytest

from repro import (
    DistMELikeEngine,
    FuseMEEngine,
    LocalXLAEngine,
    MatFastLikeEngine,
    SystemDSLikeEngine,
)
from repro.lang import log, matrix_input
from repro.matrix import rand_dense, rand_sparse
from repro.serving import MatrixService

from tests.conftest import make_config

BS = 25
DISTRIBUTED = [
    FuseMEEngine, SystemDSLikeEngine, MatFastLikeEngine, DistMELikeEngine,
]


def bench_like_config(**options):
    """The benchmark cluster shape, where calibration visibly re-plans."""
    return make_config(
        num_nodes=8, tasks_per_node=12,
        task_memory_budget=8 * 1024 * 1024,
        input_split_bytes=36 * 1024,
        **options,
    )


def gnmf_like_query():
    x = matrix_input("X", 200, 150, BS, density=0.05)
    u = matrix_input("U", 200, 50, BS)
    v = matrix_input("V", 150, 50, BS)
    return x * log(u @ v.T + 1e-8)


def inputs():
    return {
        "X": rand_sparse(200, 150, 0.05, BS, seed=1),
        "U": rand_dense(200, 50, BS, seed=2),
        "V": rand_dense(150, 50, BS, seed=3),
    }


def run(engine_cls, **config_options):
    engine = engine_cls(make_config(**config_options))
    result = engine.execute(gnmf_like_query(), inputs())
    outputs = [
        result.outputs[root].to_numpy() for root in result.dag.roots
    ]
    return engine, result, outputs


class TestOffIsInert:
    @pytest.mark.parametrize(
        "engine_cls", DISTRIBUTED + [LocalXLAEngine],
        ids=lambda cls: cls.name,
    )
    def test_off_bit_identical_to_default(self, engine_cls):
        _, default_result, default_outputs = run(engine_cls)
        engine, off_result, off_outputs = run(engine_cls, calibration="off")
        for got, expected in zip(off_outputs, default_outputs):
            assert np.array_equal(got, expected)
        assert off_result.metrics.totals() == default_result.metrics.totals()
        if engine_cls is not LocalXLAEngine:
            assert engine.calibration.num_observations == 0
            assert engine.calibration.generation == 0

    def test_off_prices_with_paper_constants(self):
        engine = FuseMEEngine(make_config(calibration="off"))
        # even a hand-fed store must not leak into planning when off
        engine.calibration.observe(
            "cfo", "mid", net_bytes=1.0, flops=1.0, measured_seconds=99.0
        )
        assert engine.calibration_for("cfo", None) is None


class TestActiveLoopConverges:
    def test_error_collapses_and_cache_settles(self):
        engine = FuseMEEngine(bench_like_config(calibration="active"))
        query, bound = gnmf_like_query(), inputs()
        # the single fused unit yields one observation per execute, so the
        # fit appears after min_samples (3) iterations; two more show the
        # converged steady state (no eviction, cache hits)
        errors, evictions = [], []
        for _ in range(5):
            profile = engine.execute(query, bound).profile
            errors.append(profile.mean_abs_seconds_error)
            evictions.append(
                profile.counters.get("plan_cache_calibration_evictions", 0)
            )
        assert errors[0] > 0.5  # paper constants: the ~30x gap
        assert evictions[0] == 1  # error-triggered re-plan
        assert errors[-1] is not None and errors[-1] <= 0.5
        assert errors[-1] < errors[0]
        # the loop settles: later iterations neither evict nor re-plan
        assert evictions[-1] == 0
        assert engine.plan_cache.stats()["hits"] > 0

    def test_active_outputs_stay_numerically_close(self):
        _, _, off_outputs = run(FuseMEEngine, calibration="off")
        engine = FuseMEEngine(make_config(calibration="active"))
        query, bound = gnmf_like_query(), inputs()
        for _ in range(3):
            result = engine.execute(query, bound)
        active_outputs = [
            result.outputs[root].to_numpy() for root in result.dag.roots
        ]
        for got, expected in zip(active_outputs, off_outputs):
            assert np.allclose(got, expected)

    def test_mode_is_part_of_the_planning_signature(self):
        off = FuseMEEngine(make_config(calibration="off"))
        active = FuseMEEngine(make_config(calibration="active"))
        assert off.planning_signature() != active.planning_signature()


class TestServingExposure:
    def test_status_carries_calibration(self):
        engine = FuseMEEngine(make_config(calibration="active"))
        with MatrixService(engine=engine) as service:
            with service.open_session("alice") as session:
                for name, matrix in inputs().items():
                    session.bind(name, matrix)
                session.execute(gnmf_like_query(), timeout=30.0)
            status = service.status()
            assert status["calibration"]["observations"] > 0
            assert status["calibration"]["generation"] >= 1
