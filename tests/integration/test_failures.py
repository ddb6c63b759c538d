"""Failure-injection integration tests: O.O.M., timeouts and skew.

These reproduce the failure modes the paper's figures annotate ("O.O.M.",
"T.O.") and verify the engine's own escape hatches (elastic partitioning)
work where the baselines fail.
"""

import numpy as np
import pytest

from repro import FuseMEEngine, MatFastLikeEngine
from repro.cluster import executor
from repro.datasets import density_skewed_matrix
from repro.errors import SimulatedTimeoutError, TaskOutOfMemoryError
from repro.lang import DAG, evaluate, log, matrix_input
from repro.matrix import rand_dense, rand_sparse

from tests.conftest import make_config

BS = 25


def nmf(rows=200, cols=150, k=50, density=0.05):
    inputs = {
        "X": rand_sparse(rows, cols, density, BS, seed=1),
        "U": rand_dense(rows, k, BS, seed=2),
        "V": rand_dense(cols, k, BS, seed=3),
    }
    x = matrix_input("X", rows, cols, BS, density=density)
    u = matrix_input("U", rows, k, BS)
    v = matrix_input("V", cols, k, BS)
    return x * log(u @ v.T + 1e-8), inputs


class TestMemoryPressure:
    def test_cfo_elasticity_survives_tight_budget(self):
        """The paper's core claim: the CFO adjusts (P, Q, R) to fit theta_t,
        so FuseME keeps running where broadcast-based execution dies."""
        expr, inputs = nmf()
        tight = make_config(task_memory_budget=90_000)
        result = FuseMEEngine(tight).execute(expr, inputs)
        expected = evaluate(
            DAG(expr.node).roots[0],
            {n: m.to_numpy() for n, m in inputs.items()},
        )
        np.testing.assert_allclose(result.output().to_numpy(), expected, atol=1e-8)
        assert result.metrics.peak_task_memory <= tight.cluster.task_memory_budget

    def test_matfast_oom_at_same_budget(self):
        expr, inputs = nmf()
        tight = make_config(task_memory_budget=90_000)
        with pytest.raises(TaskOutOfMemoryError):
            MatFastLikeEngine(tight).execute(expr, inputs)

    def test_oom_error_carries_details(self):
        expr, inputs = nmf()
        tiny = make_config(task_memory_budget=1_000)
        with pytest.raises(TaskOutOfMemoryError) as exc:
            MatFastLikeEngine(tiny).execute(expr, inputs)
        assert exc.value.used_bytes > exc.value.budget_bytes


class TestTimeout:
    def test_simulated_timeout_raised(self, monkeypatch):
        expr, inputs = nmf()
        monkeypatch.setattr(executor, "TIMEOUT_SECONDS", 1e-9)
        with pytest.raises(SimulatedTimeoutError):
            FuseMEEngine(make_config()).execute(expr, inputs)

    def test_generous_timeout_passes(self, monkeypatch):
        expr, inputs = nmf()
        monkeypatch.setattr(executor, "TIMEOUT_SECONDS", 3600.0)
        FuseMEEngine(make_config()).execute(expr, inputs)  # must not raise


class TestSkew:
    def test_skewed_input_still_correct(self):
        """Skewed sparsity (the paper's future-work concern) does not break
        correctness, only balance."""
        x_matrix = density_skewed_matrix(
            200, 150, dense_fraction=0.2, dense_density=0.4,
            sparse_density=0.005, block_size=BS, seed=0,
        )
        density = x_matrix.density
        inputs = {
            "X": x_matrix,
            "U": rand_dense(200, 50, BS, seed=2),
            "V": rand_dense(150, 50, BS, seed=3),
        }
        x = matrix_input("X", 200, 150, BS, density=density)
        u = matrix_input("U", 200, 50, BS)
        v = matrix_input("V", 150, 50, BS)
        expr = x * log(u @ v.T + 1e-8)
        result = FuseMEEngine(make_config()).execute(expr, inputs)
        expected = evaluate(
            DAG(expr.node).roots[0],
            {n: m.to_numpy() for n, m in inputs.items()},
        )
        np.testing.assert_allclose(result.output().to_numpy(), expected, atol=1e-8)


class TestScaleUp:
    def test_more_nodes_reduce_elapsed_time(self):
        """Figure 12(d)/(h): elapsed time drops as nodes are added."""
        expr, inputs = nmf(rows=400, cols=300, k=100, density=0.1)
        times = {}
        for nodes in (2, 4, 8):
            config = make_config(num_nodes=nodes)
            result = FuseMEEngine(config).execute(expr, inputs)
            times[nodes] = result.elapsed_seconds
        assert times[8] < times[4] < times[2]
