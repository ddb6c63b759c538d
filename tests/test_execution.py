"""Tests for the shared engine skeleton (repro.execution)."""

import numpy as np
import pytest

from repro import FuseMEEngine
from repro.cluster import MetricsCollector, SimulatedCluster, executor
from repro.execution import ExecutionResult, as_dag
from repro.lang import DAG, matrix_input
from repro.matrix import rand_dense

from tests.conftest import make_config

BS = 25


@pytest.fixture
def simple():
    x = matrix_input("X", 100, 100, BS)
    inputs = {"X": rand_dense(100, 100, BS, seed=1)}
    return x, inputs


class TestAsDag:
    def test_expr(self, simple):
        x, _ = simple
        dag = as_dag(x * 2.0)
        assert len(dag.roots) == 1

    def test_expr_list(self, simple):
        x, _ = simple
        dag = as_dag([x * 2.0, x + 1.0])
        assert len(dag.roots) == 2

    def test_dag_passthrough(self, simple):
        x, _ = simple
        dag = DAG((x * 2.0).node)
        assert as_dag(dag) is dag


class TestExecutionResult:
    def test_output_accessors(self, simple):
        x, inputs = simple
        result = FuseMEEngine(make_config()).execute(x * 2.0, inputs)
        assert result.output() is result.outputs[result.dag.roots[0]]
        assert result.comm_bytes == result.metrics.comm_bytes
        assert result.elapsed_seconds == result.metrics.elapsed_seconds

    def test_dag_defaults_from_fusion_plan(self, simple):
        x, inputs = simple
        result = FuseMEEngine(make_config()).execute(x * 2.0, inputs)
        assert result.dag is result.fusion_plan.dag

    def test_output_without_dag_raises_value_error(self):
        """A hand-built result with no DAG reports a usable error, not an
        assertion, when asked for positional outputs."""
        result = ExecutionResult(
            outputs={}, metrics=MetricsCollector(), fusion_plan=None
        )
        with pytest.raises(ValueError, match="no DAG"):
            result.output()


class TestSharedCluster:
    def test_explicit_cluster_accumulates(self, simple):
        """Passing one cluster across executions accumulates metrics —
        how iterative drivers (GNMF) could measure a whole job."""
        x, inputs = simple
        config = make_config()
        cluster = SimulatedCluster(config)
        engine = FuseMEEngine(config)
        engine.execute(x * 2.0, inputs, cluster=cluster)
        first = cluster.metrics.num_stages
        engine.execute(x * 2.0, inputs, cluster=cluster)
        assert cluster.metrics.num_stages == 2 * first

    def test_fresh_cluster_by_default(self, simple):
        x, inputs = simple
        engine = FuseMEEngine(make_config())
        a = engine.execute(x * 2.0, inputs)
        b = engine.execute(x * 2.0, inputs)
        assert a.metrics is not b.metrics

    def test_values_survive_shared_cluster(self, simple):
        x, inputs = simple
        config = make_config()
        cluster = SimulatedCluster(config)
        result = FuseMEEngine(config).execute(x * 3.0, inputs, cluster=cluster)
        np.testing.assert_allclose(
            result.output().to_numpy(), inputs["X"].to_numpy() * 3.0
        )

    def test_back_to_back_queries_report_independent_metrics(self, simple):
        """Two queries on one engine + cluster each see only their own
        modeled delta, matching what a fresh cluster would have reported."""
        x, inputs = simple
        config = make_config()
        reference_a = FuseMEEngine(config).execute(x * 2.0, inputs)
        reference_b = FuseMEEngine(config).execute(x + 1.0, inputs)

        cluster = SimulatedCluster(config)
        engine = FuseMEEngine(config)
        a = engine.execute(x * 2.0, inputs, cluster=cluster)
        b = engine.execute(x + 1.0, inputs, cluster=cluster)

        assert a.metrics.totals() == reference_a.metrics.totals()
        assert b.metrics.totals() == reference_b.metrics.totals()
        # and the cluster's own collector keeps the whole-job sum
        assert (
            cluster.metrics.num_stages
            == a.metrics.num_stages + b.metrics.num_stages
        )

    def test_later_queries_do_not_corrupt_prior_results(self, simple):
        x, inputs = simple
        config = make_config()
        cluster = SimulatedCluster(config)
        engine = FuseMEEngine(config)
        result = engine.execute(x * 2.0, inputs, cluster=cluster)
        totals = result.metrics.totals()
        engine.execute(x * 3.0, inputs, cluster=cluster)
        assert result.metrics.totals() == totals
        assert cluster.metrics.num_stages == 2 * result.metrics.num_stages

    def test_simulated_timeout_budget_is_per_query(self, simple, monkeypatch):
        """The paper's T.O. applies to one query, not the cluster's whole
        accumulated life: three queries each well under the budget must all
        succeed on a shared cluster even though their summed modeled time
        exceeds it."""
        x, inputs = simple
        single = FuseMEEngine(make_config()).execute(x * 2.0, inputs)
        budget = single.elapsed_seconds * 1.5
        monkeypatch.setattr(executor, "TIMEOUT_SECONDS", budget)
        config = make_config()
        cluster = SimulatedCluster(config)
        engine = FuseMEEngine(config)
        for _ in range(3):  # cumulative elapsed ends near 2x the budget
            engine.execute(x * 2.0, inputs, cluster=cluster)
        assert cluster.metrics.elapsed_seconds > budget


class TestRootResolution:
    def test_multi_root_dag_with_bare_input_root(self, simple):
        """A root that is a plain input resolves by name — even though the
        lifetime model releases intermediates, a bare-input root's binding
        survives to result collection."""
        x, inputs = simple
        result = FuseMEEngine(make_config()).execute([x, x * 2.0], inputs)
        np.testing.assert_array_equal(
            result.output(0).to_numpy(), inputs["X"].to_numpy()
        )
        np.testing.assert_allclose(
            result.output(1).to_numpy(), inputs["X"].to_numpy() * 2.0
        )

    def test_bare_input_root_across_all_engines(self, simple):
        from repro import (
            DistMELikeEngine,
            MatFastLikeEngine,
            SystemDSLikeEngine,
        )

        x, inputs = simple
        for engine_cls in (DistMELikeEngine, SystemDSLikeEngine, MatFastLikeEngine):
            result = engine_cls(make_config()).execute([x * 3.0, x], inputs)
            np.testing.assert_array_equal(
                result.output(1).to_numpy(), inputs["X"].to_numpy()
            )

    def test_output_index_out_of_range_message(self, simple):
        x, inputs = simple
        result = FuseMEEngine(make_config()).execute([x * 2.0, x + 1.0], inputs)
        with pytest.raises(IndexError, match="output index 2 out of range"):
            result.output(2)
        with pytest.raises(IndexError, match="2 root"):
            result.output(-3)
        # negative indices within range still work, like list indexing
        assert result.output(-1) is result.output(1)


class TestProfileIsolation:
    def test_result_profile_is_per_query(self, simple):
        """On a shared cluster, each result's metrics and profile hold only
        its own query's stages, and together they are the cluster's."""
        x, inputs = simple
        config = make_config()
        cluster = SimulatedCluster(config)
        engine = FuseMEEngine(config)
        a = engine.execute(x * 2.0, inputs, cluster=cluster)
        b = engine.execute(x + 1.0, inputs, cluster=cluster)

        for result in (a, b):
            assert result.metrics.num_stages > 0
            assert result.profile.totals["num_stages"] == (
                result.metrics.num_stages
            )
            assert sum(u.num_stages for u in result.profile.units) == (
                result.metrics.num_stages
            )
        assert (
            a.metrics.num_stages + b.metrics.num_stages
            == cluster.metrics.num_stages
        )
        assert a.profile.measured_seconds + b.profile.measured_seconds == (
            pytest.approx(cluster.metrics.elapsed_seconds)
        )
