"""Calibration: bucketing, fitting, store gating, persistence, threading."""

import math
import threading

import numpy as np
import pytest

from repro.config import EngineConfig
from repro.core.calibration import (
    ANY_BUCKET,
    CalibrationStore,
    KernelCalibration,
    Observation,
    fit_throughput,
    sparsity_bucket,
)
from repro.core.plan_cache import PlanCache, PlanCacheEntry

from tests.conftest import make_config


def obs(net, flops, measured, predicted=None):
    return Observation(
        net_bytes=net, flops=flops, measured_seconds=measured,
        predicted_seconds=predicted,
    )


def planted_rows(inv_net, inv_com, overhead, points):
    return [
        obs(n, f, n * inv_net + f * inv_com + overhead) for n, f in points
    ]


class TestSparsityBucket:
    def test_thresholds(self):
        assert sparsity_bucket(None) == "dense"
        assert sparsity_bucket(1.0) == "dense"
        assert sparsity_bucket(0.4) == "dense"
        assert sparsity_bucket(0.39) == "mid"
        assert sparsity_bucket(0.05) == "mid"
        assert sparsity_bucket(0.049) == "sparse"
        assert sparsity_bucket(0.0) == "sparse"


class TestFitThroughput:
    POINTS = [(1e6, 2e5), (4e6, 1e5), (2e6, 8e5), (8e6, 4e5), (5e5, 6e5)]

    def test_recovers_planted_coefficients(self):
        rows = planted_rows(2e-8, 5e-9, 0.1, self.POINTS)
        inv_net, inv_com, overhead, residual = fit_throughput(rows)
        assert inv_net == pytest.approx(2e-8, rel=1e-6)
        assert inv_com == pytest.approx(5e-9, rel=1e-6)
        assert overhead == pytest.approx(0.1, rel=1e-6)
        assert residual == pytest.approx(0.0, abs=1e-9)

    def test_outlier_rejected_by_mad_pass(self):
        rows = planted_rows(2e-8, 5e-9, 0.1, self.POINTS * 2)
        rows.append(obs(1e6, 2e5, 50.0))  # one straggler iteration
        inv_net, inv_com, overhead, residual = fit_throughput(rows)
        assert inv_net == pytest.approx(2e-8, rel=1e-3)
        assert inv_com == pytest.approx(5e-9, rel=1e-3)
        assert overhead == pytest.approx(0.1, rel=1e-3)
        # the residual is honest: reported over the full window, so the
        # rejected outlier still contributes its ~100% relative miss
        assert residual > 0.05

    def test_negative_rates_clamp_to_zero(self):
        # seconds *fall* as bytes rise: a negative inv_net would fit better
        rows = [obs(1e6, 0.0, 3.0), obs(2e6, 0.0, 2.0), obs(3e6, 0.0, 1.0)]
        inv_net, inv_com, overhead, _ = fit_throughput(rows)
        assert inv_net >= 0.0
        assert inv_com >= 0.0
        assert overhead >= 0.0

    def test_unusable_rows_are_skipped(self):
        rows = [obs(1e6, 1e5, 0.0), obs(math.inf, 1e5, 1.0)]
        assert fit_throughput(rows) == (0.0, 0.0, 0.0, 0.0)

    def test_degenerate_window_interpolates_its_point(self):
        rows = planted_rows(2e-8, 5e-9, 0.0, [(1e6, 2e5)] * 3)
        inv_net, inv_com, overhead, _ = fit_throughput(rows)
        fit = KernelCalibration(
            kind="cfo", bucket="mid", inv_net_rate=inv_net,
            inv_com_rate=inv_com, overhead_seconds=overhead, samples=3,
        )
        assert fit.predict_seconds(1e6, 2e5) == pytest.approx(
            rows[0].measured_seconds, rel=1e-6
        )


class TestCalibrationStore:
    def test_observe_rejects_unusable_rows(self):
        store = CalibrationStore()
        assert not store.observe(
            "cfo", "mid", net_bytes=1.0, flops=1.0, measured_seconds=0.0
        )
        assert not store.observe(
            "cfo", "mid", net_bytes=1.0, flops=1.0,
            measured_seconds=math.nan,
        )
        assert not store.observe(
            "cfo", "mid", net_bytes=math.inf, flops=1.0,
            measured_seconds=1.0,
        )
        assert store.num_observations == 0
        assert store.commit() == 0  # nothing pending, generation untouched

    def test_min_samples_gates_the_fit(self):
        store = CalibrationStore(min_samples=3)
        for _ in range(2):
            store.observe("cfo", "mid", net_bytes=1e6, flops=2e5,
                          measured_seconds=0.5)
        assert store.coefficients("cfo", "mid") is None
        store.observe("cfo", "mid", net_bytes=1e6, flops=2e5,
                      measured_seconds=0.5)
        fit = store.coefficients("cfo", "mid")
        assert fit is not None
        assert fit.samples == 3
        assert fit.predict_seconds(1e6, 2e5) == pytest.approx(0.5, rel=1e-6)

    def test_pooled_fallback_spans_buckets(self):
        store = CalibrationStore(min_samples=3)
        store.observe("cfo", "dense", net_bytes=1e6, flops=2e5,
                      measured_seconds=0.5)
        store.observe("cfo", "sparse", net_bytes=2e6, flops=1e5,
                      measured_seconds=0.8)
        store.observe("cfo", "sparse", net_bytes=4e6, flops=3e5,
                      measured_seconds=1.4)
        fit = store.coefficients("cfo", "mid")
        assert fit is not None
        assert fit.bucket == ANY_BUCKET
        assert store.coefficients("cell", "mid") is None  # other kind: no fit

    def test_generation_advances_per_committed_batch(self):
        store = CalibrationStore()
        assert store.generation == 0
        store.observe("cfo", "mid", net_bytes=1e6, flops=2e5,
                      measured_seconds=0.5)
        assert store.generation == 0  # observe alone never bumps
        assert store.commit() == 1
        assert store.commit() == 1  # empty batch: no bump
        store.observe("cfo", "mid", net_bytes=1e6, flops=2e5,
                      measured_seconds=0.5)
        assert store.commit() == 2

    def test_window_bounds_history(self):
        store = CalibrationStore(window=4, min_samples=2)
        for i in range(10):
            store.observe("cfo", "mid", net_bytes=1e6 + i, flops=2e5,
                          measured_seconds=0.5)
        assert store.num_observations == 4

    def test_mean_abs_error_tracks_planner_predictions(self):
        store = CalibrationStore()
        assert store.mean_abs_error() is None
        store.observe("cfo", "mid", net_bytes=1e6, flops=2e5,
                      measured_seconds=1.0, predicted_seconds=0.5)
        store.observe("cfo", "mid", net_bytes=1e6, flops=2e5,
                      measured_seconds=2.0)  # no prediction: not counted
        assert store.mean_abs_error() == pytest.approx(0.5)

    def test_json_round_trip(self, tmp_path):
        store = CalibrationStore(window=16, min_samples=2)
        for n, f in [(1e6, 2e5), (3e6, 4e5), (2e6, 1e5)]:
            store.observe("cfo", "mid", net_bytes=n, flops=f,
                          measured_seconds=n * 2e-8 + f * 5e-9 + 0.1,
                          predicted_seconds=math.inf,  # must not break JSON
                          measured_net_bytes=n * 0.9, measured_flops=f * 1.1)
        store.commit()
        path = tmp_path / "calibration.json"
        store.save(str(path))
        loaded = CalibrationStore.load(str(path))
        assert loaded.window == 16
        assert loaded.min_samples == 2
        assert loaded.generation == store.generation
        assert loaded.num_observations == store.num_observations
        original = store.coefficients("cfo", "mid")
        restored = loaded.coefficients("cfo", "mid")
        assert restored.inv_net_rate == pytest.approx(original.inv_net_rate)
        assert restored.inv_com_rate == pytest.approx(original.inv_com_rate)
        assert restored.overhead_seconds == pytest.approx(
            original.overhead_seconds
        )
        # the non-finite prediction was dropped on write, not serialized
        assert loaded.mean_abs_error() is None

    def test_merge_composes_stores(self):
        a = CalibrationStore(min_samples=2)
        b = CalibrationStore(min_samples=2)
        a.observe("cfo", "mid", net_bytes=1e6, flops=2e5,
                  measured_seconds=0.5)
        b.observe("cfo", "mid", net_bytes=2e6, flops=1e5,
                  measured_seconds=0.9)
        a.merge(b)
        assert a.num_observations == 2
        assert a.coefficients("cfo", "mid") is not None

    def test_stats_shape(self):
        store = CalibrationStore(min_samples=2)
        for _ in range(2):
            store.observe("cfo", "mid", net_bytes=1e6, flops=2e5,
                          measured_seconds=0.5, predicted_seconds=0.25)
        store.commit()
        stats = store.stats()
        assert stats["generation"] == 1
        assert stats["observations"] == 2
        assert stats["mean_abs_seconds_error"] == pytest.approx(0.5)
        kernel = stats["kernels"]["cfo/mid"]
        assert kernel["samples"] == 2
        assert "inv_net_rate" in kernel

    def test_thread_safety_under_concurrent_observe_and_fit(self):
        store = CalibrationStore(window=64, min_samples=3)
        errors = []

        def worker(seed):
            rng = np.random.default_rng(seed)
            try:
                for _ in range(50):
                    store.observe(
                        "cfo", "mid",
                        net_bytes=float(rng.uniform(1e5, 1e7)),
                        flops=float(rng.uniform(1e4, 1e6)),
                        measured_seconds=float(rng.uniform(0.01, 1.0)),
                    )
                    store.coefficients("cfo", "mid")
                    store.stats()
                store.commit()
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(seed,)) for seed in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert store.num_observations == 64  # window-capped
        assert store.generation >= 1


class TestConfigValidation:
    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            make_config(calibration="sometimes")

    def test_rejects_bad_knobs(self):
        """``"observe"`` is no longer a mode, and the window, sample and
        re-plan knobs are fixed: the store's defaults and
        ``REPLAN_THRESHOLD``."""
        with pytest.raises(ValueError):
            make_config(calibration="observe")
        for removed in (
            "calibration_window",
            "calibration_min_samples",
            "calibration_replan_threshold",
        ):
            with pytest.raises(TypeError):
                make_config(**{removed: 1})

    def test_default_is_off(self):
        assert EngineConfig().calibration == "off"


class TestPlanCacheInvalidation:
    def entry(self):
        return PlanCacheEntry(physical=object(), fit_generation=3)

    def test_peek_leaves_stats_untouched(self):
        cache = PlanCache(max_entries=4)
        cache.put("k", self.entry())
        assert cache.peek("k") is not None
        assert cache.peek("missing") is None
        stats = cache.stats()
        assert stats["hits"] == 0 and stats["misses"] == 0

    def test_invalidate_evicts_and_counts(self):
        cache = PlanCache(max_entries=4)
        cache.put("k", self.entry())
        assert cache.invalidate("k")
        assert not cache.invalidate("k")  # already gone
        assert cache.peek("k") is None
        assert cache.stats()["invalidations"] == 1

    def test_clear_resets_invalidations(self):
        cache = PlanCache(max_entries=4)
        cache.put("k", self.entry())
        cache.invalidate("k")
        cache.clear()
        assert cache.stats()["invalidations"] == 0
