"""Service metrics: latency histograms, tenant counters, snapshots."""

import sys
import threading

import pytest

from repro.serving.metrics import (
    OUTCOME_FIELDS,
    USAGE_FIELDS,
    LatencyHistogram,
    ServiceMetrics,
    TenantStats,
)


def usage(modeled=1.0):
    return {name: modeled for name in USAGE_FIELDS}


class TestLatencyHistogram:
    def test_empty(self):
        h = LatencyHistogram()
        snap = h.snapshot()
        assert snap["count"] == 0
        assert snap["p50"] == 0.0 and snap["p99"] == 0.0
        assert snap["mean"] == 0.0 and snap["min"] == 0.0

    def test_single_sample(self):
        h = LatencyHistogram()
        h.record(0.25)
        snap = h.snapshot()
        assert snap["count"] == 1
        assert snap["min"] == 0.25 and snap["max"] == 0.25
        # 0.25 is an exact bucket bound, and percentiles clamp to max
        assert snap["p50"] == 0.25 and snap["p99"] == 0.25

    def test_percentiles_are_monotone(self):
        h = LatencyHistogram()
        for i in range(1, 101):
            h.record(i / 100.0)
        snap = h.snapshot()
        assert snap["p50"] <= snap["p95"] <= snap["p99"] <= snap["max"]
        assert snap["p50"] >= 0.5  # median of U(0.01..1.0) lands near 0.5
        assert snap["p50"] <= 1.0

    def test_percentile_never_exceeds_observed_max(self):
        h = LatencyHistogram()
        h.record(0.0001)
        h.record(0.0003)
        assert h.percentile(0.99) <= h.max

    def test_mean_is_exact(self):
        h = LatencyHistogram()
        h.record(1.0)
        h.record(3.0)
        assert h.snapshot()["mean"] == 2.0

    def test_negative_durations_clamp_to_zero(self):
        h = LatencyHistogram()
        h.record(-1.0)
        assert h.min == 0.0
        assert h.count == 1


class TestTenantStats:
    def test_snapshot_keys(self):
        stats = TenantStats(submitted=3, served=2, cache_hits=1)
        snap = stats.snapshot()
        assert snap == {
            "submitted": 3, "served": 2, "cache_hits": 1,
            "shed": 0, "timed_out": 0, "failed": 0,
        }


class TestServiceMetrics:
    def test_per_tenant_flows(self):
        m = ServiceMetrics()
        m.record_submitted("alice")
        m.record_submitted("alice")
        m.record_submitted("bob")
        m.record_served("alice", from_cache=False,
                        queue_seconds=0.01, total_seconds=0.1)
        m.record_served("alice", from_cache=True,
                        queue_seconds=0.0, total_seconds=0.001)
        m.record_shed("bob")
        snap = m.snapshot()
        assert snap["tenants"]["alice"]["served"] == 2
        assert snap["tenants"]["alice"]["cache_hits"] == 1
        assert snap["tenants"]["bob"]["shed"] == 1
        assert snap["submitted"] == 3 and snap["served"] == 2
        assert snap["latency"]["count"] == 2

    def test_completed_counts_terminal_outcomes(self):
        m = ServiceMetrics()
        m.record_served("a", False, 0.0, 0.1)
        m.record_timed_out("a")
        m.record_failed("b")
        m.record_shed("b")  # shed is pre-admission, not a terminal outcome
        snap = m.snapshot()
        assert (snap["served"], snap["timed_out"], snap["failed"]) == (1, 1, 1)
        assert snap["shed"] == 1

    def test_totals_sum_across_tenants(self):
        m = ServiceMetrics()
        m.record_submitted("a")
        m.record_submitted("b")
        assert m.totals()["submitted"] == 2


class TestUsage:
    def test_executions_book_usage_and_cache_hits_do_not(self):
        m = ServiceMetrics()
        m.record_served("alice", False, 0.0, 0.5, usage=usage(2.0))
        m.record_served("alice", True, 0.0, 0.001)
        m.record_shed("bob")
        snap = m.snapshot()
        assert snap["tenants"]["alice"]["usage"] == usage(2.0)
        assert snap["tenants"]["alice"]["cache_hits"] == 1
        assert snap["tenants"]["bob"]["usage"] == usage(0.0)

    def test_conservation_under_concurrency(self):
        m = ServiceMetrics()

        def worker(tenant):
            for _ in range(50):
                m.record_served(tenant, False, 0.0, 0.0, usage=usage())
                m.record_served("shared", False, 0.0, 0.0, usage=usage())

        threads = [
            threading.Thread(target=worker, args=(f"t{i}",)) for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        snap = m.snapshot()
        assert snap["served"] == 4 * 50 * 2
        assert snap["tenants"]["shared"]["usage"] == usage(200.0)
        for name in USAGE_FIELDS:
            assert sum(
                t["usage"][name] for t in snap["tenants"].values()
            ) == pytest.approx(400.0)


class TestSnapshotConsistency:
    def test_totals_match_tenants_under_concurrent_recording(self):
        """Top-level counters and per-tenant counters come from the same
        critical section, so no recorder can land between the two reads."""
        m = ServiceMetrics()
        stop = threading.Event()

        def recorder(tenant):
            while not stop.is_set():
                m.record_submitted(tenant)
                m.record_served(tenant, False, 0.0, 0.001, usage=usage())
                m.record_shed(tenant)

        threads = [
            threading.Thread(target=recorder, args=(f"t{i}",))
            for i in range(3)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            for t in threads:
                t.start()
            for _ in range(2000):
                snap = m.snapshot()
                for name in OUTCOME_FIELDS:
                    assert snap[name] == sum(
                        t[name] for t in snap["tenants"].values()
                    ), name
        finally:
            stop.set()
            for t in threads:
                t.join()
            sys.setswitchinterval(interval)


class TestLatencyBucketEdges:
    """Edge cases of the geometric-bucket percentile model."""

    def test_zero_latency_sample(self):
        h = LatencyHistogram()
        h.record(0.0)
        snap = h.snapshot()
        assert snap["count"] == 1
        assert snap["min"] == 0.0 and snap["max"] == 0.0
        assert snap["p50"] == 0.0 and snap["p99"] == 0.0
        assert snap["mean"] == 0.0

    def test_below_smallest_bucket_clamps_to_max(self):
        h = LatencyHistogram()
        h.record(1e-9)  # far below the 2^-20 s first bound
        snap = h.snapshot()
        assert snap["p50"] == 1e-9
        assert snap["p99"] == 1e-9

    def test_beyond_largest_bucket_lands_in_overflow(self):
        h = LatencyHistogram()
        h.record(10_000.0)  # above the 2^12 s last bound
        assert h.percentile(0.5) == 10_000.0
        assert h.percentile(0.99) == 10_000.0

    def test_p99_on_sparse_buckets(self):
        """99 fast samples + 1 slow one: p99 must reach into the slow
        sample's bucket, p50 must stay in the fast one."""
        h = LatencyHistogram()
        for _ in range(99):
            h.record(0.001)
        h.record(8.0)
        assert h.percentile(0.50) <= 2 ** -9  # fast bucket bound (~2 ms)
        assert h.percentile(0.99) <= 2 ** -9  # rank 99 is still fast
        assert h.percentile(1.00) == 8.0
        snap = h.snapshot()
        assert snap["p95"] < 0.01
        assert snap["max"] == 8.0

    def test_two_samples_p99_is_slow_one(self):
        h = LatencyHistogram()
        h.record(0.001)
        h.record(4.0)
        # rank ceil(0.99 * 2) = 2 -> the slow sample's bucket
        assert h.percentile(0.99) == 4.0

    def test_snapshot_is_deterministic(self):
        def build():
            h = LatencyHistogram()
            for value in (0.004, 0.001, 2.5, 0.0, 0.031, 0.004):
                h.record(value)
            return h

        a, b = build(), build()
        assert a.snapshot() == b.snapshot()
        # reading never mutates: repeated snapshots are identical
        assert a.snapshot() == a.snapshot()

    def test_identical_samples_collapse_to_one_bucket(self):
        h = LatencyHistogram()
        for _ in range(1000):
            h.record(0.2)
        snap = h.snapshot()
        assert snap["p50"] == snap["p95"] == snap["p99"] == 0.2


class TestPerTenantLatency:
    def test_tenant_snapshot_carries_latency(self):
        m = ServiceMetrics()
        m.record_served("alice", from_cache=False,
                        queue_seconds=0.0, total_seconds=0.1)
        m.record_served("alice", from_cache=False,
                        queue_seconds=0.0, total_seconds=0.3)
        m.record_submitted("bob")  # bob never completed a query
        snap = m.snapshot()
        alice = snap["tenants"]["alice"]["latency"]
        assert alice["count"] == 2
        assert alice["mean"] == 0.2
        assert alice["min"] == 0.1 and alice["max"] == 0.3
        assert "latency" not in snap["tenants"]["bob"]

    def test_tenant_latencies_are_independent(self):
        m = ServiceMetrics()
        m.record_served("fast", False, 0.0, 0.001)
        m.record_served("slow", False, 0.0, 5.0)
        snap = m.snapshot()
        assert snap["tenants"]["fast"]["latency"]["p99"] < 0.01
        assert snap["tenants"]["slow"]["latency"]["p99"] == 5.0
        # the global histogram still sees both
        assert snap["latency"]["count"] == 2
