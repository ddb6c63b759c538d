"""Service metrics: tenant counters, usage, snapshots."""

import sys
import threading

import pytest

from repro.serving.metrics import (
    OUTCOME_FIELDS,
    USAGE_FIELDS,
    ServiceMetrics,
    TenantStats,
)


def usage(modeled=1.0):
    return {name: modeled for name in USAGE_FIELDS}


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
        m.record_served("alice", from_cache=False)
        m.record_served("alice", from_cache=True)
        m.record_shed("bob")
        snap = m.snapshot()
        assert snap["tenants"]["alice"]["served"] == 2
        assert snap["tenants"]["alice"]["cache_hits"] == 1
        assert snap["tenants"]["bob"]["shed"] == 1
        assert snap["submitted"] == 3 and snap["served"] == 2

    def test_completed_counts_terminal_outcomes(self):
        m = ServiceMetrics()
        m.record_served("a", False)
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
        assert m.snapshot()["submitted"] == 2


class TestUsage:
    def test_executions_book_usage_and_cache_hits_do_not(self):
        m = ServiceMetrics()
        m.record_served("alice", False, usage=usage(2.0))
        m.record_served("alice", True)
        m.record_shed("bob")
        snap = m.snapshot()
        assert snap["tenants"]["alice"]["usage"] == usage(2.0)
        assert snap["tenants"]["alice"]["cache_hits"] == 1
        assert snap["tenants"]["bob"]["usage"] == usage(0.0)

    def test_conservation_under_concurrency(self):
        m = ServiceMetrics()

        def worker(tenant):
            for _ in range(50):
                m.record_served(tenant, False, usage=usage())
                m.record_served("shared", False, usage=usage())

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
                m.record_served(tenant, False, usage=usage())
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

