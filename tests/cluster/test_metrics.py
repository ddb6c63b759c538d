"""Unit tests for MetricsCollector."""

from repro.cluster import MetricsCollector, StageRecord


def record(name="s", tasks=2, consolidation=100, aggregation=10,
           flops=1000, seconds=0.5, peak=50) -> StageRecord:
    return StageRecord(
        name=name,
        num_tasks=tasks,
        consolidation_bytes=consolidation,
        aggregation_bytes=aggregation,
        flops=flops,
        seconds=seconds,
        peak_task_memory=peak,
    )


class TestTotals:
    def test_comm_is_consolidation_plus_aggregation(self):
        m = MetricsCollector()
        m.record(record(consolidation=100, aggregation=10))
        m.record(record(consolidation=200, aggregation=20))
        assert m.consolidation_bytes == 300
        assert m.aggregation_bytes == 30
        assert m.comm_bytes == 330

    def test_elapsed_sums_stages(self):
        m = MetricsCollector()
        m.record(record(seconds=0.5))
        m.record(record(seconds=1.5))
        assert m.elapsed_seconds == 2.0

    def test_peak_task_memory_is_max(self):
        m = MetricsCollector()
        m.record(record(peak=50))
        m.record(record(peak=500))
        m.record(record(peak=5))
        assert m.peak_task_memory == 500

    def test_empty_collector(self):
        m = MetricsCollector()
        assert m.comm_bytes == 0
        assert m.elapsed_seconds == 0.0
        assert m.peak_task_memory == 0

    def test_num_tasks(self):
        m = MetricsCollector()
        m.record(record(tasks=3))
        m.record(record(tasks=4))
        assert m.num_tasks == 7


class TestBookkeeping:
    def test_mark_is_independent(self):
        m = MetricsCollector()
        m.bump("plan_cache_hits")
        m.record(record())
        baseline = m.mark()
        m.record(record())
        m.bump("plan_cache_hits")
        assert baseline.num_stages == 1
        assert baseline.counters == {"plan_cache_hits": 1}
        assert m.num_stages == 2

    def test_diff_since(self):
        m = MetricsCollector()
        m.record(record(consolidation=100))
        baseline = m.mark()
        m.record(record(consolidation=999))
        diff = m.diff_since(baseline)
        assert diff.num_stages == 1
        assert diff.consolidation_bytes == 999

    def test_diff_since_counter_deltas(self):
        m = MetricsCollector()
        m.bump("plan_cache_hits")
        baseline = m.mark()
        m.bump("plan_cache_hits", 2)
        m.bump("slice_cache_hits", 5)
        diff = m.diff_since(baseline)
        assert diff.counters == {"plan_cache_hits": 2, "slice_cache_hits": 5}

    def test_snapshot_is_a_plain_dict(self):
        """snapshot() embeds totals + counters without private fields."""
        m = MetricsCollector()
        m.record(record(consolidation=100, tasks=3))
        m.bump("plan_cache_hits")
        snap = m.snapshot()
        assert isinstance(snap, dict)
        assert snap["num_stages"] == 1
        assert snap["consolidation_bytes"] == 100
        assert snap["counters"] == {"plan_cache_hits": 1}
        # detached from the collector: later recording does not mutate it
        m.record(record())
        assert snap["num_stages"] == 1

    def test_iteration(self):
        m = MetricsCollector()
        m.record(record(name="a"))
        m.record(record(name="b"))
        assert [s.name for s in m] == ["a", "b"]

    def test_summary_mentions_key_figures(self):
        m = MetricsCollector()
        m.record(record())
        text = m.summary()
        assert "stages" in text and "comm" in text


class TestConcurrentReads:
    """Regression: lock-consistent reads while another thread mutates.

    A serving dispatcher thread records stages and bumps counters while
    other threads read totals.  Every read path must take a
    snapshot under the lock — iterating a mutating list/dict, or summing a
    list that grows mid-sum, produces torn values (or raises).  Each stage
    below writes internally-consistent numbers, so any torn read shows up
    as a broken invariant.
    """

    def test_readers_see_consistent_snapshots_under_writes(self):
        import threading

        m = MetricsCollector()
        stop = threading.Event()
        errors = []

        def writer():
            i = 0
            while not stop.is_set():
                m.record(StageRecord(
                    name=f"s{i}",
                    num_tasks=2,
                    consolidation_bytes=100,
                    aggregation_bytes=10,
                    flops=1000,
                    seconds=0.5,
                    peak_task_memory=50,
                    unit=i % 4,
                ))
                m.bump("slice_cache_hits", 2)
                i += 1

        def reader():
            baseline = m.mark()
            while not stop.is_set():
                try:
                    totals = m.totals()
                    # one snapshot => mutually consistent numbers
                    assert totals["num_tasks"] == 2 * totals["num_stages"]
                    assert totals["consolidation_bytes"] == (
                        100 * totals["num_stages"]
                    )
                    assert m.comm_bytes % 110 == 0
                    snap = m.snapshot()
                    assert snap["counters"].get("slice_cache_hits", 0) % 2 == 0
                    per_unit = m.per_unit_totals()
                    assert sum(
                        u["num_stages"] for u in per_unit.values()
                    ) <= m.num_stages
                    diff = m.diff_since(baseline)
                    assert diff.num_tasks == 2 * diff.num_stages
                    for stage in m:
                        assert stage.num_tasks == 2
                except Exception as exc:  # pragma: no cover - failure path
                    errors.append(exc)
                    stop.set()
                    return

        writers = [threading.Thread(target=writer) for _ in range(2)]
        readers = [threading.Thread(target=reader) for _ in range(3)]
        for t in writers + readers:
            t.start()
        import time
        time.sleep(0.4)
        stop.set()
        for t in writers + readers:
            t.join()
        assert not errors, errors[0]
        # final state is sane after the storm
        assert m.num_tasks == 2 * m.num_stages

    def test_concurrent_bumps_never_lose_increments(self):
        import threading

        m = MetricsCollector()

        def bump_many():
            for _ in range(1000):
                m.bump("hits")

        threads = [threading.Thread(target=bump_many) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert m.counter("hits") == 4000
