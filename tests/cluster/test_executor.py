"""Unit tests for SimulatedCluster and Stage."""

import pytest

from repro.cluster import SimulatedCluster, TraceRecorder
from repro.errors import SimulatedTimeoutError

from tests.conftest import make_config


def cluster(**kwargs) -> SimulatedCluster:
    return SimulatedCluster(make_config(**kwargs))


def traced_cluster(**kwargs) -> SimulatedCluster:
    return SimulatedCluster(make_config(**kwargs), trace=TraceRecorder())


class TestStageLifecycle:
    def test_stage_records_metrics(self):
        c = cluster()
        with c.stage("s0") as stage:
            task = stage.task()
            task.receive(1000)
            task.add_flops(500)
        assert c.metrics.num_stages == 1
        record = c.metrics.stages[0]
        assert record.consolidation_bytes == 1000
        assert record.flops == 500
        assert record.num_tasks == 1

    def test_task_ids_unique(self):
        c = cluster()
        with c.stage("s0") as stage:
            ids = {stage.task().task_id for _ in range(5)}
        assert len(ids) == 5

    def test_closed_stage_rejects_tasks(self):
        c = cluster()
        stage = c.stage("s0")
        stage.close()
        with pytest.raises(RuntimeError):
            stage.task()

    def test_double_close_rejected(self):
        c = cluster()
        stage = c.stage("s0")
        stage.close()
        with pytest.raises(RuntimeError):
            stage.close()

    def test_error_inside_stage_records_aborted_stage(self):
        """A failing stage body keeps its partial traffic visible (zero
        modeled seconds, aborted=True) instead of vanishing from metrics."""
        c = cluster()
        with pytest.raises(ValueError):
            with c.stage("s0") as stage:
                stage.task().receive(100)
                raise ValueError("boom")
        assert c.metrics.num_stages == 1
        assert c.metrics.num_aborted_stages == 1
        record = c.metrics.stages[0]
        assert record.aborted
        assert record.seconds == 0.0
        assert record.consolidation_bytes == 100
        assert c.metrics.elapsed_seconds == 0.0
        assert c.metrics.comm_bytes == 100

    def test_clean_stages_are_not_aborted(self):
        c = cluster()
        with c.stage("s0") as stage:
            stage.task().receive(100)
        assert c.metrics.num_aborted_stages == 0
        assert not c.metrics.stages[0].aborted

    def test_peak_memory_across_tasks(self):
        c = cluster()
        with c.stage("s0") as stage:
            stage.task().receive(100)
            stage.task().receive(700)
        assert c.metrics.stages[0].peak_task_memory == 700


class TestTiming:
    def test_elapsed_accumulates_across_stages(self):
        c = cluster()
        for name in ("a", "b"):
            with c.stage(name) as stage:
                stage.task().receive(10_000_000)
        assert c.metrics.elapsed_seconds > 0
        assert c.metrics.num_stages == 2

    def test_timeout_enforced(self):
        config = make_config(timeout_seconds=1e-9)
        c = SimulatedCluster(config)
        with pytest.raises(SimulatedTimeoutError):
            with c.stage("slow") as stage:
                stage.task().receive(10_000_000)

    def test_reset_metrics(self):
        c = cluster()
        with c.stage("a") as stage:
            stage.task().receive(10)
        c.reset_metrics()
        assert c.metrics.num_stages == 0

    def test_total_tasks(self):
        c = cluster(num_nodes=3, tasks_per_node=5)
        assert c.total_tasks == 15


class TestStageTrace:
    def test_trace_places_the_stage_on_the_run_clock(self):
        """An attached recorder positions each stage at the run's modeled
        clock when it closes: its span starts where the previous ones end
        and its transfer instant sits at the span's end."""
        c = traced_cluster()
        with c.stage("filler") as stage:
            stage.task().receive(5_000_000)
        offset = c.metrics.elapsed_seconds
        with c.stage("probe") as stage:
            for size in (1_000_003, 777_777, 31_337):
                task = stage.task()
                task.receive(size)
                task.add_flops(7 * size)
        seconds = c.metrics.stages[-1].seconds
        [probe_stage] = [
            e for e in c.trace.events
            if e.category == "stage" and e.name == "probe"
        ]
        assert probe_stage.ts == offset
        assert probe_stage.duration == pytest.approx(seconds)
        assert probe_stage.args == {"num_tasks": 3}
        [transfer] = [e for e in c.trace.events if e.name == "transfer:probe"]
        assert transfer.ts == offset + seconds


class TestUnitScope:
    def test_stages_inherit_thread_unit(self):
        c = cluster()
        with c.stage("outside") as stage:
            stage.task()
        with c.unit_scope(7):
            with c.stage("inside") as stage:
                stage.task()
        records = {s.name: s.unit for s in c.metrics}
        assert records == {"outside": None, "inside": 7}

    def test_unit_scope_nests_and_restores(self):
        c = cluster()
        with c.unit_scope(1):
            with c.unit_scope(2):
                assert c.current_unit == 2
            assert c.current_unit == 1
        assert c.current_unit is None


class TestQueryTrace:
    def test_query_trace_is_isolated_slice(self):
        """Each query's trace holds only its own events, independent of the
        live recorder (per-query trace isolation on shared clusters)."""
        c = traced_cluster()
        c.begin_query()
        with c.stage("q1") as stage:
            stage.task().add_flops(10)
        first = c.query_trace()
        c.begin_query()
        with c.stage("q2") as stage:
            stage.task().add_flops(10)
        second = c.query_trace()

        assert first is not c.trace and second is not c.trace
        first_names = {e.name for e in first.events}
        second_names = {e.name for e in second.events}
        assert any("q1" in n for n in first_names)
        assert not any("q2" in n for n in first_names)
        assert not any("q1" in n for n in second_names)
        assert len(first) + len(second) == len(c.trace)

    def test_query_trace_none_without_recorder(self):
        c = cluster()  # no trace attached
        c.begin_query()
        assert c.query_trace() is None
