"""Unit tests for SimulatedCluster and Stage."""

import pytest

from repro.cluster import SimulatedCluster, executor
from repro.errors import SimulatedTimeoutError

from tests.conftest import make_config


def cluster(**kwargs) -> SimulatedCluster:
    return SimulatedCluster(make_config(**kwargs))


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

    def test_timeout_enforced(self, monkeypatch):
        monkeypatch.setattr(executor, "TIMEOUT_SECONDS", 1e-9)
        c = SimulatedCluster(make_config())
        with pytest.raises(SimulatedTimeoutError):
            with c.stage("slow") as stage:
                stage.task().receive(10_000_000)

    def test_total_tasks(self):
        c = cluster(num_nodes=3, tasks_per_node=5)
        assert c.total_tasks == 15


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


class TestBeginQuery:
    def test_query_delta_holds_only_its_stages(self):
        """Each query's metrics delta holds only the stages recorded since
        its ``begin_query`` mark (per-query isolation on shared clusters)."""
        c = cluster()
        first_mark = c.begin_query()
        with c.stage("q1") as stage:
            stage.task().add_flops(10)
        first = c.metrics.diff_since(first_mark)
        second_mark = c.begin_query()
        with c.stage("q2") as stage:
            stage.task().add_flops(10)
        second = c.metrics.diff_since(second_mark)

        assert [s.name for s in first] == ["q1"]
        assert [s.name for s in second] == ["q2"]
        assert first.num_stages + second.num_stages == c.metrics.num_stages
