"""Unit tests for the event-driven cluster runtime (scheduler/faults/trace)."""

import json

import pytest

from repro.cluster import SimulatedCluster, TaskContext
from repro.cluster.runtime import (
    ClusterRuntime,
    FaultPlan,
    TraceRecorder,
    validate_chrome_trace,
)
from repro.config import ClusterConfig
from repro.errors import ClusterLostError, TaskRetriesExceededError

from tests.conftest import make_config


def small_cluster(**kwargs) -> ClusterConfig:
    defaults = dict(num_nodes=2, tasks_per_node=2, task_launch_overhead=0.01)
    defaults.update(kwargs)
    return ClusterConfig(**defaults)


def make_tasks(costs, flops=0) -> list:
    tasks = []
    for i, net in enumerate(costs):
        t = TaskContext(f"t{i}", 1 << 40)
        t.receive(net)
        if flops:
            t.add_flops(flops)
        tasks.append(t)
    return tasks


class TestScheduler:
    def test_empty_stage_takes_no_time(self):
        rt = ClusterRuntime(small_cluster())
        stage = rt.run_stage("s", [], trace_offset=5.0)
        assert stage.seconds == 0.0
        assert stage.end == 0.0

    def test_single_task_occupies_one_slot(self):
        rt = ClusterRuntime(small_cluster())
        stage = rt.run_stage("s", make_tasks([1_000_000]))
        assert stage.num_attempts == 1
        assert stage.attempts[0].slot == 0
        assert stage.attempts[0].outcome == "ok"
        assert stage.seconds > 0

    def test_uniform_tasks_round_robin_slots(self):
        rt = ClusterRuntime(small_cluster())  # 4 slots
        stage = rt.run_stage("s", make_tasks([1000] * 4))
        assert sorted(a.slot for a in stage.attempts) == [0, 1, 2, 3]
        assert stage.skew_ratio == pytest.approx(1.0)

    def test_second_wave_queues_behind_first(self):
        rt = ClusterRuntime(small_cluster())  # 4 slots
        one = rt.run_stage("s", make_tasks([1000] * 4)).seconds
        two = rt.run_stage("s", make_tasks([1000] * 8)).seconds
        assert two == pytest.approx(2 * one)

    def test_skewed_task_dominates_stage(self):
        """One huge task pins the stage to its own slot timeline."""
        rt = ClusterRuntime(small_cluster())
        stage = rt.run_stage("s", make_tasks([100, 100, 100, 10_000_000]))
        big = max(stage.attempts, key=lambda a: a.seconds)
        assert stage.end == pytest.approx(big.end)
        assert stage.skew_ratio > 3.0

    def test_start_offset_shifts_timeline(self):
        """The offset moves the trace timestamps, never the stage itself."""
        trace = TraceRecorder()
        rt = ClusterRuntime(small_cluster(), trace=trace)
        a = rt.run_stage("s", make_tasks([1000]))
        b = rt.run_stage("s", make_tasks([1000]), trace_offset=10.0)
        assert b == a
        first, second = trace.events
        assert first.ts == a.attempts[0].start == 0.0
        assert second.ts == 10.0
        assert second.duration == pytest.approx(first.duration)

    def test_deterministic_replay(self):
        plan = FaultPlan(crash_prob=0.2, straggler_factor=3.0, seed=7)
        runs = []
        for _ in range(2):
            rt = ClusterRuntime(small_cluster(), fault_plan=plan)
            runs.append(rt.run_stage("s", make_tasks([1000] * 12)))
        assert runs[0] == runs[1]


class TestFaults:
    def test_crash_causes_retry(self):
        # seed chosen so this stage crashes at least once but no task
        # exhausts its attempts
        plan = FaultPlan(crash_prob=0.3, seed=4)
        rt = ClusterRuntime(small_cluster(), fault_plan=plan)
        stage = rt.run_stage("s", make_tasks([1000] * 20))
        crashed = [a for a in stage.attempts if a.outcome == "crashed"]
        assert crashed, "seed must produce at least one crash"
        assert stage.num_retries == len(crashed)
        # every crashed attempt has a later attempt for the same task
        for a in crashed:
            later = [
                b
                for b in stage.attempts
                if b.task_id == a.task_id and b.attempt == a.attempt + 1
            ]
            assert later, a

    def test_retry_respects_backoff(self):
        plan = FaultPlan(crash_prob=0.3, retry_backoff_seconds=5.0, seed=4)
        rt = ClusterRuntime(small_cluster(), fault_plan=plan)
        stage = rt.run_stage("s", make_tasks([1000] * 20))
        for a in stage.attempts:
            if a.outcome != "crashed":
                continue
            retry = next(
                b
                for b in stage.attempts
                if b.task_id == a.task_id and b.attempt == a.attempt + 1
            )
            assert retry.start >= a.end + plan.backoff_seconds(a.attempt)

    def test_certain_crash_exhausts_attempts(self):
        plan = FaultPlan(crash_prob=1.0, max_attempts=3)
        rt = ClusterRuntime(small_cluster(), fault_plan=plan)
        with pytest.raises(TaskRetriesExceededError) as exc:
            rt.run_stage("s", make_tasks([1000]))
        assert exc.value.attempts == 3

    def test_straggler_stretches_attempt(self):
        plan = FaultPlan(straggler_factor=8.0, straggler_prob=1.0)
        healthy = ClusterRuntime(small_cluster()).run_stage(
            "s", make_tasks([1_000_000])
        )
        slowed = ClusterRuntime(small_cluster(), fault_plan=plan).run_stage(
            "s", make_tasks([1_000_000])
        )
        busy_healthy = healthy.seconds - 0.01  # strip launch overhead
        busy_slowed = slowed.seconds - 0.01
        assert busy_slowed == pytest.approx(8.0 * busy_healthy)
        assert slowed.attempts[0].slowdown == 8.0

    def test_node_loss_blacklists_and_retries(self):
        plan = FaultPlan(node_loss_prob=1.0)
        rt = ClusterRuntime(small_cluster(num_nodes=3), fault_plan=plan)
        stage = rt.run_stage("s", make_tasks([1000] * 12))
        assert stage.lost_node is not None
        lost = [a for a in stage.attempts if a.outcome == "node-lost"]
        # each of the lost node's 2 slots kills exactly one attempt
        assert len(lost) == 2
        assert all(a.node == stage.lost_node for a in lost)
        # the lost work reran successfully on surviving nodes
        for a in lost:
            retry = next(
                b
                for b in stage.attempts
                if b.task_id == a.task_id and b.attempt == a.attempt + 1
            )
            assert retry.node != stage.lost_node
        ok = [a for a in stage.attempts if a.outcome == "ok"]
        assert len(ok) == 12

    def test_single_node_loss_kills_cluster(self):
        plan = FaultPlan(node_loss_prob=1.0, max_attempts=10)
        rt = ClusterRuntime(small_cluster(num_nodes=1), fault_plan=plan)
        with pytest.raises(ClusterLostError):
            rt.run_stage("s", make_tasks([1000] * 4))

    def test_fault_plan_validation(self):
        with pytest.raises(ValueError):
            FaultPlan(crash_prob=1.5)
        with pytest.raises(ValueError):
            FaultPlan(straggler_factor=0.5)
        with pytest.raises(ValueError):
            FaultPlan(max_attempts=0)
        with pytest.raises(ValueError):
            FaultPlan(retry_backoff_seconds=-1.0)

    def test_draws_are_stable_across_processes(self):
        """blake2b-based draws, not hash(): values are pinned forever."""
        plan = FaultPlan(crash_prob=0.5, seed=1)
        draws = [plan.crashes("t0", a) for a in range(1, 6)]
        assert draws == [plan.crashes("t0", a) for a in range(1, 6)]
        assert any(draws) and not all(draws)


class TestTrace:
    def scheduled_cluster(self, **fault_kwargs):
        config = make_config(
            time_model="scheduled",
            fault_plan=FaultPlan(**fault_kwargs) if fault_kwargs else None,
        )
        return SimulatedCluster(config)

    def test_trace_auto_attached_in_scheduled_mode(self):
        c = self.scheduled_cluster()
        assert c.trace is not None
        c = SimulatedCluster(make_config())
        assert c.trace is None

    def test_stage_and_task_events_recorded(self):
        c = self.scheduled_cluster()
        with c.stage("s0") as stage:
            stage.task().receive(1000)
            stage.task().receive(2000)
        categories = {e.category for e in c.trace.events}
        assert categories == {"stage", "task", "transfer"}
        tasks = [e for e in c.trace.events if e.category == "task"]
        assert len(tasks) == 2

    def test_chrome_trace_is_valid_json(self, tmp_path):
        c = self.scheduled_cluster(crash_prob=0.3, seed=3)
        for i in range(3):
            with c.stage(f"s{i}") as stage:
                for j in range(6):
                    t = stage.task()
                    t.receive(1000 * (j + 1))
                    t.add_flops(100)
        path = tmp_path / "trace.json"
        c.trace.write_chrome_trace(str(path))
        document = json.loads(path.read_text())
        validate_chrome_trace(document)
        phases = {e["ph"] for e in document["traceEvents"]}
        assert "X" in phases and "M" in phases

    def test_validate_rejects_garbage(self):
        with pytest.raises(ValueError):
            validate_chrome_trace({"events": []})
        with pytest.raises(ValueError):
            validate_chrome_trace(
                {"traceEvents": [{"name": "x", "ph": "X", "pid": 0, "tid": 0,
                                  "ts": 0}]}
            )

    def test_summary_mentions_retries(self):
        c = self.scheduled_cluster(crash_prob=0.3, seed=3)
        with c.stage("s0") as stage:
            for j in range(20):
                stage.task().receive(1000)
        assert c.metrics.num_retries > 0
        assert "retry" in c.trace.summary()

    def test_reset_metrics_clears_trace(self):
        c = self.scheduled_cluster()
        with c.stage("s0") as stage:
            stage.task().receive(1000)
        assert len(c.trace) > 0
        c.reset_metrics()
        assert len(c.trace) == 0

    def test_aggregate_mode_records_stage_events_when_trace_attached(self):
        trace = TraceRecorder()
        c = SimulatedCluster(make_config(), trace=trace)
        with c.stage("s0") as stage:
            stage.task().receive(1000)
        assert any(e.category == "stage" for e in trace.events)
        assert not any(e.category == "task" for e in trace.events)
