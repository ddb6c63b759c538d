"""Unit tests for the modeled-clock TraceRecorder attached to a cluster."""

import json

import pytest

from repro.cluster import SimulatedCluster, TraceRecorder
from repro.cluster.trace import validate_chrome_trace

from tests.conftest import make_config


def traced_cluster() -> SimulatedCluster:
    return SimulatedCluster(make_config(), trace=TraceRecorder())


class TestTrace:
    def test_chrome_trace_is_valid_json(self, tmp_path):
        c = traced_cluster()
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

    def test_reset_metrics_clears_trace(self):
        c = traced_cluster()
        with c.stage("s0") as stage:
            stage.task().receive(1000)
        assert len(c.trace) > 0
        c.reset_metrics()
        assert len(c.trace) == 0

    def test_stage_events_recorded_when_trace_attached(self):
        c = traced_cluster()
        with c.stage("s0") as stage:
            stage.task().receive(1000)
        assert {e.category for e in c.trace.events} == {"stage", "transfer"}
        assert c.trace.summary() == "trace: 1 stage events, 1 transfer events"
        assert SimulatedCluster(make_config()).trace is None
