"""Tests for formatting, config and error helpers."""

import pytest

from repro.config import ClusterConfig, EngineConfig, paper_cluster
from repro.errors import SimulatedTimeoutError, TaskOutOfMemoryError
from repro.utils import format_bytes, format_seconds, render_table


class TestFormatting:
    @pytest.mark.parametrize(
        "value,expected",
        [(0, "0 B"), (512, "512 B"), (2048, "2.0 KB"),
         (3 * 1024 * 1024, "3.0 MB"), (5 * 1024**3, "5.0 GB")],
    )
    def test_format_bytes(self, value, expected):
        assert format_bytes(value) == expected

    def test_format_bytes_negative(self):
        with pytest.raises(ValueError):
            format_bytes(-1)

    @pytest.mark.parametrize(
        "value,expected",
        [(0.5, "500.0 ms"), (30.0, "30.0 s"), (300.0, "5.0 min"),
         (7200.5, "2.00 h")],
    )
    def test_format_seconds(self, value, expected):
        assert format_seconds(value) == expected

    def test_render_table_alignment(self):
        text = render_table(["a", "bbb"], [["1", "2"], ["333", "4"]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert all(len(line) == len(lines[0]) for line in lines)

    def test_render_table_row_length_mismatch(self):
        with pytest.raises(ValueError):
            render_table(["a"], [["1", "2"]])


class TestConfig:
    def test_total_tasks(self):
        c = ClusterConfig(num_nodes=8, tasks_per_node=12)
        assert c.total_tasks == 96

    def test_invalid_cluster(self):
        with pytest.raises(ValueError):
            ClusterConfig(num_nodes=0)
        with pytest.raises(ValueError):
            ClusterConfig(network_bandwidth=0)
        with pytest.raises(ValueError):
            ClusterConfig(task_launch_overhead=-1.0)
        with pytest.raises(ValueError):
            ClusterConfig(input_split_bytes=0)
        with pytest.raises(ValueError):
            ClusterConfig(input_split_bytes=-4096)
        ClusterConfig(task_launch_overhead=0.0)  # paper mode: no overhead

    def test_invalid_engine(self):
        with pytest.raises(ValueError):
            EngineConfig(block_size=0)

    def test_with_cluster_returns_copy(self):
        base = EngineConfig()
        scaled = base.with_cluster(num_nodes=2)
        assert scaled.cluster.num_nodes == 2
        assert base.cluster.num_nodes == 8

    def test_with_options(self):
        base = EngineConfig()
        toggled = base.with_options(sparsity_exploitation=False)
        assert not toggled.sparsity_exploitation
        assert base.sparsity_exploitation

    def test_paper_cluster(self):
        config = paper_cluster()
        assert config.cluster.num_nodes == 8
        assert config.cluster.tasks_per_node == 12
        assert paper_cluster(num_nodes=4).cluster.num_nodes == 4


class TestErrors:
    def test_oom_message(self):
        err = TaskOutOfMemoryError("t3", 200, 100)
        assert "t3" in str(err)
        assert err.used_bytes == 200

    def test_timeout_message(self):
        err = SimulatedTimeoutError(100.0, 50.0)
        assert "100.0" in str(err)
