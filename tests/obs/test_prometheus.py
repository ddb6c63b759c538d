"""Prometheus text exposition: rendering, validation, builders, sink."""

import pytest

from repro.obs import PrometheusSink, TelemetryEvent
from repro.obs.prometheus import (
    MetricFamily,
    cache_families,
    engine_families,
    render_exposition,
    serving_families,
    validate_exposition,
)


class TestMetricFamily:
    def test_rejects_bad_name(self):
        with pytest.raises(ValueError):
            MetricFamily("0bad")
        with pytest.raises(ValueError):
            MetricFamily("has space")

    def test_rejects_bad_type(self):
        with pytest.raises(ValueError):
            MetricFamily("ok", "timer")

    def test_add_chains_and_stringifies_labels(self):
        family = MetricFamily("m").add(1, tenant=7)
        assert family.samples == [({"tenant": "7"}, 1.0)]


class TestRenderExposition:
    def test_round_trip_validates(self):
        family = MetricFamily("repro_x_total", "counter", "Help text")
        family.add(3, phase="a").add(4.5, phase="b")
        text = render_exposition([family])
        assert "# HELP repro_x_total Help text" in text
        assert "# TYPE repro_x_total counter" in text
        assert 'repro_x_total{phase="a"} 3' in text
        assert 'repro_x_total{phase="b"} 4.5' in text
        assert validate_exposition(text) == 2

    def test_label_escaping(self):
        family = MetricFamily("m", "gauge")
        family.add(1, path='a"b\\c\nd')
        text = render_exposition([family])
        assert 'path="a\\"b\\\\c\\nd"' in text
        assert validate_exposition(text) == 1

    def test_suffix_pseudo_label_emits_summary_rows(self):
        family = MetricFamily("lat_seconds", "summary")
        family.add(0.5, tenant="t", quantile="0.50")
        family.add(2, tenant="t", __suffix="_count")
        family.add(1.0, tenant="t", __suffix="_sum")
        text = render_exposition([family])
        assert 'lat_seconds_count{tenant="t"} 2' in text
        assert 'lat_seconds_sum{tenant="t"} 1' in text
        assert "__suffix" not in text
        assert validate_exposition(text) == 3

    def test_label_order_deterministic(self):
        f1 = MetricFamily("m", "gauge").add(1, b="2", a="1")
        f2 = MetricFamily("m", "gauge").add(1, a="1", b="2")
        assert render_exposition([f1]) == render_exposition([f2])


class TestValidateExposition:
    def test_rejects_malformed_sample(self):
        with pytest.raises(ValueError, match="malformed sample"):
            validate_exposition("metric{unclosed 1\n")

    def test_rejects_bad_value(self):
        with pytest.raises(ValueError, match="bad sample value"):
            validate_exposition("metric abc\n")

    def test_rejects_duplicate_type(self):
        text = "# TYPE m gauge\n# TYPE m counter\n"
        with pytest.raises(ValueError, match="duplicate TYPE"):
            validate_exposition(text)

    def test_rejects_untyped_sample_when_types_present(self):
        text = "# TYPE m gauge\nm 1\nother 2\n"
        with pytest.raises(ValueError, match="no preceding TYPE"):
            validate_exposition(text)

    def test_rejects_duplicate_sample(self):
        text = 'm{a="1"} 1\nm{a="1"} 2\n'
        with pytest.raises(ValueError, match="duplicate sample"):
            validate_exposition(text)

    def test_rejects_malformed_labels(self):
        with pytest.raises(ValueError, match="malformed labels"):
            validate_exposition('m{a=unquoted} 1\n')

    def test_accepts_summary_companion_rows(self):
        text = (
            "# TYPE lat summary\n"
            'lat{quantile="0.5"} 1\n'
            "lat_sum 2\nlat_count 2\n"
        )
        assert validate_exposition(text) == 3


class TestBuilders:
    def test_engine_families(self):
        snapshot = {
            "num_stages": 3, "num_tasks": 12,
            "consolidation_bytes": 100, "aggregation_bytes": 50,
            "flops": 1000, "elapsed_seconds": 1.5,
            "peak_task_memory": 4096, "num_aborted_stages": 0,
            "counters": {"plan_cache_hits": 2, "slice_cache_misses": 1},
        }
        text = render_exposition(engine_families(snapshot))
        assert validate_exposition(text) > 0
        assert "repro_engine_stages_total 3" in text
        assert 'repro_engine_comm_bytes_total{phase="consolidation"} 100' in text
        assert (
            'repro_engine_counter_total{name="plan_cache_hits"} 2' in text
        )

    def test_engine_families_no_counters_key(self):
        text = render_exposition(engine_families({}))
        assert validate_exposition(text) > 0
        assert "counter_total{" not in text

    def test_cache_families(self):
        caches = {
            "plan": {"hits": 1, "misses": 2, "entries": 3},
            "slice": {"hits": 4, "misses": 5, "entries": 6, "bytes": 700},
        }
        text = render_exposition(cache_families(caches))
        assert validate_exposition(text) > 0
        assert 'repro_cache_hits_total{cache="plan"} 1' in text
        assert 'repro_cache_bytes{cache="slice"} 700' in text
        assert 'repro_cache_bytes{cache="plan"}' not in text

    def test_serving_families(self):
        status = {
            "queue_depth": 1, "running": 2, "sessions": 3,
            "tenants": {
                "alice": {
                    "submitted": 5, "served": 4, "cache_hits": 1,
                    "shed": 0, "timed_out": 0, "failed": 0,
                    "latency": {
                        "count": 4, "mean": 0.25,
                        "p50": 0.2, "p95": 0.4, "p99": 0.5,
                    },
                },
            },
        }
        text = render_exposition(serving_families(status))
        assert validate_exposition(text) > 0
        assert (
            'repro_serving_queries_total{outcome="served",tenant="alice"} 4'
            in text
        )
        assert (
            'repro_serving_latency_seconds{quantile="0.50",tenant="alice"} 0.2'
            in text
        )
        assert 'repro_serving_latency_seconds_count{tenant="alice"} 4' in text
        assert 'repro_serving_latency_seconds_sum{tenant="alice"} 1' in text
        assert "repro_serving_queue_depth 1" in text

    def test_serving_families_without_latency(self):
        status = {"tenants": {"t": {"submitted": 1}}}
        text = render_exposition(serving_families(status))
        assert validate_exposition(text) > 0
        assert "latency" not in text


class TestPrometheusSink:
    def test_counters_accumulate_gauges_overwrite(self):
        sink = PrometheusSink()
        sink.emit(TelemetryEvent("q.total", "counter", 1.0, {"e": "a"}))
        sink.emit(TelemetryEvent("q.total", "counter", 2.0, {"e": "a"}))
        sink.emit(TelemetryEvent("depth", "gauge", 5.0))
        sink.emit(TelemetryEvent("depth", "gauge", 3.0))
        text = sink.render()
        assert validate_exposition(text) == 2
        assert 'repro_q_total_total{e="a"} 3' in text
        assert "repro_depth 3" in text

    def test_ignores_valueless_and_other_kinds(self):
        sink = PrometheusSink()
        sink.emit(TelemetryEvent("evt", "event", 1.0))
        sink.emit(TelemetryEvent("c", "counter", None))
        assert sink.families() == []

    def test_sanitizes_metric_names(self):
        sink = PrometheusSink()
        sink.emit(TelemetryEvent("engine.totals/weird name", "gauge", 1.0))
        text = sink.render()
        assert validate_exposition(text) == 1
        assert "repro_engine_totals_weird_name 1" in text
