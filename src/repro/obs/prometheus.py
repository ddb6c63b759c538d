"""Prometheus text-exposition export (version 0.0.4 line format).

Builders turn plain metric dicts — the shapes produced by
``MetricsCollector.snapshot()``, the caches' ``stats()`` and the serving
layer's ``status()`` — into :class:`MetricFamily` rows, and
:func:`render_exposition` renders them as the text format a Prometheus
scraper ingests.  :func:`validate_exposition` is a minimal line-format
parser used by tests and CI to prove the output actually parses.

Everything consumes plain data on purpose: this module knows nothing about
engines or services (see the package layering note in
:mod:`repro.obs`), so any layer can hand its numbers down.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.obs.bus import Sink, TelemetryEvent

#: Metric types of the text exposition format.
METRIC_TYPES = ("counter", "gauge", "summary", "histogram", "untyped")

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')

Labels = Mapping[str, str]
Sample = Tuple[Dict[str, str], float]


@dataclass
class MetricFamily:
    """One metric family: name, type, help text and labeled samples."""

    name: str
    mtype: str = "gauge"
    help: str = ""
    samples: List[Sample] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not _NAME_RE.match(self.name):
            raise ValueError(f"invalid metric name {self.name!r}")
        if self.mtype not in METRIC_TYPES:
            raise ValueError(
                f"metric type must be one of {METRIC_TYPES}, got {self.mtype!r}"
            )

    def add(self, value: float, **labels: str) -> "MetricFamily":
        self.samples.append(({k: str(v) for k, v in labels.items()}, float(value)))
        return self


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value: float) -> str:
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return f"{value:.10g}"


def render_exposition(families: List[MetricFamily]) -> str:
    """Render *families* as the Prometheus text exposition format."""
    lines: List[str] = []
    for family in families:
        if family.help:
            lines.append(f"# HELP {family.name} {family.help}")
        lines.append(f"# TYPE {family.name} {family.mtype}")
        for labels, value in family.samples:
            # the "__suffix" pseudo-label turns a sample into a summary's
            # _sum/_count companion row without a separate family
            labels = dict(labels)
            suffix = labels.pop("__suffix", "")
            name = f"{family.name}{suffix}" if suffix else family.name
            if labels:
                body = ",".join(
                    f'{key}="{_escape_label(str(labels[key]))}"'
                    for key in sorted(labels)
                )
                lines.append(f"{name}{{{body}}} {_format_value(value)}")
            else:
                lines.append(f"{name} {_format_value(value)}")
    return "\n".join(lines) + "\n"


def validate_exposition(text: str) -> int:
    """Validate Prometheus text exposition; returns the sample count.

    A minimal parser of the 0.0.4 line format: comment lines must be
    well-formed HELP/TYPE, TYPE must precede its samples and appear at most
    once per family, sample lines must have a valid metric name, parseable
    labels and a float value.  Raises ``ValueError`` naming the first bad
    line.
    """
    typed: Dict[str, str] = {}
    seen_samples: set = set()
    samples = 0
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) < 3 or parts[1] not in ("HELP", "TYPE"):
                raise ValueError(f"line {lineno}: malformed comment {line!r}")
            name = parts[2]
            if not _NAME_RE.match(name):
                raise ValueError(f"line {lineno}: invalid metric name {name!r}")
            if parts[1] == "TYPE":
                if len(parts) != 4 or parts[3] not in METRIC_TYPES:
                    raise ValueError(
                        f"line {lineno}: invalid TYPE line {line!r}"
                    )
                if name in typed:
                    raise ValueError(
                        f"line {lineno}: duplicate TYPE for {name!r}"
                    )
                typed[name] = parts[3]
            continue
        match = re.match(r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{(.*)\})?\s+(\S+)(\s+-?\d+)?$", line)
        if not match:
            raise ValueError(f"line {lineno}: malformed sample {line!r}")
        name, _, label_body, value = match.group(1), match.group(2), match.group(3), match.group(4)
        labels: Tuple[Tuple[str, str], ...] = ()
        if label_body:
            parsed = _LABEL_RE.findall(label_body)
            rebuilt = ",".join(f'{k}="{v}"' for k, v in parsed)
            if rebuilt != label_body:
                raise ValueError(f"line {lineno}: malformed labels {{{label_body}}}")
            labels = tuple(parsed)
        try:
            float(value)
        except ValueError:
            raise ValueError(f"line {lineno}: bad sample value {value!r}") from None
        base = name
        for suffix in ("_sum", "_count", "_bucket", "_total"):
            if name.endswith(suffix) and name[: -len(suffix)] in typed:
                base = name[: -len(suffix)]
                break
        if typed and base not in typed and name not in typed:
            raise ValueError(
                f"line {lineno}: sample {name!r} has no preceding TYPE"
            )
        key = (name, labels)
        if key in seen_samples:
            raise ValueError(f"line {lineno}: duplicate sample {line!r}")
        seen_samples.add(key)
        samples += 1
    return samples


# ---------------------------------------------------------------------------
# builders from plain metric dicts
# ---------------------------------------------------------------------------


def engine_families(
    snapshot: Mapping[str, Any], prefix: str = "repro_engine"
) -> List[MetricFamily]:
    """Families for a ``MetricsCollector.snapshot()`` dict: modeled stage
    totals plus every observability counter."""
    comm = MetricFamily(
        f"{prefix}_comm_bytes_total", "counter",
        "Modeled bytes moved, by transfer phase",
    )
    comm.add(snapshot.get("consolidation_bytes", 0), phase="consolidation")
    comm.add(snapshot.get("aggregation_bytes", 0), phase="aggregation")
    families = [
        MetricFamily(
            f"{prefix}_stages_total", "counter", "Cluster stages executed",
        ).add(snapshot.get("num_stages", 0)),
        MetricFamily(
            f"{prefix}_tasks_total", "counter", "Simulated tasks executed",
        ).add(snapshot.get("num_tasks", 0)),
        comm,
        MetricFamily(
            f"{prefix}_flops_total", "counter", "Modeled floating point operations",
        ).add(snapshot.get("flops", 0)),
        MetricFamily(
            f"{prefix}_elapsed_modeled_seconds_total", "counter",
            "Modeled elapsed seconds across stages",
        ).add(snapshot.get("elapsed_seconds", 0.0)),
        MetricFamily(
            f"{prefix}_peak_task_memory_bytes", "gauge",
            "Largest per-task memory footprint observed",
        ).add(snapshot.get("peak_task_memory", 0)),
        MetricFamily(
            f"{prefix}_aborted_stages_total", "counter",
            "Stages whose body raised before closing",
        ).add(snapshot.get("num_aborted_stages", 0)),
    ]
    counters = snapshot.get("counters") or {}
    if counters:
        family = MetricFamily(
            f"{prefix}_counter_total", "counter",
            "Engine observability counters",
        )
        for name in sorted(counters):
            family.add(counters[name], name=name)
        families.append(family)
    return families


def cache_families(
    caches: Mapping[str, Mapping[str, Any]], prefix: str = "repro_cache"
) -> List[MetricFamily]:
    """Families for ``{cache name -> stats() dict}`` (plan/slice/result)."""
    hits = MetricFamily(f"{prefix}_hits_total", "counter", "Cache hits")
    misses = MetricFamily(f"{prefix}_misses_total", "counter", "Cache misses")
    entries = MetricFamily(f"{prefix}_entries", "gauge", "Live cache entries")
    size = MetricFamily(f"{prefix}_bytes", "gauge", "Cached payload bytes")
    for name in sorted(caches):
        stats = caches[name]
        hits.add(stats.get("hits", 0), cache=name)
        misses.add(stats.get("misses", 0), cache=name)
        entries.add(stats.get("entries", 0), cache=name)
        if "bytes" in stats:
            size.add(stats["bytes"], cache=name)
    families = [hits, misses, entries]
    if size.samples:
        families.append(size)
    return families


def serving_families(
    status: Mapping[str, Any], prefix: str = "repro_serving"
) -> List[MetricFamily]:
    """Families for a ``MatrixService.status()`` dict: per-tenant query
    outcomes and latency quantiles, plus queue/running/session gauges."""
    outcomes = MetricFamily(
        f"{prefix}_queries_total", "counter",
        "Queries by tenant and outcome",
    )
    latency = MetricFamily(
        f"{prefix}_latency_seconds", "summary",
        "Per-tenant submit-to-completion latency",
    )
    tenants = status.get("tenants") or {}
    for tenant in sorted(tenants):
        stats = tenants[tenant]
        for outcome in ("submitted", "served", "cache_hits", "shed",
                        "timed_out", "failed"):
            outcomes.add(stats.get(outcome, 0), tenant=tenant, outcome=outcome)
        tenant_latency = stats.get("latency") or {}
        for quantile in ("p50", "p95", "p99"):
            if quantile in tenant_latency:
                latency.add(
                    tenant_latency[quantile],
                    tenant=tenant,
                    quantile=f"0.{quantile[1:]}",
                )
        if "count" in tenant_latency:
            latency.add(
                tenant_latency["count"], tenant=tenant, __suffix="_count"
            )
        if "mean" in tenant_latency and "count" in tenant_latency:
            latency.add(
                tenant_latency["mean"] * tenant_latency["count"],
                tenant=tenant,
                __suffix="_sum",
            )
    families = [outcomes]
    if latency.samples:
        families.append(latency)
    families.extend([
        MetricFamily(
            f"{prefix}_queue_depth", "gauge", "Queries waiting for admission",
        ).add(status.get("queue_depth", 0)),
        MetricFamily(
            f"{prefix}_running", "gauge", "Queries currently executing",
        ).add(status.get("running", 0)),
        MetricFamily(
            f"{prefix}_sessions", "gauge", "Open sessions",
        ).add(status.get("sessions", 0)),
    ])
    return families


def calibration_families(
    stats: Mapping[str, Any], prefix: str = "repro_calibration"
) -> List[MetricFamily]:
    """Families for a ``CalibrationStore.stats()`` dict: fit generation,
    observation volume, planner error and per-kernel fitted coefficients."""
    families = [
        MetricFamily(
            f"{prefix}_generation", "counter",
            "Calibration fit generation (bumped per committed batch)",
        ).add(stats.get("generation", 0)),
        MetricFamily(
            f"{prefix}_observations_total", "counter",
            "Unit profiles fed into the calibration store",
        ).add(stats.get("observations", 0)),
    ]
    error = stats.get("mean_abs_seconds_error")
    if error is not None:
        families.append(
            MetricFamily(
                f"{prefix}_mean_abs_seconds_error", "gauge",
                "Mean absolute relative error of planner-predicted seconds",
            ).add(error)
        )
    kernels = stats.get("kernels") or {}
    if kernels:
        samples = MetricFamily(
            f"{prefix}_kernel_samples", "gauge",
            "Observations in the fit window, per kernel and sparsity bucket",
        )
        residual = MetricFamily(
            f"{prefix}_kernel_residual_error", "gauge",
            "Mean absolute relative fit residual, per kernel and sparsity bucket",
        )
        for name in sorted(kernels):
            kernel = kernels[name]
            kind, _, bucket = name.partition("/")
            samples.add(kernel.get("samples", 0), kind=kind, bucket=bucket)
            if "residual_error" in kernel:
                residual.add(kernel["residual_error"], kind=kind, bucket=bucket)
        families.append(samples)
        if residual.samples:
            families.append(residual)
    return families


def tenant_families(
    accounting: Mapping[str, Any], prefix: str = "repro_tenant"
) -> List[MetricFamily]:
    """Families for a ``ResourceAccountant.snapshot()`` dict: per-tenant
    query outcomes and resource usage."""
    outcomes = MetricFamily(
        f"{prefix}_queries_total", "counter",
        "Accounted queries by tenant and outcome",
    )
    charged = MetricFamily(
        f"{prefix}_charged_seconds_total", "counter",
        "Modeled seconds charged to the tenant, by resource",
    )
    usage = MetricFamily(
        f"{prefix}_usage_seconds_total", "counter",
        "Raw modeled seconds of executions run for the tenant, by resource",
    )
    shuffled = MetricFamily(
        f"{prefix}_charged_shuffled_bytes_total", "counter",
        "Shuffled bytes charged to the tenant",
    )
    flops = MetricFamily(
        f"{prefix}_charged_flops_total", "counter",
        "Floating point operations charged to the tenant",
    )
    wall = MetricFamily(
        f"{prefix}_wall_seconds_total", "counter",
        "Real submit-to-completion wall seconds of served queries",
    )
    seconds_dims = ("modeled_seconds", "compute_seconds", "network_seconds")
    tenants = accounting.get("tenants") or {}
    for tenant in sorted(tenants):
        ledger = tenants[tenant]
        for outcome in ("submitted", "served", "cache_hits", "shed",
                        "timed_out", "failed"):
            outcomes.add(ledger.get(outcome, 0), tenant=tenant,
                         outcome=outcome)
        ledger_charged = ledger.get("charged") or {}
        ledger_usage = ledger.get("usage") or {}
        for dim in seconds_dims:
            label = dim[: -len("_seconds")]
            charged.add(ledger_charged.get(dim, 0.0), tenant=tenant,
                        resource=label)
            usage.add(ledger_usage.get(dim, 0.0), tenant=tenant,
                      resource=label)
        shuffled.add(ledger_charged.get("shuffled_bytes", 0.0), tenant=tenant)
        flops.add(ledger_charged.get("flops", 0.0), tenant=tenant)
        wall.add(ledger.get("wall_seconds", 0.0), tenant=tenant)
    return [outcomes, charged, usage, shuffled, flops, wall]


def slo_families(
    slo: Mapping[str, Mapping[str, Any]], prefix: str = "repro_slo"
) -> List[MetricFamily]:
    """Families for an ``SLOTracker.snapshot()`` dict: per-tenant targets,
    window burn rates, and the burning / alert-count state."""
    target = MetricFamily(
        f"{prefix}_latency_target_seconds", "gauge",
        "Latency target of the tenant's SLO",
    )
    objective = MetricFamily(
        f"{prefix}_objective", "gauge",
        "Good-fraction objective of the tenant's SLO",
    )
    burn = MetricFamily(
        f"{prefix}_burn_rate", "gauge",
        "Error-budget burn rate, per alert window",
    )
    error_rate = MetricFamily(
        f"{prefix}_window_error_rate", "gauge",
        "Observed error rate, per alert window",
    )
    burning = MetricFamily(
        f"{prefix}_burning", "gauge",
        "1 while the multi-window burn-rate alert is firing",
    )
    alerts = MetricFamily(
        f"{prefix}_alerts_total", "counter",
        "Burn-rate alerts fired since startup",
    )
    for tenant in sorted(slo):
        state = slo[tenant]
        target.add(state.get("latency_target_s", 0.0), tenant=tenant)
        objective.add(state.get("objective", 0.0), tenant=tenant)
        burning.add(1 if state.get("burning") else 0, tenant=tenant)
        alerts.add(state.get("alerts", 0), tenant=tenant)
        for label, window in (state.get("windows") or {}).items():
            burn.add(window.get("burn_rate", 0.0), tenant=tenant,
                     window=label)
            error_rate.add(window.get("error_rate", 0.0), tenant=tenant,
                           window=label)
    return [target, objective, burn, error_rate, burning, alerts]


class PrometheusSink(Sink):
    """Aggregates counter/gauge telemetry events into a scrapeable page.

    ``counter`` events accumulate by (name, attrs); ``gauge`` events keep
    the latest value.  Event names are sanitized into metric names
    (``.`` -> ``_``); attributes become labels.  :meth:`render` returns the
    text exposition for everything seen so far.
    """

    def __init__(self, prefix: str = "repro"):
        self.prefix = prefix
        self._counters: Dict[Tuple[str, Tuple[Tuple[str, str], ...]], float] = {}
        self._gauges: Dict[Tuple[str, Tuple[Tuple[str, str], ...]], float] = {}

    @staticmethod
    def _metric_name(name: str) -> str:
        cleaned = re.sub(r"[^a-zA-Z0-9_:]", "_", name)
        if not _NAME_RE.match(cleaned):
            cleaned = "_" + cleaned
        return cleaned

    def emit(self, event: TelemetryEvent) -> None:
        if event.value is None or event.kind not in ("counter", "gauge"):
            return
        name = self._metric_name(f"{self.prefix}_{event.name}")
        labels = tuple(sorted((str(k), str(v)) for k, v in event.attrs.items()))
        if event.kind == "counter":
            key = (name + "_total", labels)
            self._counters[key] = self._counters.get(key, 0.0) + event.value
        else:
            self._gauges[(name, labels)] = event.value

    def families(self) -> List[MetricFamily]:
        grouped: Dict[Tuple[str, str], MetricFamily] = {}
        for store, mtype in ((self._counters, "counter"), (self._gauges, "gauge")):
            for (name, labels), value in sorted(store.items()):
                family = grouped.get((name, mtype))
                if family is None:
                    family = grouped[(name, mtype)] = MetricFamily(
                        name, mtype, "Telemetry events"
                    )
                family.add(value, **dict(labels))
        return [grouped[key] for key in sorted(grouped)]

    def render(self) -> str:
        return render_exposition(self.families())
