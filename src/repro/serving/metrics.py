"""Service observability: per-tenant counters and latency histograms.

Everything the operator of a long-lived service wants on one status page:
how many queries each tenant submitted / was served / had shed, what its
executions used (modeled seconds, shuffled bytes, flops, wall seconds), how
deep the queue is, how long queries wait and run (p50/p95/p99), and how
often the three cache layers hit.  All of it is *observability only* —
nothing here feeds the modeled numbers, mirroring the counters convention
of :class:`~repro.cluster.metrics.MetricsCollector`.

Latencies are recorded into fixed geometric buckets (factor-2 bounds from
~1 microsecond to ~1.1 hours), so percentile snapshots are O(1) memory,
deterministic, and safe to take at any time; a percentile resolves to its
bucket's upper bound clamped to the observed maximum.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional

#: Geometric bucket upper bounds: 2^-20 s (~1 us) .. 2^12 s (~1.1 h).
_BUCKET_BOUNDS = tuple(2.0 ** e for e in range(-20, 13))

#: Per-tenant outcome counters.
OUTCOME_FIELDS = (
    "submitted", "served", "cache_hits", "shed", "timed_out", "failed",
)

#: Per-tenant usage dimensions.  All but ``wall_seconds`` are modeled and
#: copied from each execution's metric delta, so summed over tenants they
#: equal the service cluster's :class:`~repro.cluster.metrics.MetricsCollector`
#: totals; ``wall_seconds`` is the real submit-to-completion time.
USAGE_FIELDS = (
    "modeled_seconds",
    "compute_seconds",
    "network_seconds",
    "shuffled_bytes",
    "flops",
    "wall_seconds",
)


class LatencyHistogram:
    """Fixed-bucket latency histogram with deterministic percentiles.

    Not internally locked — callers (:class:`ServiceMetrics`) synchronize.
    """

    def __init__(self) -> None:
        self._counts = [0] * (len(_BUCKET_BOUNDS) + 1)
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = 0.0

    def record(self, seconds: float) -> None:
        seconds = max(0.0, seconds)
        self._counts[bisect_left(_BUCKET_BOUNDS, seconds)] += 1
        self.count += 1
        self.total += seconds
        self.min = min(self.min, seconds)
        self.max = max(self.max, seconds)

    def percentile(self, q: float) -> float:
        """The smallest bucket bound covering fraction *q* of the samples."""
        if self.count == 0:
            return 0.0
        rank = min(self.count, max(1, math.ceil(q * self.count)))
        cumulative = 0
        for index, bucket_count in enumerate(self._counts):
            cumulative += bucket_count
            if cumulative >= rank:
                if index < len(_BUCKET_BOUNDS):
                    return min(_BUCKET_BOUNDS[index], self.max)
                return self.max
        return self.max

    def snapshot(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "mean": self.total / self.count if self.count else 0.0,
            "min": self.min if self.count else 0.0,
            "max": self.max,
            "p50": self.percentile(0.50),
            "p95": self.percentile(0.95),
            "p99": self.percentile(0.99),
        }


@dataclass
class TenantStats:
    """Lifetime counters and usage for one tenant."""

    submitted: int = 0
    served: int = 0
    cache_hits: int = 0
    shed: int = 0
    timed_out: int = 0
    failed: int = 0
    #: Resources of the queries executed for this tenant (cache hits add
    #: nothing: the execution that filled the cache was booked to its runner).
    usage: Dict[str, float] = field(
        default_factory=lambda: dict.fromkeys(USAGE_FIELDS, 0.0)
    )

    def snapshot(self) -> Dict[str, int]:
        """The outcome counters (usage is read separately)."""
        return {name: getattr(self, name) for name in OUTCOME_FIELDS}


class ServiceMetrics:
    """Thread-safe roll-up of everything the service observes."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._tenants: Dict[str, TenantStats] = {}
        #: Per-tenant end-to-end latency (fair-sharing visibility: a noisy
        #: neighbour shows up in *other* tenants' percentiles).
        self._tenant_latency: Dict[str, LatencyHistogram] = {}
        #: Wall-clock seconds queries spent waiting for admission.
        self.queue_wait = LatencyHistogram()
        #: Wall-clock seconds from submit to completion (queue + run).
        self.latency = LatencyHistogram()

    def _tenant(self, tenant: str) -> TenantStats:
        stats = self._tenants.get(tenant)
        if stats is None:
            stats = self._tenants[tenant] = TenantStats()
        return stats

    def _tenant_hist(self, tenant: str) -> LatencyHistogram:
        hist = self._tenant_latency.get(tenant)
        if hist is None:
            hist = self._tenant_latency[tenant] = LatencyHistogram()
        return hist

    # -- recording --------------------------------------------------------

    def record_submitted(self, tenant: str) -> None:
        with self._lock:
            self._tenant(tenant).submitted += 1

    def record_served(
        self,
        tenant: str,
        from_cache: bool,
        queue_seconds: float,
        total_seconds: float,
        usage: Optional[Mapping[str, float]] = None,
    ) -> None:
        """Book one served query; *usage* maps :data:`USAGE_FIELDS` names
        to amounts and is ``None`` for a result-cache hit."""
        with self._lock:
            stats = self._tenant(tenant)
            stats.served += 1
            if from_cache:
                stats.cache_hits += 1
            if usage is not None:
                for name, amount in usage.items():
                    stats.usage[name] += amount
            self.queue_wait.record(queue_seconds)
            self.latency.record(total_seconds)
            self._tenant_hist(tenant).record(total_seconds)

    def record_shed(self, tenant: str) -> None:
        with self._lock:
            self._tenant(tenant).shed += 1

    def record_timed_out(self, tenant: str) -> None:
        with self._lock:
            self._tenant(tenant).timed_out += 1

    def record_failed(self, tenant: str) -> None:
        with self._lock:
            self._tenant(tenant).failed += 1

    # -- reading ----------------------------------------------------------

    def _totals(self) -> Dict[str, int]:
        """Counters summed across tenants; the caller holds ``_lock``."""
        result = dict.fromkeys(OUTCOME_FIELDS, 0)
        for stats in self._tenants.values():
            for name in OUTCOME_FIELDS:
                result[name] += getattr(stats, name)
        return result

    def totals(self) -> Dict[str, int]:
        """Counters summed across tenants."""
        with self._lock:
            return self._totals()

    def snapshot(self) -> Dict[str, object]:
        """Everything observed, as one plain dict.

        One critical section: the top-level counters are always the sum of
        the per-tenant ones in the same snapshot.
        """
        with self._lock:
            tenants: Dict[str, Dict[str, object]] = {}
            for name, stats in sorted(self._tenants.items()):
                tenant_snap: Dict[str, object] = dict(stats.snapshot())
                tenant_snap["usage"] = dict(stats.usage)
                hist = self._tenant_latency.get(name)
                if hist is not None:
                    tenant_snap["latency"] = hist.snapshot()
                tenants[name] = tenant_snap
            snap: Dict[str, object] = {
                "tenants": tenants,
                "queue_wait": self.queue_wait.snapshot(),
                "latency": self.latency.snapshot(),
            }
            snap.update(self._totals())
        return snap
