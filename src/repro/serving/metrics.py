"""Service observability: per-tenant outcome counters and usage.

How many queries each tenant submitted / was served / had shed, and what
its executions used (modeled seconds, shuffled bytes, flops, wall seconds).
All of it is *observability only* — nothing here feeds the modeled
numbers, mirroring the counters convention of
:class:`~repro.cluster.metrics.MetricsCollector`.  A served query's wait and
latency are on its :class:`~repro.serving.ticket.ServedResult`
(``queue_seconds``, ``service_seconds``).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional

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

    def _tenant(self, tenant: str) -> TenantStats:
        stats = self._tenants.get(tenant)
        if stats is None:
            stats = self._tenants[tenant] = TenantStats()
        return stats

    # -- recording --------------------------------------------------------

    def record_submitted(self, tenant: str) -> None:
        with self._lock:
            self._tenant(tenant).submitted += 1

    def record_served(
        self,
        tenant: str,
        from_cache: bool,
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
                tenants[name] = tenant_snap
            snap: Dict[str, object] = {"tenants": tenants}
            snap.update(self._totals())
        return snap
