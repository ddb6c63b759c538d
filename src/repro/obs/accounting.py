"""Per-tenant resource accounting: who consumed what, as a chargeback ledger.

The serving layer records every query outcome here (see
:mod:`repro.serving.service`): served queries deposit their *usage* — modeled
compute/network seconds, modeled elapsed seconds, shuffled bytes, flops —
plus real wall seconds; shed, timed-out and failed queries bump their
outcome counters.  The accountant is strictly observational: nothing in it
is ever read back by planning or execution.

Each ledger keeps the raw resources of the executions run for its tenant
as a monotonic counter per resource dimension, under two names — **usage**
and **charged** — that every snapshot, report and exported family reads.
Nothing moves cost between tenants, so the two are equal per tenant and
their totals sum to the cluster-level
:class:`~repro.cluster.metrics.MetricsCollector` totals (the conservation
invariant the regression tests pin).

Layering: this module consumes plain dicts and floats only.  It must never
import ``core``, ``cluster`` or ``serving`` (enforced by
``scripts/check_layers.py``).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional

#: Resource dimensions a query charges (all modeled except wall seconds,
#: which rides separately — it depends on host load, never on the plan).
RESOURCE_FIELDS = (
    "modeled_seconds",
    "compute_seconds",
    "network_seconds",
    "shuffled_bytes",
    "flops",
)

#: Query outcome counters a ledger tracks.
OUTCOME_FIELDS = (
    "submitted",
    "served",
    "cache_hits",
    "shed",
    "timed_out",
    "failed",
)


def _zero_resources() -> Dict[str, float]:
    return {name: 0.0 for name in RESOURCE_FIELDS}


@dataclass
class TenantLedger:
    """One tenant's lifetime account: outcomes, usage, and charged cost."""

    tenant: str
    submitted: int = 0
    served: int = 0
    cache_hits: int = 0
    shed: int = 0
    timed_out: int = 0
    failed: int = 0
    #: Real wall seconds of this tenant's completed queries (queue + run).
    wall_seconds: float = 0.0
    #: Raw resources of executions charged here (monotonic per dimension).
    usage: Dict[str, float] = field(default_factory=_zero_resources)
    #: What the tenant is billed: equal to usage (no cost moves between
    #: tenants).
    charged: Dict[str, float] = field(default_factory=_zero_resources)

    def snapshot(self) -> Dict[str, object]:
        snap: Dict[str, object] = {
            name: getattr(self, name) for name in OUTCOME_FIELDS
        }
        snap["wall_seconds"] = self.wall_seconds
        snap["usage"] = dict(self.usage)
        snap["charged"] = dict(self.charged)
        return snap


class ResourceAccountant:
    """Thread-safe per-tenant ledger book (the chargeback source of truth)."""

    def __init__(self):
        self._lock = threading.Lock()
        self._ledgers: Dict[str, TenantLedger] = {}

    def _ledger(self, tenant: str) -> TenantLedger:
        ledger = self._ledgers.get(tenant)
        if ledger is None:
            ledger = self._ledgers[tenant] = TenantLedger(tenant)
        return ledger

    # -- recording ---------------------------------------------------------

    def record_submitted(self, tenant: str) -> None:
        with self._lock:
            self._ledger(tenant).submitted += 1

    def record_shed(self, tenant: str) -> None:
        with self._lock:
            self._ledger(tenant).shed += 1

    def record_timed_out(self, tenant: str) -> None:
        with self._lock:
            self._ledger(tenant).timed_out += 1

    def record_failed(self, tenant: str) -> None:
        with self._lock:
            self._ledger(tenant).failed += 1

    def charge_query(
        self,
        tenant: str,
        usage: Optional[Mapping[str, float]] = None,
        wall_seconds: float = 0.0,
        from_cache: bool = False,
    ) -> None:
        """Charge one served query to *tenant*.

        *usage* maps :data:`RESOURCE_FIELDS` names to amounts (missing
        keys charge zero); cache hits pass no usage — the execution that
        filled the cache was already charged to whoever ran it.
        """
        with self._lock:
            ledger = self._ledger(tenant)
            ledger.served += 1
            ledger.wall_seconds += max(0.0, wall_seconds)
            if from_cache:
                ledger.cache_hits += 1
            if usage:
                for name in RESOURCE_FIELDS:
                    amount = float(usage.get(name, 0.0))
                    ledger.usage[name] += amount
                    ledger.charged[name] += amount

    # -- reading -----------------------------------------------------------

    def tenants(self) -> list:
        with self._lock:
            return sorted(self._ledgers)

    def totals(self) -> Dict[str, object]:
        """Outcome counters, usage and charged amounts summed over tenants.

        ``totals()["usage"] == totals()["charged"]`` per dimension.
        """
        with self._lock:
            ledgers = list(self._ledgers.values())
        totals: Dict[str, object] = {name: 0 for name in OUTCOME_FIELDS}
        totals["wall_seconds"] = 0.0
        usage = _zero_resources()
        charged = _zero_resources()
        for ledger in ledgers:
            for name in OUTCOME_FIELDS:
                totals[name] += getattr(ledger, name)
            totals["wall_seconds"] += ledger.wall_seconds
            for name in RESOURCE_FIELDS:
                usage[name] += ledger.usage[name]
                charged[name] += ledger.charged[name]
        totals["usage"] = usage
        totals["charged"] = charged
        return totals

    def snapshot(self) -> Dict[str, object]:
        """The whole book as one plain dict (feeds ``repro_tenant_*``)."""
        with self._lock:
            tenants = {
                name: ledger.snapshot()
                for name, ledger in sorted(self._ledgers.items())
            }
        return {
            "tenants": tenants,
            "totals": self.totals(),
        }

    def render_chargeback(self) -> str:
        """The chargeback report: one row per tenant, a totals row last."""
        snap = self.snapshot()
        header = [
            "tenant", "served", "cache", "shed", "t/o", "fail",
            "charged_s", "compute_s", "network_s", "shuffled_MB", "wall_s",
        ]
        rows = [header]

        def row(name: str, data: Mapping[str, object]) -> list:
            charged = data["charged"]
            return [
                name,
                str(data["served"]),
                str(data["cache_hits"]),
                str(data["shed"]),
                str(data["timed_out"]),
                str(data["failed"]),
                f"{charged['modeled_seconds']:.4f}",
                f"{charged['compute_seconds']:.4f}",
                f"{charged['network_seconds']:.4f}",
                f"{charged['shuffled_bytes'] / 1e6:.2f}",
                f"{data['wall_seconds']:.3f}",
            ]

        for tenant, data in snap["tenants"].items():
            rows.append(row(tenant, data))
        rows.append(row("TOTAL", snap["totals"]))
        widths = [max(len(r[col]) for r in rows) for col in range(len(header))]
        lines = ["chargeback report"]
        for r in rows:
            lines.append("  ".join(
                cell.ljust(width) for cell, width in zip(r, widths)
            ).rstrip())
        return "\n".join(lines)

    def __repr__(self) -> str:
        with self._lock:
            return f"ResourceAccountant(tenants={len(self._ledgers)})"
