"""Multi-tenant serving layer: sessions, admission control, result caching.

The engines in this repository execute one query at a time with exclusive
ownership of the simulated cluster.  :class:`MatrixService` turns one of
them into a long-lived query service: tenants open :class:`Session`\\ s
that bind named input matrices, an admission controller gates query start
on the cluster memory budget with per-tenant fair scheduling (deficit
round-robin), bounded queues, timeouts and load shedding, and a result
cache serves identical repeated queries without re-execution — all while
keeping modeled per-query metrics and outputs bit-identical to standalone
``engine.execute()`` runs.

One engine, one cluster, one admission queue, one dispatcher thread: see
DESIGN.md §9 for the architecture and determinism argument, §14 for the
replica pool, async front end and cross-query CSE that were measured and
removed.
"""

from repro.serving.admission import AdmissionController, estimate_query_bytes
from repro.serving.metrics import LatencyHistogram, ServiceMetrics, TenantStats
from repro.serving.result_cache import ResultCache, result_key
from repro.serving.service import MatrixService
from repro.serving.session import Session
from repro.serving.ticket import QueryTicket, ServedResult

__all__ = [
    "AdmissionController",
    "LatencyHistogram",
    "MatrixService",
    "QueryTicket",
    "ResultCache",
    "ServedResult",
    "ServiceMetrics",
    "Session",
    "TenantStats",
    "estimate_query_bytes",
    "result_key",
]
