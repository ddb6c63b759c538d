"""The multi-tenant query service front end.

A :class:`MatrixService` turns an engine into a long-lived service that
many tenants share, scaled horizontally across N engine replicas::

    submit ──► result-cache probe (shared) ──► consistent-hash route
                                                     │ by tenant
                     ┌───────────────┬───────────────┤
                     ▼               ▼               ▼
               replica-0       replica-1   ...  replica-N-1
               (own cluster,   (own cluster,    (own cluster,
                admission       admission        admission
                queue +         queue +          queue +
                dispatcher)     dispatcher)      dispatcher)
                     └───────────────┴───────────────┘
                       shared result cache + shared
                       calibration store + metrics

Each replica dispatches deficit-round-robin waves through its own engine
(see :mod:`repro.serving.pool`); with ``ServiceConfig.num_replicas=1``
the service behaves exactly like the original single-engine front end.

**Determinism.**  A replica executes exactly like a standalone engine —
per-query metric deltas, execute-lock serialization, stateless per-slot
runtime — so a fixed workload replayed through the service produces
bit-identical outputs and identical modeled per-query seconds/bytes to
running every query standalone through ``engine.execute()``, whether the
pool holds 1 replica or N.  Only wall-clock timing and observability
counters depend on scheduling and replica count.

**Robustness.**  Admission control (see :mod:`repro.serving.admission`)
guarantees a query never starts unless its estimated footprint fits its
replica's share of the service memory budget alongside the rest of its
wave — and the shares *sum* to the one configured budget, so N replicas
never collectively over-admit.  Over-budget queries wait in a bounded
queue or are shed with :class:`~repro.errors.ServiceOverloadedError`;
queued queries expire with :class:`~repro.errors.QueryTimeoutError`
after the configured wait.
"""

from __future__ import annotations

import itertools
import json
import logging
import threading
import time
from typing import Dict, List, Mapping, Optional

from repro.cluster.executor import SimulatedCluster
from repro.config import ServiceConfig
from repro.core import FuseMEEngine
from repro.errors import (
    ServingError,
    ServiceOverloadedError,
    SessionClosedError,
)
from repro.execution import Engine, Query, as_dag
from repro.matrix.distributed import BlockedMatrix
from repro.obs import QueryProfile
from repro.obs.accounting import ResourceAccountant
from repro.obs.httpd import MetricsHTTPServer
from repro.obs.prometheus import (
    cache_families,
    calibration_families,
    engine_families,
    render_exposition,
    replica_families,
    serving_families,
    slo_families,
    tenant_families,
)
from repro.obs.slo import SLOTracker
from repro.serving.admission import estimate_query_bytes
from repro.serving.metrics import ServiceMetrics
from repro.serving.pool import EngineReplica, ReplicaPool
from repro.serving.result_cache import ResultCache, result_key
from repro.serving.session import Session
from repro.serving.ticket import QueryTicket, ServedResult

__all__ = ["MatrixService", "QueryTicket", "ServedResult"]

logger = logging.getLogger("repro.serving")


def _merge_cache_stats(stats: List[Dict[str, object]]) -> Dict[str, object]:
    """Pool-wide view of per-replica cache stats: numeric fields sum,
    ``hit_rate`` is recomputed from the summed hits/misses, and flags
    (``enabled``) come from replica 0.  With one replica this returns its
    stats unchanged, so status consumers never see a shape change."""
    if len(stats) == 1:
        return dict(stats[0])
    merged: Dict[str, object] = dict(stats[0])
    for key in merged:
        if key == "hit_rate":
            continue
        if isinstance(merged[key], (int, float)) and not isinstance(
            merged[key], bool
        ):
            merged[key] = sum(s.get(key, 0) for s in stats)
    if "hit_rate" in merged:
        hits = sum(int(s.get("hits", 0)) for s in stats)
        misses = sum(int(s.get("misses", 0)) for s in stats)
        lookups = hits + misses
        merged["hit_rate"] = (hits / lookups) if lookups else 0.0
    return merged


class MatrixService:
    """Long-lived, multi-tenant matrix query service over a replica pool.

    Usage::

        with MatrixService(FuseMEEngine(config)) as service:
            alice = service.open_session("alice").bind("X", x_matrix)
            result = alice.execute(query)        # submit + wait
            ticket = alice.submit(other_query)   # async
            ...
            print(service.status())

    The engine handed in becomes replica 0 (with
    ``ServiceConfig.num_replicas=1`` — the default — the service is
    exactly the single-engine front end it always was); further replicas
    are ``engine.clone()``s.  The result cache, calibration store and
    service metrics are shared across all replicas; plan and slice caches
    stay per-replica (tenant affinity keeps them warm).
    """

    def __init__(
        self,
        engine: Optional[Engine] = None,
        config: Optional[ServiceConfig] = None,
        cluster: Optional[SimulatedCluster] = None,
    ):
        self.engine = engine if engine is not None else FuseMEEngine()
        self.config = config or ServiceConfig()
        budget = self.config.memory_budget_bytes
        if budget is None:
            budget = self.engine.config.cluster.total_memory_budget
        self.metrics = ServiceMetrics()
        self.result_cache = ResultCache(
            self.config.result_cache_entries, self.config.result_cache_bytes
        )
        self._lock = threading.Lock()
        self._sessions: Dict[str, Session] = {}
        self._session_seq = itertools.count(1)
        self._query_seq = itertools.count(1)
        self._closed = False
        self._close_lock = threading.Lock()
        self._last_logged = 0
        # the observability plane: per-tenant chargeback ledgers and SLO
        # burn-rate tracking — both strictly observational (nothing here is
        # ever read back by admission, routing, planning or execution)
        self.accountant: Optional[ResourceAccountant] = (
            ResourceAccountant(self.config.cse_adopter_cost_share)
            if self.config.accounting else None
        )
        self.slo: Optional[SLOTracker] = (
            SLOTracker(self.config.slos, bus=self.engine.telemetry)
            if self.config.slos else None
        )
        self._httpd: Optional[MetricsHTTPServer] = None
        self.pool = ReplicaPool(
            self.engine,
            self.config,
            result_cache=self.result_cache,
            metrics=self.metrics,
            memory_budget=budget,
            cluster=cluster,
            on_complete=self._maybe_log,
            accountant=self.accountant,
            slo=self.slo,
        )

    @property
    def cluster(self) -> SimulatedCluster:
        """Replica 0's cluster (the service's cluster, pre-pool): whole-job
        totals for work routed there keep accumulating on it."""
        return self.pool.replicas[0].cluster

    # -- sessions ---------------------------------------------------------

    def open_session(self, tenant: str) -> Session:
        """A new session for *tenant* (fair-share groups by tenant name;
        the replica router keys by tenant too, so a tenant's sessions all
        land on one replica)."""
        with self._lock:
            if self._closed:
                raise ServingError("service is closed")
            session_id = f"{tenant}/s{next(self._session_seq)}"
            session = Session(self, tenant, session_id)
            self._sessions[session_id] = session
            return session

    def _forget_session(self, session: Session) -> None:
        with self._lock:
            self._sessions.pop(session.session_id, None)

    # -- submission -------------------------------------------------------

    def submit(
        self,
        session: Session,
        query: Query,
        inputs: Optional[Mapping[str, BlockedMatrix]] = None,
        priority: int = 0,
    ) -> QueryTicket:
        """Queue *query* for *session*; returns immediately with a ticket.

        Raises :class:`~repro.errors.ServiceOverloadedError` (load shed)
        when the tenant's replica queue is full or the query could never
        fit the replica's memory budget, and propagates binding errors
        eagerly so a doomed query never occupies queue space.
        """
        if session.closed:
            raise SessionClosedError(f"session {session.session_id} is closed")
        dag = as_dag(query)
        bound = session.resolve_inputs(inputs)
        dag.validate_inputs(bound.keys())
        tenant = session.tenant
        query_id = f"{tenant}/q{next(self._query_seq)}"
        cost = estimate_query_bytes(dag, bound)
        ticket = QueryTicket(query_id, tenant, dag, bound, cost, priority)
        self.metrics.record_submitted(tenant)
        if self.accountant is not None:
            self.accountant.record_submitted(tenant)

        # the result cache is shared pool-wide and the planning signature
        # is identical across replica clones, so any replica's earlier
        # fill answers this probe
        cached = self.result_cache.get(
            result_key(self.engine.planning_signature(), dag, bound)
        )
        if cached is not None:
            served = ServedResult(
                query_id=query_id,
                tenant=tenant,
                result=cached,
                from_cache=True,
                queue_seconds=0.0,
                service_seconds=time.monotonic() - ticket.enqueued_at,
            )
            self.metrics.record_served(
                tenant, from_cache=True,
                queue_seconds=0.0, total_seconds=served.service_seconds,
            )
            if self.accountant is not None:
                self.accountant.charge_query(
                    tenant, wall_seconds=served.service_seconds,
                    from_cache=True,
                )
            if self.slo is not None:
                self.slo.record(
                    tenant, latency_seconds=served.service_seconds
                )
            ticket._resolve(served)
            self._maybe_log()
            return ticket

        if self._closed:
            raise ServingError("service is closed")
        replica = self.pool.replica_for(tenant)
        try:
            replica.offer(ticket)
        except ServiceOverloadedError:
            self.metrics.record_shed(tenant)
            if self.accountant is not None:
                self.accountant.record_shed(tenant)
            if self.slo is not None:
                self.slo.record(tenant, ok=False)
            raise
        return ticket

    def execute(
        self,
        session: Session,
        query: Query,
        inputs: Optional[Mapping[str, BlockedMatrix]] = None,
        priority: int = 0,
        timeout: Optional[float] = None,
    ) -> ServedResult:
        """Submit and block until the result is available."""
        return self.submit(session, query, inputs, priority).result(timeout)

    def explain(
        self,
        session: Session,
        query: Query,
        inputs: Optional[Mapping[str, BlockedMatrix]] = None,
    ) -> str:
        """Render *query*'s physical plan without executing it.

        Resolves bindings exactly like :meth:`submit` (so the plan reflects
        this session's inputs), plans and lowers on the tenant's replica
        engine — warming the plan cache a later execute will hit — and
        never opens a cluster stage, bypasses admission, and touches no
        result cache.
        """
        if session.closed:
            raise SessionClosedError(f"session {session.session_id} is closed")
        dag = as_dag(query)
        bound = session.resolve_inputs(inputs)
        dag.validate_inputs(bound.keys())
        replica = self.pool.replica_for(session.tenant)
        return replica.engine.explain(dag, bound)

    def profile(
        self,
        session: Session,
        query: Query,
        inputs: Optional[Mapping[str, BlockedMatrix]] = None,
        priority: int = 0,
        timeout: Optional[float] = None,
    ) -> QueryProfile:
        """Execute *query* through the normal admission path and return its
        cost-model accountability report (``profile.result`` carries the
        :class:`ExecutionResult`).  A result-cache hit returns the profile
        captured when the cached entry originally executed.
        """
        if not self.engine.config.telemetry:
            raise RuntimeError(
                "service.profile() needs telemetry; the engine was built "
                "with EngineConfig.telemetry=False"
            )
        served = self.execute(session, query, inputs, priority, timeout)
        profile = served.result.profile
        assert profile is not None
        return profile

    # -- replica management -----------------------------------------------

    def replica_for(self, tenant: str) -> EngineReplica:
        """The replica currently serving *tenant*."""
        return self.pool.replica_for(tenant)

    def rebalance(self) -> Dict[str, str]:
        """The current ``tenant -> replica name`` assignment over the
        tenants with open sessions (the explicit rebalance hook: call
        after :meth:`ReplicaPool.add_replica` / ``remove_replica`` to see
        where tenants moved)."""
        with self._lock:
            tenants = sorted({s.tenant for s in self._sessions.values()})
        return self.pool.rebalance(tenants)

    # -- observability ----------------------------------------------------

    def status(self) -> Dict[str, object]:
        """Everything observable about the service, as one plain dict."""
        with self._lock:
            sessions = len(self._sessions)
            closed = self._closed
        replicas = self.pool.status()
        snap = self.metrics.snapshot()
        snap.update(
            closed=closed,
            queue_depth=sum(int(r["queue_depth"]) for r in replicas),
            running=sum(int(r["running"]) for r in replicas),
            sessions=sessions,
            num_replicas=len(replicas),
            # pool-wide: the per-replica budgets sum back to the one
            # configured service budget
            memory_budget_bytes=sum(
                int(r["memory_budget_bytes"]) for r in replicas
            ),
            result_cache=self.result_cache.stats(),
            # cross-query CSE: in-flight dedup across tenants and replicas
            cse=self.pool.subplans.stats(),
            plan_cache=_merge_cache_stats([r["plan_cache"] for r in replicas]),
            slice_cache=_merge_cache_stats(
                [r["slice_cache"] for r in replicas]
            ),
            # one store across the pool, shared by every replica and tenant
            calibration=self.engine.calibration.stats(),
            cluster=self.cluster.metrics.snapshot(),
            replicas=replicas,
        )
        if self.accountant is not None:
            snap["accounting"] = self.accountant.snapshot()
        if self.slo is not None:
            snap["slo"] = self.slo.snapshot()
        return snap

    def accounting(self) -> str:
        """The per-tenant chargeback report (see
        :meth:`repro.obs.accounting.ResourceAccountant.render_chargeback`).
        Raises when accounting is disabled
        (``ServiceConfig(accounting=False)``)."""
        if self.accountant is None:
            raise RuntimeError(
                "accounting is disabled; enable it with "
                "ServiceConfig(accounting=True)"
            )
        return self.accountant.render_chargeback()

    def prometheus(self) -> str:
        """The whole service as one Prometheus text exposition page:
        engine stage totals and counters, all three cache layers,
        per-tenant query outcomes + latency quantiles, per-replica gauges,
        and — when enabled — the per-tenant accounting ledgers and SLO
        burn rates."""
        status = self.status()
        families = engine_families(status["cluster"])
        families += cache_families({
            "plan": status["plan_cache"],
            "slice": status["slice_cache"],
            "result": status["result_cache"],
        })
        families += calibration_families(status["calibration"])
        families += serving_families(status)
        families += replica_families(status["replicas"])
        if "accounting" in status:
            families += tenant_families(status["accounting"])
        if "slo" in status:
            families += slo_families(status["slo"])
        return render_exposition(families)

    def serve_metrics(
        self, port: int = 0, host: str = "127.0.0.1"
    ) -> MetricsHTTPServer:
        """Expose ``/metrics`` (Prometheus scrape) and ``/status`` (JSON)
        over HTTP on a daemon thread.  ``port=0`` picks an ephemeral port
        (``server.port``/``server.url`` tell you which); the endpoint stops
        with :meth:`close`, or earlier via ``server.close()``.  Idempotent
        per service: a live endpoint is returned as-is."""
        with self._lock:
            if self._closed:
                raise ServingError("service is closed")
            if self._httpd is None:
                self._httpd = MetricsHTTPServer(
                    {
                        "/metrics": lambda: (
                            "text/plain; version=0.0.4; charset=utf-8",
                            self.prometheus(),
                        ),
                        "/status": lambda: (
                            "application/json",
                            json.dumps(self.status(), default=str),
                        ),
                    },
                    host=host,
                    port=port,
                )
            return self._httpd

    def _maybe_log(self) -> None:
        every = self.config.log_every
        if not every:
            return
        with self._lock:
            completed = self.metrics.completed
            if completed < self._last_logged + every:
                return
            self._last_logged = completed
        queue_depth = self.pool.queue_depth
        running = self.pool.running
        logger.info("%s", self.metrics.log_line(queue_depth, running))

    # -- lifecycle --------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self, drain: bool = True, timeout: Optional[float] = None) -> None:
        """Stop accepting queries and shut every replica down.

        Idempotent and concurrency-safe: concurrent closers serialize on
        the close lock, a second close finds every replica already closed
        and returns quietly, and close during in-flight queries lets them
        finish (``drain=True``, the default) or fails queued ones with
        ServiceOverloadedError (``drain=False``).  Each replica's engine
        is closed after its dispatcher stops.
        """
        with self._close_lock:
            with self._lock:
                self._closed = True
                httpd, self._httpd = self._httpd, None
            if httpd is not None:
                httpd.close()
            self.pool.close(drain=drain, timeout=timeout)

    def __enter__(self) -> "MatrixService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"MatrixService(engine={self.engine.name!r}, "
            f"replicas={len(self.pool)}, "
            f"queue_depth={self.pool.queue_depth}, "
            f"running={self.pool.running}, closed={self._closed})"
        )
