"""The multi-tenant query service front end.

A :class:`MatrixService` turns one engine into a long-lived service that
many tenants share::

    submit ──► result-cache probe ──► admission queue (bounded, per-tenant,
                                      deficit round-robin)
                                            │ one query at a time
                                            ▼
                                      dispatcher thread ──► engine.execute
                                            │               on the service's
                                            ▼               one cluster
                                  result cache + metrics

**Determinism.**  The service executes exactly like the standalone engine —
per-query metric deltas, one query executing at a time on the dispatcher
thread — so a fixed workload replayed through the service produces
bit-identical outputs and identical modeled per-query seconds/bytes to
running every query standalone through ``engine.execute()``.  Only
wall-clock timing and observability counters depend on scheduling.

**Robustness.**  Admission control (see :mod:`repro.serving.admission`)
guarantees a query never starts unless its estimated footprint fits the
service memory budget: an over-budget query, or one arriving at a full
queue, is shed with :class:`~repro.errors.ServiceOverloadedError`; the
rest wait in a bounded queue, and queued queries expire with
:class:`~repro.errors.QueryTimeoutError` after the configured wait.  If
anything escapes the dispatcher thread, the service is *broken*: every
queued ticket fails with a :class:`~repro.errors.ServingError` chained to
the cause, later submits raise it, ``status()["broken"]`` names it, and
``close()`` still returns.
"""

from __future__ import annotations

import itertools
import logging
import threading
import time
from typing import Dict, List, Mapping, Optional

from repro.cluster.executor import SimulatedCluster
from repro.cluster.simulation import eq2
from repro.config import ServiceConfig
from repro.core import FuseMEEngine
from repro.errors import (
    QueryTimeoutError,
    ServingError,
    ServiceOverloadedError,
    SessionClosedError,
)
from repro.execution import Engine, ExecutionResult, Query, as_dag
from repro.matrix.distributed import BlockedMatrix
from repro.serving.admission import AdmissionController, estimate_query_bytes
from repro.serving.metrics import ServiceMetrics
from repro.serving.result_cache import ResultCache, result_key
from repro.serving.session import Session
from repro.serving.ticket import QueryTicket, ServedResult

__all__ = ["MatrixService", "QueryTicket", "ServedResult"]

logger = logging.getLogger("repro.serving")

#: Seconds the idle dispatcher waits before it looks at the queue again
#: (so queued queries expire on time even while nothing is submitted).
DISPATCH_POLL_SECONDS = 0.02


def _result_usage(
    result, cluster_config, wall_seconds: float
) -> Dict[str, float]:
    """An execution's usage in :data:`~repro.serving.metrics.USAGE_FIELDS`.

    Modeled seconds / shuffled bytes / flops are the per-query metric
    delta verbatim (so per-tenant usage sums to cluster totals); the
    compute and network second splits are the two terms of Eq. 2
    (:func:`~repro.cluster.simulation.eq2`), the same denominators the
    cost model charges against.
    """
    metrics = result.metrics
    comm = float(metrics.comm_bytes)
    flops = float(metrics.flops)
    network_seconds, compute_seconds, _ = eq2(cluster_config, comm, flops)
    return {
        "modeled_seconds": float(metrics.elapsed_seconds),
        "compute_seconds": compute_seconds,
        "network_seconds": network_seconds,
        "shuffled_bytes": comm,
        "flops": flops,
        "wall_seconds": wall_seconds,
    }


class MatrixService:
    """Long-lived, multi-tenant matrix query service over one engine.

    Usage::

        with MatrixService(FuseMEEngine(config)) as service:
            alice = service.open_session("alice").bind("X", x_matrix)
            result = alice.execute(query)        # submit + wait
            ticket = alice.submit(other_query)   # async
            ...
            print(service.status())

    The service owns one :class:`SimulatedCluster` (whole-job totals keep
    accumulating on it) and shares the engine's plan cache, slice cache and
    calibration store across every tenant; the result cache is the
    service's own.
    """

    def __init__(
        self,
        engine: Optional[Engine] = None,
        config: Optional[ServiceConfig] = None,
    ):
        self.engine = engine if engine is not None else FuseMEEngine()
        self.config = config or ServiceConfig()
        self.cluster = SimulatedCluster(self.engine.config)
        budget = self.config.memory_budget_bytes
        if budget is None:
            budget = self.engine.config.cluster.total_memory_budget
        self.metrics = ServiceMetrics()
        self.result_cache = ResultCache(self.config.result_cache_entries)
        self._admission = AdmissionController(self.config, budget)
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._sessions: Dict[str, Session] = {}
        self._session_seq = itertools.count(1)
        self._query_seq = itertools.count(1)
        self._running = 0
        self._closed = False
        #: What killed the dispatcher thread; None while it is healthy.
        self._broken: Optional[BaseException] = None
        #: Serializes close() against concurrent closers (not dispatch).
        self._close_lock = threading.Lock()
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop,
            name="repro-serving-dispatch",
            daemon=True,
        )
        self._dispatcher.start()

    # -- sessions ---------------------------------------------------------

    def open_session(self, tenant: str) -> Session:
        """A new session for *tenant* (fair-share groups by tenant name)."""
        with self._lock:
            self._check_accepting()
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
    ) -> QueryTicket:
        """Queue *query* for *session*; returns immediately with a ticket.

        Raises :class:`~repro.errors.ServiceOverloadedError` (load shed)
        when the admission queue is full or the query could never fit the
        memory budget, and propagates binding errors eagerly so a doomed
        query never occupies queue space.
        """
        self._check_accepting()
        if session.closed:
            raise SessionClosedError(f"session {session.session_id} is closed")
        dag = as_dag(query)
        bound = session.resolve_inputs(inputs)
        dag.validate_inputs(bound.keys())
        tenant = session.tenant
        query_id = f"{tenant}/q{next(self._query_seq)}"
        cost = estimate_query_bytes(dag, bound)
        ticket = QueryTicket(query_id, tenant, dag, bound, cost)
        self.metrics.record_submitted(tenant)

        cached = self.result_cache.get(
            result_key(self.engine.planning_signature(), dag, bound)
        )
        if cached is not None:
            self._serve(ticket, cached, from_cache=True, queue_seconds=0.0)
            return ticket

        try:
            with self._cond:
                # re-checked under the lock: once closed or broken, the
                # dispatcher may have exited and nothing would drain the ticket
                self._check_accepting()
                self._admission.offer(ticket)
                self._cond.notify_all()
        except ServiceOverloadedError:
            self.metrics.record_shed(tenant)
            raise
        return ticket

    def execute(
        self,
        session: Session,
        query: Query,
        inputs: Optional[Mapping[str, BlockedMatrix]] = None,
        timeout: Optional[float] = None,
    ) -> ServedResult:
        """Submit and block until the result is available."""
        return self.submit(session, query, inputs).result(timeout)

    def _check_accepting(self) -> None:
        """Raise unless the service can still take work."""
        if self._broken is not None:
            raise ServingError(
                f"service is broken: its dispatcher died ({self._broken!r})"
            ) from self._broken
        if self._closed:
            raise ServingError("service is closed")

    # -- dispatch ---------------------------------------------------------

    def _dispatch_loop(self) -> None:
        poll = DISPATCH_POLL_SECONDS
        # tickets taken off the queue and not yet resolved by this loop
        expired: List[QueryTicket] = []
        try:
            while True:
                with self._cond:
                    while not self._closed and self._admission.depth == 0:
                        self._cond.wait(poll)
                    expired = self._admission.expire(time.monotonic())
                    ticket = self._admission.next_ticket()
                    if self._closed and ticket is None and not expired:
                        return
                    if ticket is not None:
                        self._running += 1
                for stale in expired:
                    self._expire_ticket(stale)
                expired = []
                if ticket is not None:
                    self._run_one(ticket)
        except BaseException as exc:  # noqa: BLE001 - the service must say so
            self._break(exc, expired)

    def _break(self, cause: BaseException, in_hand: List[QueryTicket]) -> None:
        """The dispatcher is dying of *cause*: fail every ticket it would
        have resolved and refuse new work."""
        logger.error("serving dispatcher died; the service is broken",
                     exc_info=cause)
        with self._cond:
            self._broken = cause
            orphans = [t for t in in_hand if not t.done()]
            orphans += self._admission.drain()
            self._cond.notify_all()
        for ticket in orphans:
            self.metrics.record_failed(ticket.tenant)
            error = ServingError(
                f"query {ticket.query_id} failed: the service's dispatcher "
                f"died ({cause!r})"
            )
            error.__cause__ = cause
            ticket._fail(error)

    def _run_one(self, ticket: QueryTicket) -> None:
        queue_seconds = time.monotonic() - ticket.enqueued_at
        try:
            # recompute the key: a set_block between submit and execution
            # bumped the version, and the fresh result must be stored under
            # the content actually read
            key = result_key(
                self.engine.planning_signature(), ticket.dag, ticket.bound
            )
            result = self.result_cache.get(key)
            from_cache = result is not None
            if not from_cache:
                result = self.engine.execute(
                    ticket.dag, ticket.bound, cluster=self.cluster
                )
                self.result_cache.put(key, result, ticket.bound)
            self._serve(ticket, result, from_cache, queue_seconds)
        except BaseException as exc:  # noqa: BLE001 - failures belong to the ticket
            self.metrics.record_failed(ticket.tenant)
            ticket._fail(exc)
            if not isinstance(exc, Exception):
                raise  # the ticket is resolved; now the dispatcher dies
        finally:
            with self._cond:
                self._running -= 1
                self._cond.notify_all()

    def _serve(
        self,
        ticket: QueryTicket,
        result: ExecutionResult,
        from_cache: bool,
        queue_seconds: float,
    ) -> None:
        """Resolve *ticket* with *result* and book the served outcome."""
        tenant = ticket.tenant
        total = time.monotonic() - ticket.enqueued_at
        usage = None if from_cache else _result_usage(
            result, self.engine.config.cluster, total
        )
        self.metrics.record_served(
            tenant, from_cache,
            queue_seconds=queue_seconds, total_seconds=total, usage=usage,
        )
        ticket._resolve(ServedResult(
            query_id=ticket.query_id,
            tenant=tenant,
            result=result,
            from_cache=from_cache,
            queue_seconds=queue_seconds,
            service_seconds=total,
        ))

    def _expire_ticket(self, ticket: QueryTicket) -> None:
        waited = time.monotonic() - ticket.enqueued_at
        self.metrics.record_timed_out(ticket.tenant)
        ticket._fail(QueryTimeoutError(
            ticket.query_id, waited, self.config.queue_timeout_seconds
        ))

    # -- observability ----------------------------------------------------

    def status(self) -> Dict[str, object]:
        """Everything observable about the service, as one plain dict."""
        with self._lock:
            queue_depth = self._admission.depth
            running = self._running
            sessions = len(self._sessions)
            closed = self._closed
            broken = self._broken
            memory_budget = self._admission.memory_budget
        snap = self.metrics.snapshot()
        snap.update(
            closed=closed,
            broken=None if broken is None else repr(broken),
            queue_depth=queue_depth,
            running=running,
            sessions=sessions,
            memory_budget_bytes=memory_budget,
            result_cache=self.result_cache.stats(),
            plan_cache=self.engine.plan_cache.stats(),
            slice_cache=self.engine.slice_cache.stats(),
            # one store per engine, shared by every tenant of this service
            calibration=self.engine.calibration.stats(),
            cluster=self.cluster.metrics.snapshot(),
        )
        return snap

    # -- lifecycle --------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self, drain: bool = True, timeout: Optional[float] = None) -> None:
        """Stop accepting queries and shut the dispatcher down.

        Idempotent and concurrency-safe: concurrent closers serialize on
        the close lock and a second close returns quietly.  Close during
        in-flight queries lets queued ones finish (``drain=True``, the
        default) or fails them with ServiceOverloadedError
        (``drain=False``).  The engine is closed after the dispatcher
        stops.
        """
        with self._close_lock:
            with self._cond:
                self._closed = True
                leftovers = [] if drain else self._admission.drain()
                self._cond.notify_all()
            for ticket in leftovers:
                self.metrics.record_shed(ticket.tenant)
                ticket._fail(ServiceOverloadedError(
                    f"query {ticket.query_id} dropped: service shutting down"
                ))
            self._dispatcher.join(timeout)
            self.engine.close()

    def __enter__(self) -> "MatrixService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:
        with self._lock:
            queue_depth = self._admission.depth
            running = self._running
        return (
            f"MatrixService(engine={self.engine.name!r}, "
            f"queue_depth={queue_depth}, "
            f"running={running}, closed={self._closed})"
        )
