"""The engine replica pool: horizontal scale-out behind one service.

One :class:`ReplicaPool` owns N :class:`EngineReplica` instances.  Each
replica is a complete, independent execution stack — its own engine clone
(own plan cache, slice cache, execute lock), its own
:class:`~repro.cluster.executor.SimulatedCluster`, its own
:class:`~repro.serving.admission.AdmissionController` and dispatcher
thread — so replicas never contend on an execute lock and a pool of N
replicas runs N queries truly concurrently.  What replicas *share* is
exactly the state that must stay global for correctness and efficiency:

* the **result cache** — one tenant's cache fill answers every replica
  (keys carry the planning signature, which is identical across clones);
* the **calibration store** — every replica feeds and plans off one set
  of fitted throughput coefficients, so N replicas converge as fast as
  one busy engine would;
* the **service metrics** — tenants see one coherent set of counters.

Routing is consistent-hash by tenant (:mod:`repro.serving.routing`): a
tenant's queries always land on the same replica (session affinity — its
warm plan cache and admission queue), and resizing the pool moves only
the tenants the ring moves.

**Budget split.**  Per-replica admission budgets *partition* the service
memory budget (:func:`split_budget` — they sum to it exactly, never
multiply it) and are recomputed on every resize, so N replicas can never
collectively admit more than the one cluster-wide budget the operator
configured.

**Determinism.**  A replica executes exactly like a standalone engine —
the same planning signature, per-query metric deltas, and execute-lock
serialization — so any query's output and modeled metrics are
bit-identical whether the pool holds 1 replica or N.  Only wall-clock
timing and per-replica counters depend on the replica count.

This module is front-end plumbing: it imports nothing above the serving
layer (enforced by ``scripts/check_layers.py``) — engines arrive as
already-constructed objects and multiply via ``engine.clone()``.
"""

from __future__ import annotations

import logging
import threading
import time
from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from repro.cluster.executor import SimulatedCluster
from repro.cluster.parallel import parallel_map
from repro.config import ServiceConfig
from repro.errors import (
    QueryTimeoutError,
    ServingError,
    ServiceOverloadedError,
)
from repro.serving.admission import AdmissionController
from repro.serving.cse import SubplanIndex
from repro.serving.result_cache import ResultCache, result_key
from repro.serving.routing import ConsistentHashRing
from repro.serving.ticket import QueryTicket, ServedResult

if TYPE_CHECKING:
    from repro.execution import Engine
    from repro.obs.accounting import ResourceAccountant
    from repro.obs.slo import SLOTracker
    from repro.serving.metrics import ServiceMetrics

logger = logging.getLogger("repro.serving")


def _result_usage(result, cluster_config) -> Dict[str, float]:
    """An execution's resource usage in ledger dimensions.

    Modeled seconds / shuffled bytes / flops are the per-query metric
    delta verbatim (so ledgers sum to cluster totals); the compute and
    network second splits derive from the configured bandwidths — the same
    denominators the CFO cost model charges against.
    """
    metrics = result.metrics
    comm = float(metrics.comm_bytes)
    flops = float(metrics.flops)
    return {
        "modeled_seconds": float(metrics.elapsed_seconds),
        "compute_seconds": flops / (
            cluster_config.compute_bandwidth * cluster_config.num_nodes
        ),
        "network_seconds": comm / cluster_config.network_bandwidth,
        "shuffled_bytes": comm,
        "flops": flops,
    }


def split_budget(total: int, parts: int) -> List[int]:
    """Partition *total* bytes into *parts* near-equal shares.

    The shares sum to *total* exactly (the first ``total % parts`` shares
    carry the remainder) — the pool-wide admission invariant: N replica
    budgets together grant no more memory than one service budget did.
    """
    if parts <= 0:
        raise ValueError("parts must be positive")
    if total < parts:
        raise ValueError(
            f"memory budget of {total} bytes cannot be split into "
            f"{parts} positive per-replica budgets"
        )
    base, remainder = divmod(total, parts)
    return [base + (1 if i < remainder else 0) for i in range(parts)]


class EngineReplica:
    """One engine + cluster + admission queue + dispatcher thread.

    The per-replica port of the original single-engine service dispatch:
    queries arrive via :meth:`offer`, the dispatcher drains deficit
    round-robin waves through ``parallel_map``, and each finished query
    resolves its ticket with a :class:`ServedResult` naming this replica.
    """

    def __init__(
        self,
        index: int,
        engine: "Engine",
        config: ServiceConfig,
        memory_budget: int,
        result_cache: ResultCache,
        metrics: "ServiceMetrics",
        cluster: Optional[SimulatedCluster] = None,
        on_complete: Optional[Callable[[], None]] = None,
        subplans: Optional[SubplanIndex] = None,
        accountant: Optional["ResourceAccountant"] = None,
        slo: Optional["SLOTracker"] = None,
    ):
        self.index = index
        self.name = f"replica-{index}"
        self.engine = engine
        self.config = config
        self.cluster = cluster or SimulatedCluster(engine.config)
        self.result_cache = result_cache
        self.metrics = metrics
        # service-wide in-flight subplan registry (cross-query CSE); a
        # standalone replica gets a disabled index and dispatches as before
        self.subplans = subplans or SubplanIndex(enabled=False)
        # observability plane (both optional and strictly observational)
        self.accountant = accountant
        self.slo = slo
        self._on_complete = on_complete
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._admission = AdmissionController(config, memory_budget)
        self._running = 0
        self._closed = False
        #: Serializes close() against concurrent closers (not dispatch).
        self._close_lock = threading.Lock()
        # replica-local outcome counters (service totals live in the
        # shared ServiceMetrics; these answer "which replica did it")
        self.served = 0
        self.result_cache_hits = 0
        self.cse_hits = 0
        self.failed = 0
        self.timed_out = 0
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop,
            name=f"repro-serving-{self.name}",
            daemon=True,
        )
        self._dispatcher.start()

    # -- intake -----------------------------------------------------------

    def offer(self, ticket: QueryTicket) -> None:
        """Queue *ticket* on this replica (raises ServiceOverloadedError
        on shed, ServingError once the replica is closed)."""
        with self._cond:
            if self._closed:
                raise ServingError(f"{self.name} is closed")
            ticket.replica = self.name
            self._admission.offer(ticket)
            self._cond.notify_all()

    def set_memory_budget(self, memory_budget: int) -> None:
        """Re-point this replica's admission budget (pool resize)."""
        if memory_budget <= 0:
            raise ValueError("memory_budget must be positive")
        with self._cond:
            self._admission.memory_budget = memory_budget

    @property
    def memory_budget(self) -> int:
        with self._lock:
            return self._admission.memory_budget

    @property
    def queue_depth(self) -> int:
        with self._lock:
            return self._admission.depth

    @property
    def running(self) -> int:
        with self._lock:
            return self._running

    @property
    def closed(self) -> bool:
        return self._closed

    # -- dispatch ---------------------------------------------------------

    def _dispatch_loop(self) -> None:
        poll = self.config.dispatch_poll_seconds
        while True:
            with self._cond:
                while not self._closed and self._admission.depth == 0:
                    self._cond.wait(poll)
                expired = self._admission.expire(time.monotonic())
                wave = self._admission.next_wave()
                if (
                    self._closed
                    and not wave
                    and not expired
                    and self._admission.depth == 0
                ):
                    return
                self._running += len(wave)
            for ticket in expired:
                self._expire_ticket(ticket)
            if wave:
                # the wave drains on the same thread-pool path queries use
                # for intra-query parallelism; this replica's execute lock
                # serializes cluster-stage accounting inside
                parallel_map(self._run_one, wave, self.config.max_concurrency)

    def _trace_instant(self, name: str, **attrs) -> None:
        """Drop a trace instant on this replica's cluster timeline."""
        trace = self.cluster.trace
        if trace is not None:
            trace.instant(
                name, "cse",
                ts=self.cluster.metrics.elapsed_seconds,
                replica=self.name,
                **attrs,
            )

    def _run_one(self, ticket: QueryTicket) -> None:
        started = time.monotonic()
        queue_seconds = started - ticket.enqueued_at
        try:
            # recompute the key: a set_block between submit and execution
            # bumped the version, and the fresh result must be stored under
            # the content actually read
            key = result_key(
                self.engine.planning_signature(), ticket.dag, ticket.bound
            )
            cached = self.result_cache.get(key)
            cse_hit = False
            adopted_from: Optional[str] = None
            adopted_usage = None
            usage = None
            if cached is not None:
                result, from_cache = cached, True
            else:
                from_cache = False
                result = None
                # cross-query CSE: adopt the in-flight owner's result when
                # another query with this exact key is already executing
                # (deterministic execution makes the adoption bit-identical)
                lease = self.subplans.lease(key, ticket.tenant)
                if not lease.owner:
                    result = lease.wait()
                    cse_hit = result is not None
                    if cse_hit:
                        adopted_from = lease.owner_tenant
                        adopted_usage = lease.usage
                        self._trace_instant(
                            "cse:adopt",
                            tenant=ticket.tenant,
                            owner=adopted_from or "?",
                        )
                    else:
                        # owner failed or wait timed out: demoted to solo
                        self._trace_instant(
                            "cse:demote", tenant=ticket.tenant
                        )
                if result is None:
                    if lease.owner and self.subplans.enabled:
                        self._trace_instant(
                            "cse:owner", tenant=ticket.tenant
                        )
                    try:
                        result = self.engine.execute(
                            ticket.dag, ticket.bound, cluster=self.cluster
                        )
                    except Exception:
                        if lease.owner:
                            self.subplans.fail(key)
                        raise
                    usage = _result_usage(result, self.engine.config.cluster)
                    self.result_cache.put(key, result, pins=ticket.bound)
                    if lease.owner:
                        self.subplans.complete(key, result, usage=usage)
            total = time.monotonic() - ticket.enqueued_at
            served = ServedResult(
                query_id=ticket.query_id,
                tenant=ticket.tenant,
                result=result,
                from_cache=from_cache,
                queue_seconds=queue_seconds,
                service_seconds=total,
                replica=self.name,
            )
            profile = getattr(result, "profile", None)
            if profile is not None and profile.span is not None:
                # label the query's span tree with the replica that served
                # it (first server wins for shared cached/adopted results)
                profile.span.attrs.setdefault("replica", self.name)
            self.metrics.record_served(
                ticket.tenant, from_cache,
                queue_seconds=queue_seconds, total_seconds=total,
            )
            if self.accountant is not None:
                if cse_hit:
                    self.accountant.charge_adoption(
                        ticket.tenant, adopted_from, adopted_usage,
                        wall_seconds=total,
                    )
                else:
                    self.accountant.charge_query(
                        ticket.tenant, usage=usage,
                        wall_seconds=total, from_cache=from_cache,
                    )
            if self.slo is not None:
                self.slo.record(ticket.tenant, latency_seconds=total)
            with self._lock:
                self.served += 1
                if from_cache:
                    self.result_cache_hits += 1
                if cse_hit:
                    self.cse_hits += 1
            ticket._resolve(served)
        except Exception as exc:  # noqa: BLE001 - failures belong to the ticket
            self.metrics.record_failed(ticket.tenant)
            if self.accountant is not None:
                self.accountant.record_failed(ticket.tenant)
            if self.slo is not None:
                self.slo.record(ticket.tenant, ok=False)
            with self._lock:
                self.failed += 1
            ticket._fail(exc)
        finally:
            with self._cond:
                self._running -= 1
                self._cond.notify_all()
            if self._on_complete is not None:
                self._on_complete()

    def _expire_ticket(self, ticket: QueryTicket) -> None:
        waited = time.monotonic() - ticket.enqueued_at
        self.metrics.record_timed_out(ticket.tenant)
        if self.accountant is not None:
            self.accountant.record_timed_out(ticket.tenant)
        if self.slo is not None:
            self.slo.record(ticket.tenant, ok=False)
        with self._lock:
            self.timed_out += 1
        ticket._fail(QueryTimeoutError(
            ticket.query_id, waited, self.config.queue_timeout_seconds
        ))
        if self._on_complete is not None:
            self._on_complete()

    # -- observability ----------------------------------------------------

    def status(self) -> Dict[str, object]:
        """This replica's live state (feeds ``service.status()["replicas"]``
        and the ``repro_replica_*`` Prometheus families)."""
        with self._lock:
            running = self._running
            return {
                "name": self.name,
                "queue_depth": self._admission.depth,
                "running": running,
                "busy": running > 0,
                "closed": self._closed,
                "served": self.served,
                "result_cache_hits": self.result_cache_hits,
                "cse_hits": self.cse_hits,
                "failed": self.failed,
                "timed_out": self.timed_out,
                "memory_budget_bytes": self._admission.memory_budget,
                "plan_cache": self.engine.plan_cache.stats(),
                "slice_cache": self.engine.slice_cache.stats(),
                "calibration_generation": self.engine.calibration.generation,
            }

    # -- lifecycle --------------------------------------------------------

    def close(self, drain: bool = True, timeout: Optional[float] = None) -> None:
        """Stop this replica (idempotent, safe under concurrent callers).

        ``drain=True`` lets queued queries finish; ``drain=False`` fails
        them with ServiceOverloadedError.  The engine is closed after the
        dispatcher stops.
        """
        with self._close_lock:
            with self._cond:
                already = self._closed
                self._closed = True
                leftovers = (
                    [] if (drain or already) else self._admission.drain()
                )
                self._cond.notify_all()
            for ticket in leftovers:
                self.metrics.record_shed(ticket.tenant)
                if self.accountant is not None:
                    self.accountant.record_shed(ticket.tenant)
                if self.slo is not None:
                    self.slo.record(ticket.tenant, ok=False)
                ticket._fail(ServiceOverloadedError(
                    f"query {ticket.query_id} dropped: service shutting down"
                ))
            self._dispatcher.join(timeout)
            self.engine.close()

    def __repr__(self) -> str:
        return (
            f"EngineReplica(name={self.name!r}, "
            f"queue_depth={self.queue_depth}, running={self.running}, "
            f"closed={self._closed})"
        )


class ReplicaPool:
    """N engine replicas behind one consistent-hash router.

    Replica 0 wraps the engine (and optional cluster) the caller handed
    the service — single-replica pools behave exactly like the pre-pool
    service.  Replicas 1..N-1 are ``engine.clone()``s sharing the
    template's calibration store.
    """

    def __init__(
        self,
        engine: "Engine",
        config: ServiceConfig,
        *,
        result_cache: ResultCache,
        metrics: "ServiceMetrics",
        memory_budget: int,
        cluster: Optional[SimulatedCluster] = None,
        on_complete: Optional[Callable[[], None]] = None,
        subplans: Optional[SubplanIndex] = None,
        accountant: Optional["ResourceAccountant"] = None,
        slo: Optional["SLOTracker"] = None,
    ):
        self.config = config
        self.result_cache = result_cache
        self.metrics = metrics
        # one in-flight subplan index across every replica: concurrent
        # identical queries execute once no matter where routing lands them
        self.subplans = (
            subplans
            if subplans is not None
            else SubplanIndex(enabled=config.cross_query_cse)
        )
        # shared observability plane: one ledger book and one SLO tracker
        # no matter how many replicas serve the tenants
        self.accountant = accountant
        self.slo = slo
        self.calibration = engine.calibration
        self.total_memory_budget = memory_budget
        self._on_complete = on_complete
        self._template = engine
        self._lock = threading.Lock()
        self._closed = False

        count = config.num_replicas
        engines = [engine]
        for _ in range(1, count):
            engines.append(self._clone_engine())
        budgets = split_budget(memory_budget, count)
        self.replicas: List[EngineReplica] = []
        for index, (eng, budget) in enumerate(zip(engines, budgets)):
            self.replicas.append(self._make_replica(
                index, eng, budget, cluster if index == 0 else None
            ))
        self._by_name = {replica.name: replica for replica in self.replicas}
        self._ring = ConsistentHashRing(
            (replica.name for replica in self.replicas),
            vnodes=config.ring_vnodes,
        )
        self._next_index = count

    # -- replica construction ---------------------------------------------

    def _clone_engine(self) -> "Engine":
        clone = self._template.clone()
        # one calibration store across the pool: every replica feeds and
        # plans off the same fitted coefficients
        clone.calibration = self.calibration
        return clone

    def _make_replica(
        self,
        index: int,
        engine: "Engine",
        budget: int,
        cluster: Optional[SimulatedCluster],
    ) -> EngineReplica:
        replica = EngineReplica(
            index,
            engine,
            self.config,
            budget,
            self.result_cache,
            self.metrics,
            cluster=cluster,
            on_complete=self._on_complete,
            subplans=self.subplans,
            accountant=self.accountant,
            slo=self.slo,
        )
        self.calibration.register_client(replica.name)
        return replica

    # -- routing ----------------------------------------------------------

    def replica_for(self, tenant: str) -> EngineReplica:
        """The replica serving *tenant* (consistent hash by tenant name —
        a tenant's sessions always share one replica)."""
        name = self._ring.route(tenant)
        with self._lock:
            replica = self._by_name.get(name)
            if replica is None:
                raise ServingError(f"routed to unknown replica {name!r}")
            return replica

    def rebalance(self, tenants) -> Dict[str, str]:
        """Explicit rebalance hook: the current ``tenant -> replica name``
        assignment for *tenants* (callers drain/move state accordingly)."""
        return self._ring.assignments(tenants)

    # -- resize -----------------------------------------------------------

    def add_replica(self) -> EngineReplica:
        """Grow the pool by one replica; budgets re-split pool-wide and
        only the tenants the ring moves change replica."""
        with self._lock:
            if self._closed:
                raise ServingError("pool is closed")
            index = self._next_index
            self._next_index += 1
        engine = self._clone_engine()
        replica = self._make_replica(
            index, engine, max(1, self.total_memory_budget), None
        )
        with self._lock:
            self.replicas.append(replica)
            self._by_name[replica.name] = replica
            self._resplit_budgets_locked()
        # routing sees the replica only once it is fully serviceable
        self._ring.add(replica.name)
        return replica

    def remove_replica(self, name: Optional[str] = None) -> None:
        """Shrink the pool: stop routing to the replica, drain it, close
        it, and re-split budgets across the survivors."""
        with self._lock:
            if len(self.replicas) <= 1:
                raise ServingError("cannot remove the last replica")
            if name is None:
                name = self.replicas[-1].name
            replica = self._by_name.get(name)
            if replica is None:
                raise ServingError(f"no replica named {name!r}")
        # stop new routes first; in-flight and queued work then drains
        self._ring.remove(name)
        replica.close(drain=True)
        with self._lock:
            self.replicas.remove(replica)
            self._by_name.pop(name, None)
            self._resplit_budgets_locked()

    def _resplit_budgets_locked(self) -> None:
        budgets = split_budget(self.total_memory_budget, len(self.replicas))
        for replica, budget in zip(self.replicas, budgets):
            replica.set_memory_budget(budget)

    # -- aggregates -------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self.replicas)

    @property
    def queue_depth(self) -> int:
        return sum(replica.queue_depth for replica in self._snapshot())

    @property
    def running(self) -> int:
        return sum(replica.running for replica in self._snapshot())

    def _snapshot(self) -> List[EngineReplica]:
        with self._lock:
            return list(self.replicas)

    def status(self) -> List[Dict[str, object]]:
        """Per-replica status dicts, in index order."""
        return [replica.status() for replica in self._snapshot()]

    # -- lifecycle --------------------------------------------------------

    def close(self, drain: bool = True, timeout: Optional[float] = None) -> None:
        """Close every replica (idempotent; replicas close concurrently-safe
        on their own, so overlapping pool closers are fine too)."""
        with self._lock:
            self._closed = True
            replicas = list(self.replicas)
        for replica in replicas:
            replica.close(drain=drain, timeout=timeout)

    def __repr__(self) -> str:
        return (
            f"ReplicaPool(replicas={len(self)}, "
            f"queue_depth={self.queue_depth}, running={self.running})"
        )
