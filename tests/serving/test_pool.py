"""Replica pool: budget partitioning, affinity, shared state, lifecycle."""

import threading
from functools import partial

import pytest

from repro.config import ServiceConfig
from repro.core import FuseMEEngine
from repro.errors import ServingError, ServiceOverloadedError
from repro.lang import matrix_input
from repro.matrix import rand_dense
from repro.serving import MatrixService, QueryTicket, split_budget

from tests.conftest import make_config
from tests.serving.test_service import StubEngine

QUERY = matrix_input("X", 50, 50, 25) * 2.0


def make_service(engine=None, **options):
    options.setdefault("dispatch_poll_seconds", 0.005)
    return MatrixService(
        engine=engine or StubEngine(), config=ServiceConfig(**options)
    )


def x_matrix(seed=1):
    return rand_dense(50, 50, 25, seed=seed)


# -- budget partitioning ---------------------------------------------------


def test_split_budget_sums_exactly():
    for total, parts in [(100, 3), (7, 7), (1 << 30, 4), (11, 2)]:
        shares = split_budget(total, parts)
        assert len(shares) == parts
        assert sum(shares) == total
        assert max(shares) - min(shares) <= 1
        assert all(share > 0 for share in shares)


def test_split_budget_rejects_bad_input():
    with pytest.raises(ValueError):
        split_budget(100, 0)
    with pytest.raises(ValueError):
        split_budget(2, 3)


def test_per_replica_budgets_sum_to_service_budget():
    budget = 90 * 1024 * 1024
    service = make_service(num_replicas=3, memory_budget_bytes=budget)
    try:
        status = service.status()
        shares = [
            r["memory_budget_bytes"] for r in status["replicas"]
        ]
        assert len(shares) == 3
        assert sum(shares) == budget
        assert status["memory_budget_bytes"] == budget
    finally:
        service.close()


def test_budgets_resplit_on_resize():
    budget = 90 * 1024 * 1024
    service = make_service(num_replicas=2, memory_budget_bytes=budget)
    try:
        service.pool.add_replica()
        shares = [r.memory_budget for r in service.pool.replicas]
        assert len(shares) == 3 and sum(shares) == budget
        service.pool.remove_replica()
        shares = [r.memory_budget for r in service.pool.replicas]
        assert len(shares) == 2 and sum(shares) == budget
    finally:
        service.close()


# -- routing / affinity ----------------------------------------------------


def test_tenant_session_affinity():
    service = make_service(num_replicas=3, result_cache_entries=0)
    try:
        for tenant in ("alice", "bob", "carol", "dave"):
            expected = service.replica_for(tenant).name
            session = service.open_session(tenant).bind("X", x_matrix())
            for _ in range(3):
                served = session.execute(QUERY, timeout=10.0)
                assert served.replica == expected
            other = service.open_session(tenant).bind("X", x_matrix(2))
            assert (
                other.execute(QUERY, timeout=10.0).replica == expected
            ), "all of a tenant's sessions share one replica"
    finally:
        service.close()


def test_tenants_spread_across_replicas():
    service = make_service(num_replicas=4, result_cache_entries=0)
    try:
        routed = {
            service.replica_for(f"tenant-{i}").name for i in range(64)
        }
        assert len(routed) > 1
    finally:
        service.close()


def test_rebalance_reports_current_assignment():
    service = make_service(num_replicas=2)
    try:
        service.open_session("alice")
        service.open_session("bob")
        assignment = service.rebalance()
        assert set(assignment) == {"alice", "bob"}
        for tenant, name in assignment.items():
            assert service.replica_for(tenant).name == name
    finally:
        service.close()


def test_remove_replica_reroutes_its_tenants():
    service = make_service(num_replicas=3, result_cache_entries=0)
    try:
        victim = service.pool.replicas[-1].name
        orphans = [
            f"tenant-{i}" for i in range(64)
            if service.replica_for(f"tenant-{i}").name == victim
        ]
        assert orphans, "some tenant should route to the victim replica"
        service.pool.remove_replica(victim)
        for tenant in orphans:
            assert service.replica_for(tenant).name != victim
        # orphaned tenants still get served after the resize
        session = service.open_session(orphans[0]).bind("X", x_matrix())
        assert session.execute(QUERY, timeout=10.0).output() is not None
    finally:
        service.close()


def test_cannot_remove_last_replica():
    service = make_service(num_replicas=1)
    try:
        with pytest.raises(ServingError):
            service.pool.remove_replica()
    finally:
        service.close()


# -- shared state ----------------------------------------------------------


def test_result_cache_is_shared_across_replicas():
    service = make_service(num_replicas=4)
    try:
        matrix = x_matrix()
        first_tenant = None
        hit = None
        # find two tenants on different replicas, sharing one bound matrix
        for i in range(64):
            tenant = f"tenant-{i}"
            replica = service.replica_for(tenant).name
            if first_tenant is None:
                first_tenant = (tenant, replica)
                session = service.open_session(tenant).bind("X", matrix)
                first = session.execute(QUERY, timeout=10.0)
                assert not first.from_cache
            elif replica != first_tenant[1]:
                session = service.open_session(tenant).bind("X", matrix)
                hit = session.execute(QUERY, timeout=10.0)
                break
        assert hit is not None, "no second replica received a tenant"
        assert hit.from_cache, "one replica's fill must answer another's probe"
    finally:
        service.close()


def test_calibration_store_is_shared_and_registered():
    engine = FuseMEEngine(make_config())
    service = MatrixService(engine, ServiceConfig(num_replicas=3))
    try:
        replicas = service.pool.replicas
        for replica in replicas:
            assert replica.engine.calibration is engine.calibration
        clients = service.status()["calibration"]["clients"]
        assert [r.name for r in replicas] == clients
    finally:
        service.close()


def test_clones_preserve_planning_signature():
    engine = FuseMEEngine(make_config(), optimizer_method="exhaustive")
    service = MatrixService(engine, ServiceConfig(num_replicas=3))
    try:
        signatures = {
            r.engine.planning_signature() for r in service.pool.replicas
        }
        assert len(signatures) == 1, (
            "replica clones must plan identically (shared result-cache "
            "keys depend on it)"
        )
    finally:
        service.close()


# -- observability ---------------------------------------------------------


def test_replica_status_shape():
    service = make_service(num_replicas=2)
    try:
        session = service.open_session("alice").bind("X", x_matrix())
        session.execute(QUERY, timeout=10.0)
        status = service.status()
        assert status["num_replicas"] == 2
        assert len(status["replicas"]) == 2
        for replica in status["replicas"]:
            for key in (
                "name", "queue_depth", "running", "busy", "closed",
                "served", "result_cache_hits", "failed", "timed_out",
                "memory_budget_bytes", "plan_cache", "slice_cache",
                "calibration_generation",
            ):
                assert key in replica, key
        assert sum(r["served"] for r in status["replicas"]) == 1
    finally:
        service.close()


def test_prometheus_has_replica_families():
    service = make_service(num_replicas=2)
    try:
        page = service.prometheus()
        assert "repro_replica_queue_depth" in page
        assert 'replica="replica-1"' in page
    finally:
        service.close()


# -- lifecycle -------------------------------------------------------------


def test_close_is_idempotent():
    service = make_service(num_replicas=3)
    engines_closed = []
    for replica in service.pool.replicas:
        replica.engine.close = partial(engines_closed.append, replica.name)
    service.close()
    service.close()
    service.close(drain=False)
    assert service.closed
    # the engine close hook fires for every replica
    assert set(engines_closed) == {r.name for r in service.pool.replicas}


def test_concurrent_close_does_not_raise():
    service = make_service(num_replicas=3)
    errors = []

    def closer():
        try:
            service.close()
        except Exception as exc:  # pragma: no cover - the assertion target
            errors.append(exc)

    threads = [threading.Thread(target=closer) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10.0)
    assert not errors
    assert service.closed


def test_close_during_inflight_drains():
    engine = StubEngine()
    engine.release.clear()
    service = make_service(engine, num_replicas=1, result_cache_entries=0)
    session = service.open_session("alice").bind("X", x_matrix())
    ticket = session.submit(QUERY)
    assert engine.started.wait(timeout=10.0)

    closer = threading.Thread(target=service.close)
    closer.start()
    engine.release.set()
    closer.join(timeout=10.0)
    assert not closer.is_alive()
    assert ticket.result(timeout=10.0).output() is not None
    service.close()  # double close after close-during-inflight


def test_submit_after_close_raises():
    service = make_service(num_replicas=2, result_cache_entries=0)
    session = service.open_session("alice").bind("X", x_matrix())
    service.close()
    with pytest.raises(ServingError):
        session.submit(QUERY)


def test_replica_offer_after_close_sheds_nothing_silently():
    service = make_service(num_replicas=2, result_cache_entries=0)
    replica = service.pool.replicas[0]
    service.close()
    with pytest.raises(ServingError):
        replica.offer(QueryTicket("q", "t", None, {}, 1, 0))


def test_overload_still_sheds_per_replica():
    engine = StubEngine()
    engine.release.clear()
    service = make_service(
        engine, num_replicas=1, max_queue_depth=1, result_cache_entries=0
    )
    try:
        session = service.open_session("alice").bind("X", x_matrix())
        session.submit(QUERY)
        assert engine.started.wait(timeout=10.0)
        session.submit(QUERY)  # fills the queue
        with pytest.raises(ServiceOverloadedError):
            session.submit(QUERY)
    finally:
        engine.release.set()
        service.close()
