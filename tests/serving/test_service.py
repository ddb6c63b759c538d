"""MatrixService lifecycle: shedding, timeouts, sessions, failure paths.

Uses a stub engine whose execute() blocks on an event, so overload
scenarios are constructed deterministically instead of by racing the
dispatcher.
"""

import threading

import pytest

from repro.cluster.metrics import MetricsCollector
from repro.config import ServiceConfig
from repro.errors import (
    QueryTimeoutError,
    ServiceOverloadedError,
    ServingError,
    SessionClosedError,
)
from repro.execution import Engine, ExecutionResult, as_dag
from repro.lang import matrix_input
from repro.matrix import rand_dense
from repro.serving import MatrixService, service as service_module

from tests.conftest import make_config

QUERY = matrix_input("X", 50, 50, 25) * 2.0
#: estimate_query_bytes for QUERY: input (20 kB) + dense 50x50 output.
QUERY_COST = 50 * 50 * 8 * 2


class StubEngine(Engine):
    """Engine double: returns the bound input as the output.

    ``release`` starts set; clear it to make in-flight executes park until
    the test releases them (``started`` flags that one arrived).
    """

    name = "stub"

    def __init__(self, config=None, fail_with=None):
        super().__init__(config or make_config())
        self.started = threading.Event()
        self.release = threading.Event()
        self.release.set()
        self.fail_with = fail_with
        self.num_executes = 0

    def plan_query(self, dag):  # pragma: no cover - never planned
        raise NotImplementedError

    def run_unit(self, unit, cluster, env):  # pragma: no cover
        raise NotImplementedError

    def execute(self, query, inputs, cluster=None):
        self.started.set()
        assert self.release.wait(timeout=10.0), "stub never released"
        self.num_executes += 1
        if self.fail_with is not None:
            raise self.fail_with
        dag = as_dag(query)
        matrix = next(iter(inputs.values()))
        return ExecutionResult(
            outputs={root: matrix for root in dag.roots},
            metrics=MetricsCollector(),
            fusion_plan=None,
            dag=dag,
        )


@pytest.fixture(autouse=True)
def fast_poll(monkeypatch):
    """Poll every 5 ms, so queued queries expire promptly."""
    monkeypatch.setattr(service_module, "DISPATCH_POLL_SECONDS", 0.005)


def make_service(engine=None, **options):
    return MatrixService(
        engine=engine or StubEngine(), config=ServiceConfig(**options)
    )


def x_matrix(seed=1):
    return rand_dense(50, 50, 25, seed=seed)


class TestHappyPath:
    def test_execute_roundtrip(self):
        with make_service() as service:
            with service.open_session("alice") as alice:
                alice.bind("X", x_matrix())
                served = alice.execute(QUERY, timeout=10.0)
        assert served.tenant == "alice"
        assert not served.from_cache
        assert served.output(0) is alice.bindings.get("X") or True
        assert served.queue_seconds >= 0.0
        assert served.service_seconds >= served.queue_seconds

    def test_repeat_query_hits_result_cache(self):
        engine = StubEngine()
        with make_service(engine) as service:
            alice = service.open_session("alice").bind("X", x_matrix())
            first = alice.execute(QUERY, timeout=10.0)
            second = alice.execute(QUERY, timeout=10.0)
        assert not first.from_cache
        assert second.from_cache
        assert engine.num_executes == 1
        assert second.result is first.result

    def test_async_submit_returns_a_ticket(self):
        with make_service() as service:
            alice = service.open_session("alice").bind("X", x_matrix())
            ticket = alice.submit(QUERY)
            served = ticket.result(timeout=10.0)
            assert ticket.done()
        assert served.query_id == ticket.query_id

    def test_unbound_input_fails_eagerly(self):
        with make_service() as service:
            alice = service.open_session("alice")  # nothing bound
            with pytest.raises(Exception):
                alice.submit(QUERY)
            assert service.status()["queue_depth"] == 0


class TestOverload:
    def test_over_budget_query_is_shed_without_running(self):
        engine = StubEngine()
        with make_service(engine, memory_budget_bytes=QUERY_COST - 1) as service:
            alice = service.open_session("alice").bind("X", x_matrix())
            with pytest.raises(ServiceOverloadedError, match="memory budget"):
                alice.submit(QUERY)
            status = service.status()
        assert engine.num_executes == 0
        assert status["shed"] == 1
        assert status["tenants"]["alice"]["shed"] == 1
        assert status["cluster"]["num_stages"] == 0

    def test_full_queue_sheds(self):
        engine = StubEngine()
        engine.release.clear()  # park the first query in execute()
        with make_service(engine, max_queue_depth=1) as service:
            alice = service.open_session("alice").bind("X", x_matrix())
            blocker = alice.submit(QUERY)
            assert engine.started.wait(5.0)
            queued = alice.submit(QUERY, inputs={"X": x_matrix(seed=2)})
            with pytest.raises(ServiceOverloadedError, match="queue is full"):
                alice.submit(QUERY, inputs={"X": x_matrix(seed=3)})
            engine.release.set()
            blocker.result(timeout=10.0)
            queued.result(timeout=10.0)
        assert service.status()["shed"] == 1

    def test_overload_still_sheds(self):
        engine = StubEngine()
        engine.release.clear()
        service = make_service(
            engine, max_queue_depth=1, result_cache_entries=0
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

    def test_queued_query_times_out(self):
        engine = StubEngine()
        engine.release.clear()
        with make_service(engine, queue_timeout_seconds=0.05) as service:
            alice = service.open_session("alice").bind("X", x_matrix())
            blocker = alice.submit(QUERY)
            assert engine.started.wait(5.0)
            doomed = alice.submit(QUERY, inputs={"X": x_matrix(seed=2)})
            threading.Event().wait(0.1)  # let the queue wait exceed 0.05s
            engine.release.set()
            blocker.result(timeout=10.0)
            with pytest.raises(QueryTimeoutError):
                doomed.result(timeout=10.0)
            status = service.status()
        assert status["timed_out"] == 1
        assert engine.num_executes == 1  # the expired query never ran

    def test_result_wait_timeout_raises_builtin_timeout(self):
        engine = StubEngine()
        engine.release.clear()
        with make_service(engine) as service:
            alice = service.open_session("alice").bind("X", x_matrix())
            ticket = alice.submit(QUERY)
            with pytest.raises(TimeoutError):
                ticket.result(timeout=0.05)
            engine.release.set()
            ticket.result(timeout=10.0)


class TestFailures:
    def test_engine_failure_lands_on_the_ticket(self):
        engine = StubEngine(fail_with=ValueError("boom"))
        with make_service(engine) as service:
            alice = service.open_session("alice").bind("X", x_matrix())
            ticket = alice.submit(QUERY)
            with pytest.raises(ValueError, match="boom"):
                ticket.result(timeout=10.0)
            status = service.status()
        assert status["failed"] == 1
        assert status["tenants"]["alice"]["failed"] == 1


class TestBrokenDispatcher:
    """Anything escaping the dispatcher thread breaks the service loudly:
    no caller is left waiting on a ticket nothing will resolve."""

    def test_an_escaping_exception_fails_tickets_and_refuses_work(self):
        service = make_service()
        cause = RuntimeError("injected admission fault")

        def broken_next_ticket():
            raise cause

        service._admission.next_ticket = broken_next_ticket
        alice = service.open_session("alice").bind("X", x_matrix())
        ticket = alice.submit(QUERY)
        with pytest.raises(ServingError) as failed:
            ticket.result(timeout=10.0)
        assert failed.value.__cause__ is cause
        with pytest.raises(ServingError, match="broken") as refused:
            alice.submit(QUERY)
        assert refused.value.__cause__ is cause
        status = service.status()
        assert "injected admission fault" in status["broken"]
        assert status["failed"] == 1 and status["queue_depth"] == 0
        service.close(timeout=10.0)
        assert not service._dispatcher.is_alive()

    def test_a_base_exception_from_the_engine_fails_its_ticket(self):
        engine = StubEngine(fail_with=KeyboardInterrupt())
        service = make_service(engine)
        ticket = service.open_session("alice").bind("X", x_matrix()).submit(
            QUERY
        )
        with pytest.raises(KeyboardInterrupt):
            ticket.result(timeout=10.0)
        service._dispatcher.join(timeout=10.0)
        assert service.status()["broken"] is not None
        service.close(timeout=10.0)


class TestLifecycle:
    def test_close_drains_queued_queries(self):
        engine = StubEngine()
        with make_service(engine) as service:
            alice = service.open_session("alice").bind("X", x_matrix())
            tickets = [
                alice.submit(QUERY, inputs={"X": x_matrix(seed=s)})
                for s in range(4)
            ]
        # context exit = close(drain=True): everything finished
        assert all(t.done() for t in tickets)
        for ticket in tickets:
            ticket.result(timeout=0)  # raises if the query failed

    def test_close_without_drain_fails_leftovers(self):
        engine = StubEngine()
        engine.release.clear()
        service = make_service(engine)
        alice = service.open_session("alice").bind("X", x_matrix())
        blocker = alice.submit(QUERY)
        assert engine.started.wait(5.0)
        queued = alice.submit(QUERY, inputs={"X": x_matrix(seed=2)})
        service.close(drain=False, timeout=0.1)
        with pytest.raises(ServiceOverloadedError, match="shutting down"):
            queued.result(timeout=10.0)
        engine.release.set()
        blocker.result(timeout=10.0)  # in-flight work still completes
        service.close(timeout=10.0)

    def test_closed_service_rejects_work(self):
        service = make_service()
        alice = service.open_session("alice").bind("X", x_matrix())
        alice.execute(QUERY, timeout=10.0)  # fills the result cache
        service.close()
        before = service.status()
        with pytest.raises(ServingError):
            service.open_session("bob")
        with pytest.raises(ServingError):
            # a closed service must not answer from the result cache either
            alice.submit(QUERY)
        with pytest.raises(ServingError):
            alice.submit(QUERY, inputs={"X": x_matrix(seed=2)})  # uncached
        assert service.closed
        after = service.status()
        for key in ("served", "cache_hits", "shed", "failed", "tenants",
                    "queue_depth"):
            assert after[key] == before[key], key

    def test_close_is_idempotent(self):
        engine = StubEngine()
        engine_closed = []
        engine.close = lambda: engine_closed.append(True)
        service = make_service(engine)
        service.close()
        service.close()
        service.close(drain=False)
        assert service.closed
        assert engine_closed, "the engine close hook must fire"

    def test_concurrent_close_does_not_raise(self):
        service = make_service()
        errors = []

        def closer():
            try:
                service.close()
            except Exception as exc:  # pragma: no cover - assertion target
                errors.append(exc)

        threads = [threading.Thread(target=closer) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10.0)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert service.closed

    def test_close_during_inflight_drains(self):
        engine = StubEngine()
        engine.release.clear()
        service = make_service(engine, result_cache_entries=0)
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

    def test_submit_after_close_raises(self):
        service = make_service(result_cache_entries=0)
        session = service.open_session("alice").bind("X", x_matrix())
        service.close()
        with pytest.raises(ServingError):
            session.submit(QUERY)

    def test_offer_after_close_sheds_nothing_silently(self):
        """A submit racing close() must fail loudly, not park a ticket on
        a queue whose dispatcher has already exited."""
        service = make_service(result_cache_entries=0)
        session = service.open_session("alice").bind("X", x_matrix())
        service.close()
        with pytest.raises(ServingError):
            session.submit(QUERY)
        status = service.status()
        assert status["queue_depth"] == 0
        assert status["shed"] == 0

    def test_closed_session_rejects_submits(self):
        with make_service() as service:
            alice = service.open_session("alice").bind("X", x_matrix())
            alice.close()
            with pytest.raises(SessionClosedError):
                alice.submit(QUERY)
            with pytest.raises(SessionClosedError):
                alice.bind("X", x_matrix())
            assert service.status()["sessions"] == 0


class TestStatus:
    def test_status_is_a_complete_plain_dict(self):
        with make_service() as service:
            alice = service.open_session("alice").bind("X", x_matrix())
            alice.execute(QUERY, timeout=10.0)
            alice.execute(QUERY, timeout=10.0)  # result-cache hit
            status = service.status()
        assert isinstance(status, dict)
        for key in (
            "queue_depth", "running", "sessions", "memory_budget_bytes",
            "tenants", "latency", "queue_wait", "served", "shed",
            "timed_out", "failed", "cache_hits", "result_cache",
            "plan_cache", "slice_cache", "cluster", "closed", "broken",
        ):
            assert key in status, key
        assert status["broken"] is None
        assert status["served"] == 2
        assert status["cache_hits"] == 1
        assert status["result_cache"]["hits"] >= 1
        assert status["latency"]["count"] == 2
        assert status["cluster"]["counters"] == {}  # stub never ran stages


class TestCacheStatus:
    def test_each_cache_reports_a_stats_sub_dict(self):
        """status() embeds one stats dict per cache layer."""
        with make_service() as service:
            alice = service.open_session("alice").bind("X", x_matrix())
            alice.execute(QUERY, timeout=10.0)
            alice.execute(QUERY, timeout=10.0)  # result-cache hit
            status = service.status()
        for cache in ("result_cache", "plan_cache", "slice_cache"):
            stats = status[cache]
            assert isinstance(stats, dict), cache
            for key in ("hits", "misses", "entries"):
                assert key in stats, (cache, key)
        assert status["result_cache"]["hits"] == 1
        assert status["result_cache"]["misses"] >= 1
        assert status["result_cache"]["entries"] == 1


class TestServingTelemetry:
    """Served profiles and service.status(), on a real engine."""

    def _real_service(self):
        from repro import FuseMEEngine

        return make_service(FuseMEEngine(make_config()))

    def test_session_profile_round_trip(self):
        """A served query's profile comes back on its result."""
        with self._real_service() as service:
            alice = service.open_session("alice").bind("X", x_matrix())
            served = alice.execute(QUERY, timeout=10.0)
        profile = served.result.profile
        assert profile.engine == "FuseME"
        assert len(profile.units) == 1
        assert profile.units[0].measured_seconds > 0.0
        assert served.output(0).shape == (50, 50)

    def test_status_covers_layers(self):
        with self._real_service() as service:
            alice = service.open_session("alice").bind("X", x_matrix())
            alice.execute(QUERY, timeout=10.0)
            alice.execute(QUERY, timeout=10.0)  # result-cache hit
            bob = service.open_session("bob").bind("X", x_matrix(seed=2))
            bob.execute(QUERY, timeout=10.0)
            status = service.status()
        # engine stage totals (modeled numbers from the shared cluster)
        assert status["cluster"]["num_stages"] > 0
        assert status["cluster"]["elapsed_seconds"] > 0.0
        # cache counters for all three layers
        for cache in ("plan_cache", "slice_cache", "result_cache"):
            assert "hits" in status[cache], cache
        # per-tenant outcomes, latency and usage
        alice_status, bob_status = (
            status["tenants"]["alice"], status["tenants"]["bob"]
        )
        assert alice_status["served"] == 2 and alice_status["cache_hits"] == 1
        assert alice_status["latency"]["p99"] > 0.0
        assert bob_status["latency"]["count"] == 1
        assert bob_status["usage"]["modeled_seconds"] > 0.0

    def test_usage_splits_seconds_with_eq2_denominators(self):
        """Both usage terms divide by the whole cluster: ``N * Bn`` and
        ``N * Bc``, the denominators Eq. 2 prices a plan with."""
        x = matrix_input("X", 50, 50, 25)
        with self._real_service() as service:
            alice = service.open_session("alice").bind("X", x_matrix())
            alice.execute(x @ x.T, timeout=10.0)
            usage = service.status()["tenants"]["alice"]["usage"]
            cluster = service.engine.config.cluster
        assert usage["shuffled_bytes"] > 0 and usage["flops"] > 0
        assert usage["network_seconds"] == usage["shuffled_bytes"] / (
            cluster.num_nodes * cluster.network_bandwidth
        )
        assert usage["compute_seconds"] == usage["flops"] / (
            cluster.num_nodes * cluster.compute_bandwidth
        )
