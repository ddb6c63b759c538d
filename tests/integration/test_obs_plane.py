"""The service observability plane, end to end (DESIGN.md §16).

Three contracts:

* **strictly observational** — accounting + SLO tracking enabled change
  neither outputs (bit-identical) nor modeled metrics;
* **conservation** — per-tenant ledgers sum exactly to the cluster-level
  :class:`~repro.cluster.metrics.MetricsCollector` totals;
* **alerting** — an induced latency regression flips the burn-rate alert
  on the bus, in ``status()["slo"]``, and on a real HTTP ``/metrics``
  scrape.
"""

import json
import urllib.error
import urllib.request

import pytest

from repro import FuseMEEngine, MatrixService, ServiceConfig
from repro.lang import matrix_input, sq, sum_of
from repro.matrix import rand_dense, rand_sparse
from repro.obs import MemorySink, SLOSpec
from repro.obs.accounting import RESOURCE_FIELDS
from repro.obs.prometheus import validate_exposition
from repro.workloads.gnmf import gnmf_updates

from tests.conftest import make_config

BS = 20


@pytest.fixture(scope="module")
def workload():
    q = gnmf_updates(100, 80, 20, density=0.2, block_size=BS)
    inputs = {
        "X": rand_sparse(100, 80, density=0.2, block_size=BS, seed=11),
        "U": rand_dense(20, 80, BS, seed=12, low=0.1, high=1.0),
        "V": rand_dense(100, 20, BS, seed=13, low=0.1, high=1.0),
    }
    return [q.u_update, q.v_update], inputs


def tenant_query(seed: int):
    """A per-tenant query whose shape depends on *seed* (no cross-tenant
    result-cache sharing)."""
    rows = 60 + 5 * seed
    a = matrix_input("A", rows, 40, BS)
    b = matrix_input("B", 40, rows, BS)
    query = sum_of(sq(a @ b))
    inputs = {
        "A": rand_dense(rows, 40, BS, seed=seed),
        "B": rand_dense(40, rows, BS, seed=seed + 100),
    }
    return query, inputs


# -- the plane is strictly observational ------------------------------------


class TestObservational:
    def test_plane_enabled_is_bit_identical(self, workload):
        query, inputs = workload
        baseline = FuseMEEngine(make_config(block_size=BS)).execute(
            query, inputs
        )

        config = ServiceConfig(
            accounting=True,
            slos=(SLOSpec(tenant="alice", latency_target_s=30.0),),
        )
        engine = FuseMEEngine(make_config(block_size=BS))
        engine.telemetry.attach(MemorySink())
        with MatrixService(engine, config) as service:
            session = service.open_session("alice")
            for name, matrix in inputs.items():
                session.bind(name, matrix)
            served = session.execute(query, timeout=60)

        for root_b, root_s in zip(
            baseline.dag.roots, served.result.dag.roots
        ):
            assert (
                baseline.outputs[root_b].to_numpy().tobytes()
                == served.result.outputs[root_s].to_numpy().tobytes()
            )
        assert baseline.metrics.totals() == served.result.metrics.totals()


# -- conservation: ledgers vs cluster totals --------------------------------


class TestConservation:
    def test_three_tenant_ledgers_sum_to_cluster_totals(self):
        """Every tenant's raw usage is exactly the modeled resources of
        the executions run for it — so summed over tenants the ledgers
        reproduce the cluster-level MetricsCollector totals."""
        config = ServiceConfig(accounting=True)
        engine = FuseMEEngine(make_config(block_size=BS))
        with MatrixService(engine, config) as service:
            for i, tenant in enumerate(("alice", "bob", "carol")):
                query, inputs = tenant_query(i)
                session = service.open_session(tenant)
                for name, matrix in inputs.items():
                    session.bind(name, matrix)
                first = session.execute(query, timeout=60)
                again = session.execute(query, timeout=60)  # cache hit
                assert not first.from_cache and again.from_cache
            snap = service.accountant.snapshot()
            metrics = service.cluster.metrics

        usage_seconds = sum(
            t["usage"]["modeled_seconds"] for t in snap["tenants"].values()
        )
        usage_bytes = sum(
            t["usage"]["shuffled_bytes"] for t in snap["tenants"].values()
        )
        usage_flops = sum(
            t["usage"]["flops"] for t in snap["tenants"].values()
        )
        assert usage_seconds == pytest.approx(metrics.elapsed_seconds)
        assert usage_bytes == metrics.comm_bytes
        assert usage_flops == metrics.flops
        # charged == usage per dimension (nothing created or destroyed)
        totals = snap["totals"]
        for name in RESOURCE_FIELDS:
            assert totals["charged"][name] == pytest.approx(
                totals["usage"][name]
            )
        # cache hits were counted but charged no usage
        assert totals["cache_hits"] == 3 and totals["served"] == 6

    def test_accounting_disabled(self, workload):
        query, inputs = workload
        engine = FuseMEEngine(make_config(block_size=BS))
        with MatrixService(
            engine, ServiceConfig(accounting=False)
        ) as service:
            assert service.accountant is None
            with pytest.raises(RuntimeError, match="accounting"):
                service.accounting()
            assert "accounting" not in service.status()


# -- SLO burn-rate alerting --------------------------------------------------


class TestSLOAlerting:
    def test_latency_regression_flips_alert_everywhere(self, workload):
        """A latency target no real query can meet is the induced
        regression: the alert must show up on the bus, in ``status()``,
        and on a real HTTP scrape of ``/metrics``."""
        query, inputs = workload
        config = ServiceConfig(
            accounting=True,
            slos=(SLOSpec(
                tenant="alice",
                latency_target_s=1e-9,
                objective=0.5,
                burn_alert_threshold=1.5,
            ),),
        )
        engine = FuseMEEngine(make_config(block_size=BS))
        sink = engine.telemetry.attach(MemorySink())
        with MatrixService(engine, config) as service:
            session = service.open_session("alice")
            for name, matrix in inputs.items():
                session.bind(name, matrix)
            for _ in range(3):
                session.execute(query, timeout=60)

            # 1. the bus
            alerts = sink.named("slo.burn_alert")
            assert len(alerts) == 1
            assert alerts[0].attrs["tenant"] == "alice"
            assert alerts[0].value >= 1.5
            # 2. status()
            state = service.status()["slo"]["alice"]
            assert state["burning"] is True and state["alerts"] == 1
            # 3. a real scrape over HTTP
            server = service.serve_metrics()
            assert service.serve_metrics() is server  # idempotent
            with urllib.request.urlopen(server.url + "/metrics") as resp:
                page = resp.read().decode("utf-8")
            assert validate_exposition(page) > 0
            assert 'repro_slo_burning{tenant="alice"} 1' in page
            with urllib.request.urlopen(server.url + "/status") as resp:
                doc = json.loads(resp.read().decode("utf-8"))
            assert doc["slo"]["alice"]["burning"] is True
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(server.url + "/nope")
            assert excinfo.value.code == 404
        # the endpoint dies with the service
        with pytest.raises(urllib.error.URLError):
            urllib.request.urlopen(server.url + "/metrics", timeout=1)

    def test_generous_target_never_burns(self, workload):
        query, inputs = workload
        config = ServiceConfig(
            slos=(SLOSpec(tenant="alice", latency_target_s=300.0),),
        )
        engine = FuseMEEngine(make_config(block_size=BS))
        sink = engine.telemetry.attach(MemorySink())
        with MatrixService(engine, config) as service:
            session = service.open_session("alice")
            for name, matrix in inputs.items():
                session.bind(name, matrix)
            session.execute(query, timeout=60)
            assert service.status()["slo"]["alice"]["burning"] is False
        assert not sink.named("slo.burn_alert")


# -- exposition round-trip ---------------------------------------------------


class TestExposition:
    def test_multi_tenant_page_validates(self):
        config = ServiceConfig(
            accounting=True,
            slos=(
                SLOSpec(tenant="alice", latency_target_s=60.0),
                SLOSpec(tenant="bob", latency_target_s=60.0),
            ),
        )
        engine = FuseMEEngine(make_config(block_size=BS))
        with MatrixService(engine, config) as service:
            for i, tenant in enumerate(("alice", "bob", "carol")):
                query, inputs = tenant_query(i)
                session = service.open_session(tenant)
                for name, matrix in inputs.items():
                    session.bind(name, matrix)
                session.execute(query, timeout=60)
            page = service.prometheus()
        assert validate_exposition(page) > 0
        for needle in (
            'repro_tenant_queries_total{outcome="served",tenant="alice"} 1',
            'repro_tenant_queries_total{outcome="served",tenant="carol"} 1',
            'repro_tenant_charged_seconds_total{resource="modeled",'
            'tenant="bob"}',
            'repro_slo_burn_rate{tenant="alice",window="5m"}',
            'repro_slo_burning{tenant="bob"} 0',
            'repro_slo_latency_target_seconds{tenant="alice"} 60',
        ):
            assert needle in page, needle
