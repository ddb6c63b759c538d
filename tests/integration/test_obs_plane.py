"""Per-tenant usage in ``service.status()``, end to end (DESIGN.md §16).

Two contracts:

* **strictly observational** — booking usage changes neither outputs
  (bit-identical) nor modeled metrics;
* **conservation** — per-tenant usage sums exactly to the cluster-level
  :class:`~repro.cluster.metrics.MetricsCollector` totals.
"""

import pytest

from repro import FuseMEEngine, LocalXLAEngine, MatrixService
from repro.lang import matrix_input, sq, sum_of
from repro.matrix import rand_dense, rand_sparse
from repro.serving.metrics import USAGE_FIELDS
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


# -- usage booking is strictly observational --------------------------------


class TestObservational:
    def test_served_is_bit_identical(self, workload):
        query, inputs = workload
        baseline = FuseMEEngine(make_config(block_size=BS)).execute(
            query, inputs
        )

        engine = FuseMEEngine(make_config(block_size=BS))
        with MatrixService(engine) as service:
            session = service.open_session("alice")
            for name, matrix in inputs.items():
                session.bind(name, matrix)
            served = session.execute(query, timeout=60)
            usage = service.status()["tenants"]["alice"]["usage"]

        for root_b, root_s in zip(
            baseline.dag.roots, served.result.dag.roots
        ):
            assert (
                baseline.outputs[root_b].to_numpy().tobytes()
                == served.result.outputs[root_s].to_numpy().tobytes()
            )
        assert baseline.metrics.totals() == served.result.metrics.totals()
        assert usage["modeled_seconds"] == baseline.metrics.elapsed_seconds
        assert usage["shuffled_bytes"] == baseline.metrics.comm_bytes
        assert usage["flops"] == baseline.metrics.flops


# -- conservation: per-tenant usage vs cluster totals -----------------------


class TestConservation:
    def test_three_tenant_usage_sums_to_cluster_totals(self):
        """Every tenant's usage is exactly the modeled resources of the
        executions run for it — so summed over tenants it reproduces the
        cluster-level MetricsCollector totals."""
        engine = FuseMEEngine(make_config(block_size=BS))
        with MatrixService(engine) as service:
            for i, tenant in enumerate(("alice", "bob", "carol")):
                query, inputs = tenant_query(i)
                session = service.open_session(tenant)
                for name, matrix in inputs.items():
                    session.bind(name, matrix)
                first = session.execute(query, timeout=60)
                again = session.execute(query, timeout=60)  # cache hit
                assert not first.from_cache and again.from_cache
            status = service.status()
            metrics = service.cluster.metrics

        tenants = status["tenants"]
        assert sorted(tenants) == ["alice", "bob", "carol"]
        for t in tenants.values():
            assert set(t["usage"]) == set(USAGE_FIELDS)
            assert t["usage"]["modeled_seconds"] > 0.0
            assert t["usage"]["wall_seconds"] > 0.0

        def total(name):
            return sum(t["usage"][name] for t in tenants.values())

        assert total("modeled_seconds") == pytest.approx(
            metrics.elapsed_seconds
        )
        assert total("shuffled_bytes") == metrics.comm_bytes
        assert total("flops") == metrics.flops
        # cache hits were counted but booked no usage
        assert status["cache_hits"] == 3 and status["served"] == 6

    def test_single_node_engine_charges_the_shared_cluster(self):
        """The single-node baseline runs its stage on the service's cluster
        like every distributed engine, so the conservation holds for it
        too (it used to record into a private collector)."""
        with MatrixService(LocalXLAEngine(make_config(block_size=BS))) as service:
            for i, tenant in enumerate(("alice", "bob")):
                query, inputs = tenant_query(i)
                session = service.open_session(tenant).bind_many(inputs)
                session.execute(query, timeout=60)
            tenants = service.status()["tenants"]
            metrics = service.cluster.metrics

        assert metrics.num_stages == 2
        assert sum(
            t["usage"]["modeled_seconds"] for t in tenants.values()
        ) == pytest.approx(metrics.elapsed_seconds)
        assert sum(t["usage"]["flops"] for t in tenants.values()) == metrics.flops
