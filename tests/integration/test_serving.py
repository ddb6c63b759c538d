"""Serving must be invisible in results and modeled metrics.

The acceptance bar for the serving layer: a scripted 3-tenant, 20-query
replay through :class:`MatrixService` — interleaved through admission
control and fair scheduling on one shared engine + cluster — produces
bit-identical outputs and identical modeled per-query seconds/bytes to
running every query standalone through ``engine.execute()`` on a fresh
engine.  Only wall-clock timing and observability counters may differ.
"""

import numpy as np
import pytest

from repro import (
    DistMELikeEngine,
    FuseMEEngine,
    LocalXLAEngine,
    MatFastLikeEngine,
    MatrixService,
    ServiceConfig,
    SystemDSLikeEngine,
)
from repro.blocks.block import Block
from repro.errors import ServiceOverloadedError
from repro.lang import DAG, matrix_input, nnz_mask, sq, sum_of
from repro.matrix import rand_dense, rand_sparse

from tests.conftest import make_config

BS = 25


def nmf_query():
    """alice: GNMF-style two-root residual query."""
    x = matrix_input("X", 100, 75, BS, density=0.1)
    u = matrix_input("U", 100, 25, BS)
    v = matrix_input("V", 25, 75, BS)
    product = u @ v
    return DAG([
        (nnz_mask(x) * sq(x - product)).node,
        sum_of(sq(product)).node,
    ])


def pagerank_query():
    """bob: one damped power-iteration step."""
    a = matrix_input("A", 100, 100, BS, density=0.05)
    r = matrix_input("R", 100, 1, BS)
    return (a @ r) * 0.85 + 0.15 / 100


def gram_query():
    """carol: scalar norm of a product."""
    c = matrix_input("C", 75, 50, BS)
    d = matrix_input("D", 50, 75, BS)
    return sum_of(sq(c @ d))


WORKLOADS = {
    "alice": (nmf_query, lambda: {
        "X": rand_sparse(100, 75, 0.1, BS, seed=11),
        "U": rand_dense(100, 25, BS, seed=12),
        "V": rand_dense(25, 75, BS, seed=13),
    }),
    "bob": (pagerank_query, lambda: {
        "A": rand_sparse(100, 100, 0.05, BS, seed=21),
        "R": rand_dense(100, 1, BS, seed=22),
    }),
    "carol": (gram_query, lambda: {
        "C": rand_dense(75, 50, BS, seed=31),
        "D": rand_dense(50, 75, BS, seed=32),
    }),
}

#: 20 queries: alice 7, bob 7, carol 6 — interleaved.
SCHEDULE = (["alice", "bob", "carol"] * 7)[:20]


def assert_same_execution(served, reference):
    """Bit-identical outputs + identical modeled totals."""
    assert len(served.result.dag.roots) == len(reference.dag.roots)
    for index in range(len(reference.dag.roots)):
        assert np.array_equal(
            served.output(index).to_numpy(),
            reference.output(index).to_numpy(),
        )
    assert served.metrics.totals() == reference.metrics.totals()


class TestReplayDeterminism:
    def test_twenty_query_replay_matches_standalone(self):
        # Standalone references: a fresh engine per tenant, every fast path
        # at defaults — exactly what a single-tenant user would observe.
        references = {
            tenant: FuseMEEngine(make_config()).execute(make_query(), make_inputs())
            for tenant, (make_query, make_inputs) in WORKLOADS.items()
        }

        # Result cache off so all 20 queries genuinely execute on the one
        # shared cluster; plan/slice caches stay warm across tenants.
        service = MatrixService(
            engine=FuseMEEngine(make_config()),
            config=ServiceConfig(result_cache_entries=0),
        )
        with service:
            sessions = {
                tenant: service.open_session(tenant).bind_many(make_inputs())
                for tenant, (_, make_inputs) in WORKLOADS.items()
            }
            tickets = [
                sessions[tenant].submit(WORKLOADS[tenant][0]())
                for tenant in SCHEDULE
            ]
            served = [t.result(timeout=120.0) for t in tickets]

        for tenant, result in zip(SCHEDULE, served):
            assert result.tenant == tenant
            assert not result.from_cache
            assert_same_execution(result, references[tenant])

        # Per-query deltas add back up to the shared cluster's own totals.
        assert (
            sum(r.metrics.num_stages for r in served)
            == service.cluster.metrics.num_stages
        )
        assert sum(r.metrics.comm_bytes for r in served) == pytest.approx(
            service.cluster.metrics.comm_bytes
        )
        status = service.status()
        assert status["served"] == 20
        assert {name for name in status["tenants"]} == set(WORKLOADS)


    @pytest.mark.parametrize(
        "engine_cls",
        [FuseMEEngine, DistMELikeEngine, SystemDSLikeEngine,
         MatFastLikeEngine, LocalXLAEngine],
        ids=lambda c: c.name,
    )
    def test_engine_matches_standalone(self, engine_cls):
        """Every engine class serves bit-identically to running standalone
        (result cache off so each query truly executes on the one shared
        cluster, after other tenants' queries)."""
        query = (
            matrix_input("X", 75, 50, BS, density=0.2)
            @ matrix_input("W", 50, 50, BS)
        ) * 2.0
        tenants = {
            f"tenant-{i}": {
                "X": rand_sparse(75, 50, density=0.2, block_size=BS,
                                 seed=100 + i),
                "W": rand_dense(50, 50, BS, seed=200 + i),
            }
            for i in range(5)
        }
        service = MatrixService(
            engine_cls(make_config()),
            ServiceConfig(result_cache_entries=0),
        )
        with service:
            for tenant, inputs in tenants.items():
                session = service.open_session(tenant).bind_many(inputs)
                served = session.execute(query, timeout=60.0)
                reference = engine_cls(make_config()).execute(query, inputs)
                assert_same_execution(served, reference)


class TestClosedLoop:
    def test_repeats_hit_the_result_cache(self):
        with MatrixService(engine=FuseMEEngine(make_config())) as service:
            results = []
            for tenant, (make_query, make_inputs) in WORKLOADS.items():
                session = service.open_session(tenant).bind_many(make_inputs())
                for _ in range(3):
                    results.append(session.execute(make_query(), timeout=120.0))
            status = service.status()

        by_tenant = {}
        for result in results:
            by_tenant.setdefault(result.tenant, []).append(result)
        for tenant, runs in by_tenant.items():
            assert not runs[0].from_cache
            assert runs[1].from_cache and runs[2].from_cache
            for repeat in runs[1:]:
                assert_same_execution(repeat, runs[0].result)

        assert status["served"] == 9
        assert status["cache_hits"] == 6
        assert status["result_cache"]["hits"] == 6
        assert status["latency"]["count"] == 9
        assert status["queue_depth"] == 0 and status["running"] == 0

    def test_rebinding_invalidates_served_results(self):
        """set_block on a bound matrix must serve fresh bits, not the cache."""
        x = rand_dense(50, 50, BS, seed=41)
        query = matrix_input("X", 50, 50, BS) * 2.0
        with MatrixService(engine=FuseMEEngine(make_config())) as service:
            alice = service.open_session("alice").bind("X", x)
            before = alice.execute(query, timeout=120.0)
            x.set_block(0, 0, Block(np.full((BS, BS), 7.0)))
            after = alice.execute(query, timeout=120.0)

        assert not after.from_cache
        assert not np.array_equal(
            before.output(0).to_numpy(), after.output(0).to_numpy()
        )
        reference = FuseMEEngine(make_config()).execute(query, {"X": x})
        assert np.array_equal(
            after.output(0).to_numpy(), reference.output(0).to_numpy()
        )

        # binding a brand-new matrix likewise misses
        y = rand_dense(50, 50, BS, seed=42)
        with MatrixService(engine=FuseMEEngine(make_config())) as service:
            bob = service.open_session("bob").bind("X", x)
            first = bob.execute(query, timeout=120.0)
            bob.bind("X", y)
            fresh = bob.execute(query, timeout=120.0)
        assert not first.from_cache and not fresh.from_cache


class TestAdmissionEndToEnd:
    def test_over_budget_query_never_starts(self):
        service = MatrixService(
            engine=FuseMEEngine(make_config()),
            config=ServiceConfig(memory_budget_bytes=1024),
        )
        with service:
            make_query, make_inputs = WORKLOADS["alice"]
            alice = service.open_session("alice").bind_many(make_inputs())
            with pytest.raises(ServiceOverloadedError, match="memory budget"):
                alice.submit(make_query())
        # shed pre-admission: the shared cluster never ran a stage
        assert service.cluster.metrics.num_stages == 0
        assert service.status()["shed"] == 1
