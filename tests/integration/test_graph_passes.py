"""The graph-pass pipeline contract suite.

Three guarantees, across all five engines:

* **bit-identity** — enabling the pass pipeline never changes any matrix
  output, with and without task threads (``local_parallelism``);
* **off == seed** — with ``graph_passes="off"`` the modeled metrics are
  exactly what the engine produced before the pipeline existed;
* **the rewrites pay** — on GNMF the merged plan has strictly fewer units
  and strictly lower modeled cost than raw lowering.

Plus the serving layer's cross-query CSE: concurrent identical queries
execute once, adopted results are the owner's verbatim, and an owner
failure demotes waiters to solo execution instead of failing them.
"""

import threading
import time

import numpy as np
import pytest

from repro import (
    DistMELikeEngine,
    FuseMEEngine,
    LocalXLAEngine,
    MatFastLikeEngine,
    SystemDSLikeEngine,
)
from repro.config import EngineConfig, ServiceConfig
from repro.execution import as_dag
from repro.matrix import rand_dense, rand_sparse
from repro.serving.cse import SubplanIndex
from repro.serving.result_cache import result_key
from repro.serving.service import MatrixService
from repro.workloads.als import als_loss_query
from repro.workloads.autoencoder import AutoEncoder, AutoEncoderShapes
from repro.workloads.gnmf import gnmf_updates

from tests.conftest import make_config

BS = 20

ENGINES = [
    FuseMEEngine,
    DistMELikeEngine,
    SystemDSLikeEngine,
    MatFastLikeEngine,
    LocalXLAEngine,
]


def gnmf_query():
    q = gnmf_updates(100, 80, 20, density=0.2, block_size=BS)
    return [q.u_update, q.v_update]


def gnmf_inputs():
    return {
        "X": rand_sparse(100, 80, density=0.2, block_size=BS, seed=11),
        "U": rand_dense(20, 80, BS, seed=12, low=0.1, high=1.0),
        "V": rand_dense(100, 20, BS, seed=13, low=0.1, high=1.0),
    }


@pytest.fixture(scope="module")
def workload():
    return gnmf_query(), gnmf_inputs()


# -- golden unit counts -----------------------------------------------------


def _unit_counts(build_query):
    raw = FuseMEEngine(
        make_config(block_size=BS, graph_passes="off")
    ).lower_query(build_query())
    opt = FuseMEEngine(
        make_config(block_size=BS, graph_passes="all")
    ).lower_query(build_query())
    return len(raw.ops), len(opt.ops), opt


def test_golden_unit_counts_gnmf():
    q = gnmf_updates(100, 80, 20, density=0.1, block_size=BS)
    raw, opt, physical = _unit_counts(lambda: [q.u_update, q.v_update])
    assert (raw, opt) == (4, 2)
    # both rewrites fired and are reported on the plan
    fired = {r.name for r in physical.pass_reports if r.fired}
    assert fired == {"merge_units", "dedup_consolidations"}


def test_golden_unit_counts_als():
    query = als_loss_query(100, 80, 20, density=0.1, block_size=BS)
    raw, opt, physical = _unit_counts(lambda: query.expr)
    assert (raw, opt) == (1, 1)  # a single unit: nothing to merge
    assert all(not r.fired for r in physical.pass_reports)


def test_golden_unit_counts_autoencoder():
    ae = AutoEncoder(
        AutoEncoderShapes(features=100, hidden1=40, hidden2=20),
        batch_size=60,
        block_size=BS,
    )
    raw, opt, physical = _unit_counts(lambda: ae.step_exprs)
    assert (raw, opt) == (12, 9)
    merge = next(r for r in physical.pass_reports if r.name == "merge_units")
    # the merged-unit re-search disagrees with one member's original
    # (P,Q,R); the pass counts it instead of adopting (bit-identity)
    assert merge.pqr_changes == 1
    for op in physical.ops:
        if op.members:
            # provenance: merged units name their raw-lowering members
            assert op.sources == tuple(m.index for m in op.members)


# -- bit-identity: pass on == pass off, serial and task-threaded -----------
# (the "wave" id predates the removal of unit-level wave dispatch; it now
# means local_parallelism=4 task threads)


@pytest.mark.parametrize("parallelism", [1, 4], ids=["sequential", "wave"])
@pytest.mark.parametrize("engine_cls", ENGINES, ids=lambda c: c.name)
def test_passes_are_bit_identical(engine_cls, parallelism, workload):
    query, inputs = workload
    off = engine_cls(make_config(
        block_size=BS, graph_passes="off", local_parallelism=parallelism
    )).execute(query, inputs)
    on = engine_cls(make_config(
        block_size=BS, graph_passes="all", local_parallelism=parallelism
    )).execute(query, inputs)
    for root_off, root_on in zip(off.dag.roots, on.dag.roots):
        assert np.array_equal(
            off.outputs[root_off].to_numpy(), on.outputs[root_on].to_numpy()
        )


@pytest.mark.parametrize("engine_cls", ENGINES, ids=lambda c: c.name)
def test_off_mode_modeled_metrics_match_seed(engine_cls, workload):
    """``graph_passes="off"`` is the seed path: every modeled total equals
    a default-config run exactly (the pipeline allocates nothing)."""
    query, inputs = workload
    seed = engine_cls(make_config(block_size=BS)).execute(query, inputs)
    off = engine_cls(
        make_config(block_size=BS, graph_passes="off")
    ).execute(query, inputs)
    assert seed.metrics.totals() == off.metrics.totals()


# -- the rewrites pay -------------------------------------------------------


def test_gnmf_fewer_units_and_lower_modeled_cost(workload):
    query, inputs = workload
    off_engine = FuseMEEngine(make_config(block_size=BS, graph_passes="off"))
    on_engine = FuseMEEngine(make_config(block_size=BS, graph_passes="all"))
    off = off_engine.execute(query, inputs)
    on = on_engine.execute(query, inputs)

    raw_units = len(off_engine.lower_query(query, inputs).ops)
    opt_units = len(on_engine.lower_query(query, inputs).ops)
    assert opt_units < raw_units

    off_totals = off.metrics.totals()
    on_totals = on.metrics.totals()
    assert on_totals["consolidation_bytes"] < off_totals["consolidation_bytes"]
    assert on_totals["elapsed_seconds"] < off_totals["elapsed_seconds"]


def test_merged_unit_profiles_keep_source_provenance(workload):
    query, inputs = workload
    engine = FuseMEEngine(make_config(block_size=BS, graph_passes="all"))
    profile = engine.profile(query, inputs)
    merged = [u for u in profile.units if u.kind == "merged"]
    assert merged, "GNMF should produce at least one merged unit"
    for unit in merged:
        assert len(unit.sources) > 1  # raw lowering indices, joinable
        assert f"<-{','.join(str(s) for s in unit.sources)}" in profile.render()


# -- configuration and caching ----------------------------------------------


def test_invalid_pass_name_rejected():
    with pytest.raises(ValueError):
        EngineConfig(graph_passes="merge_units,frobnicate")


def test_pass_spec_in_planning_signature():
    on = FuseMEEngine(make_config(block_size=BS, graph_passes="all"))
    off = FuseMEEngine(make_config(block_size=BS, graph_passes="off"))
    assert on.planning_signature() != off.planning_signature()


def test_plan_cache_stores_optimized_plan(workload):
    query, inputs = workload
    engine = FuseMEEngine(make_config(block_size=BS, graph_passes="all"))
    first = engine.lower_query(query, inputs)
    again = engine.lower_query(query, inputs)  # served from the plan cache
    assert again is first
    assert any(op.members for op in again.ops)
    assert engine.plan_cache.stats()["hits"] >= 1


# -- visualization ----------------------------------------------------------


def test_visualize_mermaid_and_dot(workload):
    query, inputs = workload
    engine = FuseMEEngine(make_config(block_size=BS, graph_passes="all"))
    physical = engine.lower_query(query, inputs)
    mermaid = physical.visualize()
    assert mermaid.startswith("flowchart TD")
    assert "subgraph" in mermaid and "class " in mermaid  # merged highlight
    assert "shared" in mermaid  # deduplicated consolidation edges
    dot = physical.visualize(fmt="dot")
    assert dot.startswith("digraph") and "->" in dot
    with pytest.raises(ValueError):
        physical.visualize(fmt="png")


# -- cross-query CSE --------------------------------------------------------


def _serving_pieces():
    engine = FuseMEEngine(make_config(block_size=BS))
    service = MatrixService(engine, ServiceConfig(cross_query_cse=True))
    return service


def test_cse_waiter_adopts_owner_result():
    query, inputs = gnmf_query(), gnmf_inputs()
    with _serving_pieces() as service:
        session = service.open_session("alice")
        for name, matrix in inputs.items():
            session.bind(name, matrix)
        key = result_key(
            service.engine.planning_signature(), as_dag(query), inputs
        )
        lease = service.pool.subplans.lease(key)
        assert lease.owner
        ticket = session.submit(query)
        for _ in range(500):  # dispatcher picks the ticket up, then waits
            if service.pool.running:
                break
            time.sleep(0.01)
        expected = FuseMEEngine(make_config(block_size=BS)).execute(
            query, inputs
        )
        service.pool.subplans.complete(key, expected)
        served = ticket.result(timeout=30)
        assert served.result is expected  # adopted verbatim
        stats = service.pool.subplans.stats()
        assert stats["hits"] == 1
        assert service.pool.replicas[0].cse_hits == 1
        assert service.status()["cse"]["hits"] == 1
        assert "repro_serving_cse_hits_total 1" in service.prometheus()


def test_cse_owner_failure_demotes_waiter_to_solo():
    query, inputs = gnmf_query(), gnmf_inputs()
    with _serving_pieces() as service:
        session = service.open_session("bob")
        for name, matrix in inputs.items():
            session.bind(name, matrix)
        key = result_key(
            service.engine.planning_signature(), as_dag(query), inputs
        )
        lease = service.pool.subplans.lease(key)
        ticket = session.submit(query)
        for _ in range(500):
            if service.pool.running:
                break
            time.sleep(0.01)
        service.pool.subplans.fail(key)
        served = ticket.result(timeout=60)  # executed solo, not failed
        baseline = FuseMEEngine(make_config(block_size=BS)).execute(
            query, inputs
        )
        for root_s, root_b in zip(served.result.dag.roots, baseline.dag.roots):
            assert np.array_equal(
                served.result.outputs[root_s].to_numpy(),
                baseline.outputs[root_b].to_numpy(),
            )
        stats = service.pool.subplans.stats()
        assert stats["fallbacks"] == 1 and stats["hits"] == 0


def test_cse_results_identical_vs_disabled():
    """A two-tenant replay of the same query produces identical per-query
    outputs with CSE on and off."""
    query, inputs = gnmf_query(), gnmf_inputs()

    def replay(cse: bool):
        engine = FuseMEEngine(make_config(block_size=BS))
        outputs = {}
        with MatrixService(
            engine, ServiceConfig(cross_query_cse=cse)
        ) as service:
            for tenant in ("alice", "bob"):
                session = service.open_session(tenant)
                for name, matrix in inputs.items():
                    session.bind(name, matrix)
                served = session.execute(query, timeout=60)
                outputs[tenant] = [
                    served.result.outputs[root].to_numpy()
                    for root in served.result.dag.roots
                ]
        return outputs

    on, off = replay(True), replay(False)
    for tenant in ("alice", "bob"):
        for a, b in zip(on[tenant], off[tenant]):
            assert np.array_equal(a, b)


def test_subplan_index_disabled_is_inert():
    index = SubplanIndex(enabled=False)
    lease = index.lease("k")
    assert lease.owner
    index.complete("k", object())
    assert index.stats() == {
        "enabled": False, "hits": 0, "executed": 0,
        "failures": 0, "fallbacks": 0, "inflight": 0,
    }


def test_subplan_index_concurrent_waiters():
    index = SubplanIndex()
    owner = index.lease("k")
    assert owner.owner
    results = []

    def wait():
        results.append(index.lease("k").wait(timeout=10))

    threads = [threading.Thread(target=wait) for _ in range(3)]
    for t in threads:
        t.start()
    time.sleep(0.05)
    index.complete("k", "payload")
    for t in threads:
        t.join()
    assert results == ["payload"] * 3
    assert index.stats()["hits"] == 3
    assert index.stats()["inflight"] == 0
