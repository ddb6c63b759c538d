"""The graph-pass pipeline contract suite.

Three guarantees, across all five engines:

* **bit-identity** — enabling the pass pipeline never changes any matrix
  output;
* **off == seed** — with ``graph_passes="off"`` the modeled metrics are
  exactly what the engine produced before the pipeline existed (pinned);
* **the rewrites pay** — on GNMF the merged plan has strictly fewer units
  and strictly lower modeled cost than raw lowering.
"""


import numpy as np
import pytest

from repro import (
    DistMELikeEngine,
    FuseMEEngine,
    LocalXLAEngine,
    MatFastLikeEngine,
    SystemDSLikeEngine,
)
from repro.config import EngineConfig
from repro.core.cost import CostModel
from repro.core.passes.merge_units import MergeUnitsPass
from repro.core.spaces import plan_layout
from repro.matrix import rand_dense, rand_sparse
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
    for op in physical.ops:
        if op.members:
            # provenance: merged units name their raw-lowering members
            assert op.sources == tuple(m.index for m in op.members)


# -- bit-identity: pass on == pass off ---------------------------------------


@pytest.mark.parametrize("engine_cls", ENGINES, ids=lambda c: c.name)
def test_passes_are_bit_identical(engine_cls, workload):
    query, inputs = workload
    off = engine_cls(
        make_config(block_size=BS, graph_passes="off")
    ).execute(query, inputs)
    on = engine_cls(
        make_config(block_size=BS, graph_passes="all")
    ).execute(query, inputs)
    for root_off, root_on in zip(off.dag.roots, on.dag.roots):
        assert np.array_equal(
            off.outputs[root_off].to_numpy(), on.outputs[root_on].to_numpy()
        )


#: Modeled totals of the workload at each engine's default before the pass
#: pipeline existed (then, and until sharing became the default, the plan
#: ``graph_passes="off"`` gives).
SEED_TOTALS = {
    "FuseME": (8, 42, 371016, 57600, 954640, 0.40229046400000007, 35836),
    "DistME": (20, 97, 581416, 83200, 942240, 1.004412064, 32000),
    "SystemDS": (11, 35, 461512, 0, 1171840, 0.558624384, 92800),
    "MatFast": (12, 33, 368712, 0, 931840, 0.6082147840000001, 92800),
    "TensorFlow": (1, 1, 0, 0, 930000, 0.0500017032967033, 113956),
}


@pytest.mark.parametrize("engine_cls", ENGINES, ids=lambda c: c.name)
def test_off_mode_modeled_metrics_match_seed(engine_cls, workload):
    """``graph_passes="off"`` is the seed path: every modeled total equals
    the seed's exactly (the pipeline allocates nothing)."""
    query, inputs = workload
    off = engine_cls(
        make_config(block_size=BS, graph_passes="off")
    ).execute(query, inputs)
    fields = (
        "num_stages", "num_tasks", "consolidation_bytes", "aggregation_bytes",
        "flops", "elapsed_seconds", "peak_task_memory",
    )
    totals = off.metrics.totals()
    assert tuple(totals[f] for f in fields) == SEED_TOTALS[engine_cls.name]
    assert totals["num_aborted_stages"] == 0


# -- the rewrites pay -------------------------------------------------------


def test_gnmf_fewer_units_and_lower_modeled_cost(workload):
    query, inputs = workload
    off_engine = FuseMEEngine(make_config(block_size=BS, graph_passes="off"))
    on_engine = FuseMEEngine(make_config(block_size=BS, graph_passes="all"))
    off = off_engine.execute(query, inputs)
    on = on_engine.execute(query, inputs)

    raw_units = len(off_engine.lower_query(query).ops)
    opt_units = len(on_engine.lower_query(query).ops)
    assert opt_units < raw_units

    off_totals = off.metrics.totals()
    on_totals = on.metrics.totals()
    assert on_totals["consolidation_bytes"] < off_totals["consolidation_bytes"]
    assert on_totals["elapsed_seconds"] < off_totals["elapsed_seconds"]


def test_merged_unit_profiles_keep_source_provenance(workload):
    query, inputs = workload
    engine = FuseMEEngine(make_config(block_size=BS, graph_passes="all"))
    profile = engine.execute(query, inputs).profile
    merged = [u for u in profile.units if u.kind == "merged"]
    assert merged, "GNMF should produce at least one merged unit"
    for unit in merged:
        assert len(unit.sources) > 1  # raw lowering indices, joinable
        assert f"<-{','.join(str(s) for s in unit.sources)}" in profile.render()


# -- configuration and caching ----------------------------------------------


def test_invalid_pass_name_rejected():
    """Only ``"off"`` and ``"all"`` are specs; no pass runs on its own."""
    for spec in ("merge_units,frobnicate", "merge_units", ""):
        with pytest.raises(ValueError):
            EngineConfig(graph_passes=spec)


def test_pass_spec_in_planning_signature():
    on = FuseMEEngine(make_config(block_size=BS, graph_passes="all"))
    off = FuseMEEngine(make_config(block_size=BS, graph_passes="off"))
    assert on.planning_signature() != off.planning_signature()


def test_plan_cache_stores_optimized_plan(workload):
    query, _ = workload
    engine = FuseMEEngine(make_config(block_size=BS, graph_passes="all"))
    first = engine.lower_query(query)
    again = engine.lower_query(query)  # served from the plan cache
    assert again is first
    assert any(op.members for op in again.ops)
    assert engine.plan_cache.stats()["hits"] >= 1


def test_merged_multiplication_member_is_priced_under_its_own_kind(workload):
    """DistME lowers a multiplication as a ``"cuboid-mm"`` unit, so the merge
    pass must price its member with the ``"cuboid-mm"`` fit, as lowering
    does — never with a ``"cfo"`` fit it does not have."""
    query, _ = workload
    engine = DistMELikeEngine(make_config(
        block_size=BS, graph_passes="off", calibration="active"
    ))
    for step in range(4):
        engine.calibration.observe(
            "cuboid-mm", "dense", net_bytes=1e6 * (step + 1),
            flops=1e8 * (4 - step), measured_seconds=0.5 + 0.1 * step,
        )
    engine.calibration.commit()
    op = next(op for op in engine.lower_query(query).ops if op.pqr is not None)
    plan = op.unit.plan
    fit = engine.calibration_for("cuboid-mm", plan)
    assert fit is not None and engine.calibration_for("cfo", plan) is None
    free = frozenset(op.consumes[:1])
    cost = CostModel(engine.config, calibration=fit, free_sources=free).evaluate(
        plan, plan_layout(plan).tree, op.pqr
    )
    assert MergeUnitsPass._member_estimate(engine, op, free) == (
        float(cost.net_bytes), float(cost.com_flops), float(cost.cost_seconds)
    )


# -- visualization ----------------------------------------------------------


def test_visualize_mermaid_and_dot(workload):
    query, _ = workload
    engine = FuseMEEngine(make_config(block_size=BS, graph_passes="all"))
    physical = engine.lower_query(query)
    mermaid = physical.visualize()
    assert mermaid.startswith("flowchart TD")
    assert "subgraph" in mermaid and "class " in mermaid  # merged highlight
    assert "shared" in mermaid  # deduplicated consolidation edges
    dot = physical.visualize(fmt="dot")
    assert dot.startswith("digraph") and "->" in dot
    with pytest.raises(ValueError):
        physical.visualize(fmt="png")
