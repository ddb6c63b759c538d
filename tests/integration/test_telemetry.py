"""Full-stack telemetry: profiles and invariance.

The observability contract has two halves tested here.  Accountability:
``result.profile`` joins every unit's cost-model prediction with its
measured stage totals, the report is deterministic (golden-pinned for the
GNMF iteration), and a deliberately mis-calibrated model surfaces as a
nonzero relative error.  Non-invasiveness: with telemetry on or off, all
five engines produce bit-identical outputs and unchanged modeled totals —
counters and profiles observe the run, they never steer it.
"""

import dataclasses
import json

import numpy as np
import pytest

from repro import (
    DistMELikeEngine,
    FuseMEEngine,
    LocalXLAEngine,
    MatFastLikeEngine,
    SystemDSLikeEngine,
)
from repro.cluster import SimulatedCluster
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


@pytest.fixture(scope="module")
def workload():
    from repro.matrix import rand_dense, rand_sparse

    q = gnmf_updates(100, 80, 20, density=0.2, block_size=BS)
    inputs = {
        "X": rand_sparse(100, 80, density=0.2, block_size=BS, seed=11),
        "U": rand_dense(20, 80, BS, seed=12, low=0.1, high=1.0),
        "V": rand_dense(100, 20, BS, seed=13, low=0.1, high=1.0),
    }
    return [q.u_update, q.v_update], inputs


# -- accountability ---------------------------------------------------------

GOLDEN_GNMF_REPORT = """\
QueryProfile[FuseME]: 4 unit(s), 8 stage(s); measured 0.4023s, predicted 0.002266s (err -99.4%)
unit  kind  pqr        sec(pred)  sec(meas)  sec err  net(pred)  net(meas)  net err  flops(pred)  flops(meas)  flops err  label
[0]   cfo   (1, 1, 5)  0.0001792  0.1005     -99.8%   4.48e+04   2.88e+04   +55.6%   8.2e+04      8.36e+04     -1.9%      F[r(T),ba(x)]
[1]   cfo   (4, 1, 2)  0.0007936  0.1005     -99.2%   1.984e+05  9.92e+04   +100.0%  6.464e+05    6.484e+05    -0.3%      F[ba(x),r(T),ba(x)]
[2]   cfo   (1, 4, 2)  0.0006912  0.1006     -99.3%   1.728e+05  1.491e+05  +15.9%   2.096e+05    1.433e+05    +46.2%     F[r(T),ba(x),b(mul),ba(x),b(add:,s1e-09),b(div)]
[3]   cfo   (4, 1, 2)  0.0006016  0.1007     -99.4%   1.504e+05  1.515e+05  -0.7%    8.24e+04     7.932e+04    +3.9%      F[r(T),ba(x),b(mul),b(add:,s1e-09),b(div)]
counters: cuboids_enumerated=65, cuboids_evaluated=52, cuboids_pruned=13, env_keys_released=5, plan_cache_misses=1, slice_cache_hits=91, slice_cache_misses=35"""

#: The same iteration at the default: each wave's two units run as one
#: merged unit, and X, U and V are shuffled once.
GOLDEN_GNMF_SHARED_REPORT = """\
QueryProfile[FuseME]: 2 unit(s), 8 stage(s); measured 0.4014s, predicted 0.001792s (err -99.6%)
unit      kind    pqr  sec(pred)  sec(meas)  sec err  net(pred)  net(meas)  net err  flops(pred)  flops(meas)  flops err  label
[0<-0,1]  merged  -    0.0009088  0.2008     -99.5%   2.272e+05  9.6e+04    +136.7%  7.284e+05    7.32e+05     -0.5%      merged(0,1)
[1<-2,3]  merged  -    0.0008832  0.2005     -99.6%   2.208e+05  1.075e+05  +105.4%  2.92e+05     2.226e+05    +31.2%     merged(2,3)
counters: cuboids_enumerated=65, cuboids_evaluated=52, cuboids_pruned=13, env_keys_released=5, plan_cache_misses=1, slice_cache_hits=91, slice_cache_misses=35"""


def test_golden_gnmf_profile_report(workload):
    """The GNMF-iteration EXPLAIN ANALYZE is pinned byte-for-byte, under
    the paper's CFG and at the default: any change to the cost model, the
    lowering, the graph passes or the modeled execution shows up as a diff
    of one of these reports."""
    query, inputs = workload
    paper = FuseMEEngine(make_config(block_size=BS, graph_passes="off"))
    assert paper.execute(query, inputs).profile.render() == GOLDEN_GNMF_REPORT
    profile = FuseMEEngine(make_config(block_size=BS)).execute(query, inputs).profile
    assert profile.render() == GOLDEN_GNMF_SHARED_REPORT


@pytest.mark.parametrize("engine_cls", ENGINES, ids=lambda c: c.name)
def test_profile_covers_every_unit(engine_cls, workload):
    query, inputs = workload
    engine = engine_cls(make_config(block_size=BS))
    result = engine.execute(query, inputs)
    profile, plan = result.profile, result.physical_plan
    assert [u.index for u in profile.units] == [op.index for op in plan.ops]
    for unit, op in zip(profile.units, plan.ops):
        assert unit.kind == op.kind
        assert unit.measured_seconds > 0.0
        assert unit.num_stages > 0
        # the rel-error triple is always present (None only where the
        # planner made no claim for that axis)
        for attr in ("seconds_error", "net_bytes_error", "flops_error"):
            error = getattr(unit, attr)
            assert error is None or isinstance(error, float)
        if op.estimate is not None:
            assert unit.net_bytes_error is not None
    assert profile.measured_seconds == pytest.approx(
        sum(u.measured_seconds for u in profile.units)
    )


def test_profile_aggregates(workload):
    """Aggregates and counters; on one shared cluster the first run's
    profile records the plan-cache miss and the rerun's the plan-cache hit
    and the slice-cache reuse."""
    query, inputs = workload
    config = make_config(block_size=BS)
    engine = FuseMEEngine(config)
    cluster = SimulatedCluster(config)
    profile = engine.execute(query, inputs, cluster=cluster).profile
    rerun = engine.execute(query, inputs, cluster=cluster).profile
    assert profile.engine == "FuseME"
    assert profile.counters["plan_cache_misses"] == 1
    assert "plan_cache_hits" not in profile.counters
    assert rerun.counters["plan_cache_hits"] == 1
    assert "plan_cache_misses" not in rerun.counters
    assert rerun.counters["slice_cache_hits"] > 0
    # optimizer counters describe the cached plan's recorded search
    assert rerun.counters["cuboids_enumerated"] == (
        profile.counters["cuboids_enumerated"]
    )
    assert all(u.measured_wall_seconds >= 0.0 for u in profile.units)
    assert profile.seconds_error is not None
    assert profile.mean_abs_seconds_error is not None
    assert profile.counters["cuboids_enumerated"] > 0
    assert (
        profile.counters["cuboids_evaluated"]
        + profile.counters["cuboids_pruned"]
        == profile.counters["cuboids_enumerated"]
    )


def test_profile_requires_telemetry(workload):
    query, inputs = workload
    engine = FuseMEEngine(make_config(block_size=BS, telemetry=False))
    result = engine.execute(query, inputs)
    assert result.profile is None


class MiscalibratedFuseME(FuseMEEngine):
    """FuseME with every cost-model prediction inflated 1000x.

    Estimates are planner-side only, so execution is untouched — but the
    accountability join must expose the inflation as large positive error.
    """

    def annotate_unit(self, unit):
        note = super().annotate_unit(unit)
        if note.estimate is None:
            return note
        est = note.estimate
        scaled = dataclasses.replace(
            est,
            net_bytes=est.net_bytes * 1000.0,
            flops=est.flops * 1000.0,
            seconds=None if est.seconds is None else est.seconds * 1000.0,
        )
        return dataclasses.replace(note, estimate=scaled)


def test_perturbed_cost_model_surfaces_nonzero_error(workload):
    # paper mode: the merge pass re-prices members that read a shared input
    # from the cost model, so it would drop part of the inflation
    config = make_config(block_size=BS, graph_passes="off")
    query, inputs = workload
    honest = FuseMEEngine(config).execute(query, inputs).profile
    skewed = MiscalibratedFuseME(config).execute(query, inputs).profile
    # execution is identical: predictions never feed the modeled run
    assert skewed.totals == honest.totals
    # ...but accountability sees straight through the inflation: the honest
    # model under-predicts (launch overhead isn't in its estimates), the
    # inflated one flips to large over-prediction
    assert honest.seconds_error < 0.0
    assert skewed.seconds_error > 1.0
    assert skewed.predicted_seconds == pytest.approx(
        honest.predicted_seconds * 1000.0
    )
    for honest_unit, unit in zip(honest.units, skewed.units):
        if unit.predicted_seconds is not None:
            assert honest_unit.seconds_error < 0.0 < unit.seconds_error
            assert unit.flops_error > 100.0


# -- non-invasiveness -------------------------------------------------------


@pytest.mark.parametrize("engine_cls", ENGINES, ids=lambda c: c.name)
def test_telemetry_is_bit_identical_noop(engine_cls, workload):
    """Outputs and every modeled total are unchanged by telemetry."""
    query, inputs = workload
    on = engine_cls(make_config(block_size=BS)).execute(query, inputs)
    off = engine_cls(
        make_config(block_size=BS, telemetry=False)
    ).execute(query, inputs)

    assert on.metrics.totals() == off.metrics.totals()
    for root_on, root_off in zip(on.dag.roots, off.dag.roots):
        assert np.array_equal(
            on.outputs[root_on].to_numpy(), off.outputs[root_off].to_numpy()
        )
    assert on.profile is not None
    assert off.profile is None


def test_profile_document_carries_totals_and_counters(workload):
    """``profile.to_dict()`` is the query's whole telemetry record as plain
    JSON: totals, counters and every unit."""
    query, inputs = workload
    profile = FuseMEEngine(make_config(block_size=BS)).execute(query, inputs).profile
    document = json.loads(json.dumps(profile.to_dict()))
    assert document["engine"] == "FuseME"
    assert len(document["units"]) == len(profile.units)
    assert document["totals"]["elapsed_seconds"] > 0.0
    assert document["counters"]["cuboids_enumerated"] > 0
    assert document == profile.to_dict()
    assert "span" not in document

