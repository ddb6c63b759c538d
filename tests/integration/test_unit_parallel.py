"""Unit dispatch: order, per-unit attribution and intermediate release.

Units always run one at a time in plan order
(``repro.core.physical.run_physical_plan``), and each operator runs its
tasks one after another on the same thread.  Across all five engines the
stage records come out in unit order by construction, every stage is
attributed to its unit, and dead intermediates are freed at their last
consumer.
"""

import pytest

from repro import (
    DistMELikeEngine,
    FuseMEEngine,
    LocalXLAEngine,
    MatFastLikeEngine,
    SystemDSLikeEngine,
)
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
    """The two-root GNMF update: two independent unit chains per query."""
    from repro.matrix import rand_dense, rand_sparse

    q = gnmf_updates(100, 80, 20, density=0.2, block_size=BS)
    inputs = {
        "X": rand_sparse(100, 80, density=0.2, block_size=BS, seed=11),
        "U": rand_dense(20, 80, BS, seed=12, low=0.1, high=1.0),
        "V": rand_dense(100, 20, BS, seed=13, low=0.1, high=1.0),
    }
    return [q.u_update, q.v_update], inputs


@pytest.mark.parametrize("graph_passes", ["off", "all"])
@pytest.mark.parametrize("engine_cls", ENGINES, ids=lambda c: c.name)
def test_stage_records_are_in_unit_order(engine_cls, graph_passes, workload):
    """Records are appended by the driver as each unit finishes, so the
    unit column is non-decreasing — merged-unit plans included."""
    query, inputs = workload
    result = engine_cls(
        make_config(block_size=BS, graph_passes=graph_passes)
    ).execute(query, inputs)
    if engine_cls is FuseMEEngine and graph_passes == "all":
        assert any(op.members for op in result.physical_plan.ops)
    units = [s.unit for s in result.metrics.stages]
    assert None not in units
    assert units == sorted(units)


def test_per_unit_metrics_attribution(workload):
    """Every stage of a physical-plan run is attributed to its unit, and
    per-unit totals sum back to the query totals."""
    query, inputs = workload
    # paper mode runs 4 units; the default merges each wave's two into one
    for graph_passes, units in (("off", {0, 1, 2, 3}), ("all", {0, 1})):
        engine = FuseMEEngine(
            make_config(block_size=BS, graph_passes=graph_passes)
        )
        result = engine.execute(query, inputs)
        per_unit = result.metrics.per_unit_totals()
        assert set(per_unit) == units
        assert sum(u["comm_bytes"] for u in per_unit.values()) == (
            result.metrics.comm_bytes
        )
        assert sum(u["num_stages"] for u in per_unit.values()) == (
            result.metrics.num_stages
        )


def test_intermediates_released_at_last_consumer(workload):
    """The lifetime model frees dead env keys (observability counter) while
    leaving results intact."""
    query, inputs = workload
    result = FuseMEEngine(make_config(block_size=BS)).execute(query, inputs)
    # 2 intermediates + 3 inputs die before end-of-query
    assert result.metrics.counter("env_keys_released") == 5
    assert result.output(0).shape == (20, 80)
    assert result.output(1).shape == (100, 20)

