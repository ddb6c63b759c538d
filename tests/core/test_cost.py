"""Tests for the cost model (Algorithm 1, Eqs. 2-5) against Table 1.

For the running example ``O = X * log(U x V^T + eps)`` Table 1 gives closed
forms; the model must reproduce them exactly:

* Net(P, Q, R) = R*|X| + Q*|U| + P*|V|
* Mem(P, Q, R) per task = |U|/(P*R) + |V|/(Q*R) + |X|/(P*Q) + |O|/(P*Q)
* BFO == the (T, T, 1) corner, RFO == the (I, J, 1) corner (Figure 9).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.calibration import KernelCalibration
from repro.core.cost import CostModel
from repro.core.plan import PartialFusionPlan
from repro.core.spaces import plan_layout
from repro.lang import DAG, log, matrix_input

from tests.conftest import make_config
from tests.core.test_optimizer_properties import build_explored_plan

BS = 25
I_BLOCKS, J_BLOCKS, K_BLOCKS = 8, 6, 2


@pytest.fixture
def setting():
    rows, cols, common = I_BLOCKS * BS, J_BLOCKS * BS, K_BLOCKS * BS
    x = matrix_input("X", rows, cols, BS, density=0.05)
    u = matrix_input("U", rows, common, BS)
    v = matrix_input("V", cols, common, BS)
    expr = x * log(u @ v.T + 1e-8)
    dag = DAG(expr.node)
    plan = PartialFusionPlan(set(dag.operators()), dag)
    layout = plan_layout(plan)
    config = make_config(block_size=BS)
    sizes = {
        "X": x.meta.estimated_bytes,
        "U": u.meta.estimated_bytes,
        "V": v.meta.estimated_bytes,
        "O": plan.root.meta.estimated_bytes,
    }
    return plan, layout, CostModel(config), sizes


class TestNetEst:
    @pytest.mark.parametrize("pqr", [(1, 1, 1), (2, 3, 2), (8, 6, 2), (4, 2, 1)])
    def test_matches_table1_formula(self, setting, pqr):
        plan, layout, model, sizes = setting
        p, q, r = pqr
        expected = r * sizes["X"] + q * sizes["U"] + p * sizes["V"]
        assert model.net_est(layout.tree, pqr) == pytest.approx(expected)

    def test_bfo_corner(self, setting):
        """BFO = (T, T, 1) in Figure 9: Net = |X| + T(|U| + |V|)."""
        plan, layout, model, sizes = setting
        t = 6  # pretend T tasks; stay within grid bounds
        expected = sizes["X"] + t * (sizes["U"] + sizes["V"])
        assert model.net_est(layout.tree, (t, t, 1)) == pytest.approx(expected)

    def test_rfo_corner(self, setting):
        """RFO = (I, J, 1): Net = |X| + J|U| + I|V|."""
        plan, layout, model, sizes = setting
        expected = (
            sizes["X"] + J_BLOCKS * sizes["U"] + I_BLOCKS * sizes["V"]
        )
        assert model.net_est(
            layout.tree, (I_BLOCKS, J_BLOCKS, 1)
        ) == pytest.approx(expected)

    def test_monotone_in_each_parameter(self, setting):
        plan, layout, model, _ = setting
        base = model.net_est(layout.tree, (2, 2, 1))
        assert model.net_est(layout.tree, (3, 2, 1)) >= base
        assert model.net_est(layout.tree, (2, 3, 1)) >= base
        assert model.net_est(layout.tree, (2, 2, 2)) >= base


class TestMemEst:
    @pytest.mark.parametrize("pqr", [(1, 1, 1), (2, 3, 2), (8, 6, 2)])
    def test_matches_eq3(self, setting, pqr):
        plan, layout, model, sizes = setting
        p, q, r = pqr
        expected = (
            sizes["U"] / (p * r)
            + sizes["V"] / (q * r)
            + sizes["X"] / (p * q)
            + sizes["O"] / (p * q)
        )
        assert model.mem_est(plan, layout.tree, pqr) == pytest.approx(expected)

    def test_monotone_decreasing(self, setting):
        plan, layout, model, _ = setting
        coarse = model.mem_est(plan, layout.tree, (1, 1, 1))
        fine = model.mem_est(plan, layout.tree, (8, 6, 2))
        assert fine < coarse


class TestComEst:
    def test_mm_counted_once(self, setting):
        """Doubling Q doubles L-space recomputation but not the matmul."""
        plan, layout, model, _ = setting
        mm_flops = layout.mm.estimated_flops()
        one = model.com_est(layout.tree, (1, 1, 1))
        doubled_q = model.com_est(layout.tree, (1, 2, 1))
        # difference comes only from replicated L-space work (none here: U is
        # a bare input with zero operator flops), so the mm term is constant
        assert one >= mm_flops
        assert doubled_q - one < mm_flops

    def test_transpose_recomputed_p_times(self, setting):
        """The transpose of V lives in R-space: computed P times (Table 1)."""
        plan, layout, model, _ = setting
        transpose = next(n for n in plan.nodes if n.label() == "r(T)")
        t_flops = transpose.estimated_flops()
        p1 = model.com_est(layout.tree, (1, 1, 1))
        p3 = model.com_est(layout.tree, (3, 1, 1))
        assert p3 - p1 == pytest.approx(2 * t_flops)


class TestCost:
    def test_infeasible_marks_infinite(self, setting):
        plan, layout, _, _ = setting
        tiny = make_config(block_size=BS, task_memory_budget=1)
        model = CostModel(tiny)
        cost = model.evaluate(plan, layout.tree, (1, 1, 1))
        assert not cost.feasible
        assert cost.cost_seconds == float("inf")

    def test_feasible_cost_positive(self, setting):
        plan, layout, model, _ = setting
        cost = model.evaluate(plan, layout.tree, (2, 2, 1))
        assert cost.feasible
        assert 0 < cost.cost_seconds < float("inf")

    def test_cost_ordering(self, setting):
        plan, layout, model, _ = setting
        cheap = model.evaluate(plan, layout.tree, (2, 2, 1))
        pricey = model.evaluate(plan, layout.tree, (8, 6, 2))
        assert (cheap < pricey) == (cheap.cost_seconds < pricey.cost_seconds)


# -- grid evaluation ------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(["single", "nested"]),
    st.integers(2, 14), st.integers(2, 12), st.integers(1, 6),
    st.sampled_from([0.01, 0.1, 0.5, 1.0]),
    st.sampled_from([None, {"X"}, {"U", "V"}]),
    st.sampled_from([
        None,
        KernelCalibration(
            kind="cfo", bucket="mid", inv_net_rate=3.7e-9,
            inv_com_rate=1.3e-10, overhead_seconds=0.05, samples=8,
        ),
    ]),
    st.randoms(use_true_random=False),
)
def test_grid_estimates_equal_scalar_calls_at_every_cell(
    shape, i_b, j_b, k_b, density, free, calibration, rng
):
    """One array-polymorphic formula: each estimate on a ``(q, r)`` grid —
    with ``p`` a constant or its own per-cell array — is ``==`` (not approx)
    the int call at that cell, for single, masked and nested plans, with
    and without ``free_sources`` and a calibration."""
    plan = build_explored_plan(shape, i_b, j_b, k_b, density)
    tree = plan_layout(plan).tree
    extent_i, extent_j, extent_k = tree.mm.mm_dims()
    model = CostModel(
        make_config(block_size=BS),
        calibration=calibration, free_sources=free,
    )
    q = np.arange(1, extent_j + 1, dtype=np.float64)[np.newaxis, :]
    r = np.arange(1, extent_k + 1, dtype=np.float64)[:, np.newaxis]
    shape_kj = (extent_k, extent_j)
    p_cells = [
        [rng.randint(1, extent_i) for _ in range(extent_j)]
        for _ in range(extent_k)
    ]
    for p in (1, extent_i, np.array(p_cells, dtype=np.float64)):
        grids = {
            "mem": model.mem_est(plan, tree, (p, q, r)),
            "net": model.net_est(tree, (p, q, r)),
            "net+agg": model.net_est(tree, (p, q, r), include_aggregation=True),
            "com": model.com_est(tree, (p, q, r)),
            "raw": model.raw_seconds(tree, (p, q, r)),
            "full": model.full_seconds(plan, tree, (p, q, r)),
        }
        grids = {k: np.broadcast_to(v, shape_kj) for k, v in grids.items()}
        for k in range(extent_k):
            for j in range(extent_j):
                cell_p = p if isinstance(p, int) else p_cells[k][j]
                pqr = (cell_p, j + 1, k + 1)
                assert grids["mem"][k, j] == model.mem_est(plan, tree, pqr)
                assert grids["net"][k, j] == model.net_est(tree, pqr)
                assert grids["net+agg"][k, j] == model.net_est(
                    tree, pqr, include_aggregation=True
                )
                assert grids["com"][k, j] == model.com_est(tree, pqr)
                assert grids["raw"][k, j] == model.raw_seconds(tree, pqr)
                # the budget is generous, so evaluate() prices every cell
                cost = model.evaluate(plan, tree, pqr)
                assert cost.feasible
                assert grids["full"][k, j] == cost.cost_seconds
                assert type(cost.cost_seconds) is float
