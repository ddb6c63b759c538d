"""Property-based tests on the (P*, Q*, R*) optimizer.

Across random instances and budgets the pruned search must agree with the
exhaustive search (it may only prune dominated candidates), and every
returned choice must respect the memory budget and the parallelism floor.
"""

from hypothesis import given, settings, strategies as st

from repro.core.cfg import exploration_phase
from repro.core.cost import CostModel
from repro.core.optimizer import optimize_parameters
from repro.core.plan import PartialFusionPlan
from repro.core.spaces import plan_layout
from repro.lang import DAG, log, matrix_input

from tests.conftest import make_config

BS = 25


def build_plan(i_blocks, j_blocks, k_blocks, density):
    rows, cols, common = i_blocks * BS, j_blocks * BS, k_blocks * BS
    x = matrix_input("X", rows, cols, BS, density=density)
    u = matrix_input("U", rows, common, BS)
    v = matrix_input("V", cols, common, BS)
    dag = DAG((x * log(u @ v.T + 1e-8)).node)
    return PartialFusionPlan(set(dag.operators()), dag)


def build_explored_plan(shape, i_blocks, j_blocks, k_blocks, density):
    """A candidate of the CFG exploration phase.

    ``"single"`` is the running example ``X * log(U x V^T + eps)`` — one
    multiplication, covered by a sparsity mask when *density* is below the
    mask threshold.  ``"nested"`` is GNMF's U update, whose candidate fuses
    ``t(V) %*% V %*% U`` as two multiplications nested in the O-space of
    ``t(V) %*% X``.
    """
    rows, cols, common = i_blocks * BS, j_blocks * BS, k_blocks * BS
    x = matrix_input("X", rows, cols, BS, density=density)
    if shape == "single":
        u = matrix_input("U", rows, common, BS)
        v = matrix_input("V", cols, common, BS)
        expr = x * log(u @ v.T + 1e-8)
    else:
        u = matrix_input("U", common, cols, BS)
        v = matrix_input("V", rows, common, BS)
        expr = u * (v.T @ x) / (v.T @ v @ u + 1e-9)
    candidates = exploration_phase(DAG(expr.node))
    return max(candidates, key=lambda plan: len(plan.matmuls()))


@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from(["single", "nested"]),
    st.integers(2, 14), st.integers(2, 12), st.integers(1, 6),
    st.sampled_from([0.01, 0.1, 0.5, 1.0]),
    st.sampled_from([256 * 1024, 2 * 1024 * 1024, 64 * 1024 * 1024]),
)
def test_pruned_never_worse_than_exhaustive(
    shape, i_b, j_b, k_b, density, budget
):
    plan = build_explored_plan(shape, i_b, j_b, k_b, density)
    config = make_config(task_memory_budget=budget)
    pruned = optimize_parameters(plan, config, method="pruned")
    exhaustive = optimize_parameters(plan, config, method="exhaustive")
    assert pruned.feasible == exhaustive.feasible
    if pruned.feasible:
        assert pruned.cost.cost_seconds == exhaustive.cost.cost_seconds


@settings(max_examples=25, deadline=None)
@given(
    st.integers(2, 14), st.integers(2, 12), st.integers(1, 6),
    st.sampled_from([0.01, 0.3, 1.0]),
)
def test_choice_respects_budget_and_floor(i_b, j_b, k_b, density):
    plan = build_plan(i_b, j_b, k_b, density)
    config = make_config(task_memory_budget=2 * 1024 * 1024)
    result = optimize_parameters(plan, config)
    p, q, r = result.pqr
    assert 1 <= p <= i_b and 1 <= q <= j_b and 1 <= r <= k_b
    if result.feasible:
        layout = plan_layout(plan)
        model = CostModel(config)
        assert (
            model.mem_est(plan, layout.tree, result.pqr)
            <= config.cluster.task_memory_budget
        )
        voxels = i_b * j_b * k_b
        floor = min(config.cluster.total_tasks, voxels)
        assert p * q * r >= floor
