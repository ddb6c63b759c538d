"""Tests for the fused slice evaluator (including the masked SDDMM path)."""

import numpy as np
import pytest

from repro.blocks import Block
from repro.core.fused_eval import (
    SliceEnv,
    evaluate_masked_slice,
    evaluate_slice,
    finish_masked,
    mask_pattern,
    masked_product,
)
from repro.core.plan import PartialFusionPlan
from repro.core.spaces import find_sparsity_mask, plan_layout
from repro.errors import ExecutionError
from repro.lang import DAG, evaluate, log, matrix_input, nnz_mask, sq, sum_of

BS = 25


def nmf_setting(density=0.05, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(size=(50, 75)) * (rng.uniform(size=(50, 75)) < density)
    u = rng.uniform(size=(50, 25))
    v = rng.uniform(size=(75, 25))
    xe = matrix_input("X", 50, 75, BS, density=density)
    ue = matrix_input("U", 50, 25, BS)
    ve = matrix_input("V", 75, 25, BS)
    expr = xe * log(ue @ ve.T + 1e-8)
    dag = DAG(expr.node)
    plan = PartialFusionPlan(set(dag.operators()), dag)
    layout = plan_layout(plan)
    env = SliceEnv(frontier=_bind_all(plan, {"X": x, "U": u, "V": v}))
    return plan, layout, env, {"X": x, "U": u, "V": v}


def _bind_all(plan, values):
    frontier = {}
    for node in plan.topo_nodes():
        for idx, child in enumerate(node.inputs):
            if child not in plan.nodes:
                frontier[(node, idx)] = Block(values[child.name])
    return frontier


class TestEvaluateSlice:
    def test_full_plan_matches_interpreter(self):
        plan, layout, env, values = nmf_setting()
        out = evaluate_slice(plan, env)
        expected = evaluate(plan.root, values)
        np.testing.assert_allclose(out.to_numpy(), expected, atol=1e-10)

    def test_flops_accumulate(self):
        plan, layout, env, values = nmf_setting()
        evaluate_slice(plan, env)
        assert env.flops > 0

    def test_partial_root(self):
        plan, layout, env, values = nmf_setting()
        out = evaluate_slice(plan, env, root=layout.mm)
        np.testing.assert_allclose(
            out.to_numpy(), values["U"] @ values["V"].T, atol=1e-10
        )

    def test_bound_node_short_circuits(self):
        plan, layout, env, values = nmf_setting()
        fake = Block(np.ones((50, 75)))
        env.bind_node(layout.mm, fake)
        out = evaluate_slice(plan, env)
        expected = values["X"] * np.log(np.ones((50, 75)) + 1e-8)
        np.testing.assert_allclose(out.to_numpy(), expected, atol=1e-10)

    def test_missing_edge_raises(self):
        plan, layout, env, values = nmf_setting()
        env.frontier.clear()
        with pytest.raises(ExecutionError):
            evaluate_slice(plan, env)


class TestMaskedPath:
    def test_masked_matches_dense_path(self):
        plan, layout, env, values = nmf_setting(density=0.1)
        mask = find_sparsity_mask(plan, layout.mm, layout.tree)
        assert mask is not None
        dense_out = evaluate_slice(plan, SliceEnv(frontier=dict(env.frontier)))
        masked_out = evaluate_masked_slice(plan, env, layout.mm, mask)
        np.testing.assert_allclose(
            masked_out.to_numpy(), dense_out.to_numpy(), atol=1e-10
        )
        assert masked_out.is_sparse

    def test_masked_uses_fewer_flops(self):
        plan, layout, env, values = nmf_setting(density=0.05)
        mask = find_sparsity_mask(plan, layout.mm, layout.tree)
        dense_env = SliceEnv(frontier=dict(env.frontier))
        evaluate_slice(plan, dense_env)
        evaluate_masked_slice(plan, env, layout.mm, mask)
        assert env.flops < dense_env.flops / 2

    def test_mask_positions_match_pattern(self):
        plan, layout, env, values = nmf_setting(density=0.05)
        mask = find_sparsity_mask(plan, layout.mm, layout.tree)
        pattern = mask_pattern(plan, env, mask)
        expected = np.count_nonzero(values["X"])
        assert pattern.mask.nnz == expected

    def test_empty_mask_yields_empty_tile(self):
        plan, layout, env, values = nmf_setting(density=0.05)
        zero = np.zeros_like(values["X"])
        env = SliceEnv(frontier=_bind_all(plan, {**values, "X": zero}))
        mask = find_sparsity_mask(plan, layout.mm, layout.tree)
        out = evaluate_masked_slice(plan, env, layout.mm, mask)
        assert out.nnz == 0

    def test_two_phase_masked_aggregation(self):
        """masked_product partials summed over k then finished == one shot."""
        plan, layout, env, values = nmf_setting(density=0.1)
        mask = find_sparsity_mask(plan, layout.mm, layout.tree)
        pattern = mask_pattern(plan, env, mask)

        # split U/V along k into two halves and sum the masked partials
        u, v = values["U"], values["V"]
        total = None
        for lo, hi in ((0, 12), (12, 25)):
            half = SliceEnv(frontier=_bind_all(
                plan, {**values, "U": u[:, lo:hi], "V": v[:, lo:hi]}
            ))
            part = masked_product(plan, half, layout.mm, pattern)
            total = part if total is None else Block(
                (total.data + part.data).tocsr()
            )
        out = finish_masked(plan, env, layout.mm, total, pattern)
        one_shot = evaluate_masked_slice(
            plan, SliceEnv(frontier=dict(env.frontier)), layout.mm, mask
        )
        np.testing.assert_allclose(
            out.to_numpy(), one_shot.to_numpy(), atol=1e-10
        )

    def test_masked_aggregation_root(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(size=(50, 75)) * (rng.uniform(size=(50, 75)) < 0.1)
        u = rng.uniform(size=(50, 25))
        v = rng.uniform(size=(25, 75))
        xe = matrix_input("X", 50, 75, BS, density=0.1)
        ue = matrix_input("U", 50, 25, BS)
        ve = matrix_input("V", 25, 75, BS)
        expr = sum_of(nnz_mask(xe) * sq(xe - ue @ ve))
        dag = DAG(expr.node)
        plan = PartialFusionPlan(set(dag.operators()), dag)
        layout = plan_layout(plan)
        mask = find_sparsity_mask(plan, layout.mm, layout.tree)
        assert mask is not None
        env = SliceEnv(frontier=_bind_all(plan, {"X": x, "U": u, "V": v}))
        out = evaluate_masked_slice(plan, env, layout.mm, mask)
        expected = np.sum((x != 0) * (x - u @ v) ** 2)
        assert out.to_numpy()[0, 0] == pytest.approx(expected)
