"""The loop-free pruned search against the search it replaced, bit for bit.

Two oracles are kept here verbatim from the previous implementation:

* ``RecursiveCostModel`` — the cost model as recursive walks of the space
  tree, rebuilding its ``SpaceKind``-keyed dicts at every level.  The
  compiled term lists of :mod:`repro.core.cost` must give the same floats
  (``repr``/``tobytes``) for every estimate, scalar or grid;
* ``reference_pruned`` — the ``(P, Q, R)`` search that bisected every
  ``(q, r)`` cell for its smallest feasible ``P`` and replayed the
  ``r -> q`` scan cell by cell in Python.  Run on ``RecursiveCostModel`` it
  *is* the previous search; the new one must return the same ``pqr``, the
  same ``evaluations`` tally and the same ``repr(PlanCost)``.

The suites are derandomized hypothesis runs over random plans (one
multiplication, multiplications nested in the L-, R- and O-spaces), cluster
sizes, memory budgets (down to all-infeasible grids), calibrated pricing and
shared sources, plus ``I = 1`` and cost ties.  An array-level suite holds
``optimizer._scan`` to the cell-by-cell scan on random grids whose bounds
are monotone and below their cells' costs, and a last one forces every
``P`` guess to miss so that the bisection fallback carries the answer.
"""

from __future__ import annotations

import math
from typing import Optional
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import optimizer
from repro.core.calibration import KernelCalibration
from repro.core.cost import INFEASIBLE, CostModel, PlanCost, price
from repro.core.plan import PartialFusionPlan
from repro.core.spaces import SpaceKind, SpaceTree, plan_layout
from repro.lang import DAG, log, matrix_input
from repro.lang.dag import InputNode

from tests.conftest import make_config
from tests.core.test_optimizer_properties import build_explored_plan

BS = 25


# ---------------------------------------------------------------------------
# oracles: the previous cost walks and search
# ---------------------------------------------------------------------------


def _env_key(node):
    return node.name if isinstance(node, InputNode) else node.node_id


def _confined(kind, pqr):
    p, q, r = pqr
    if kind is SpaceKind.L:
        return (p, 1, r)
    if kind is SpaceKind.R:
        return (1, q, r)
    return (p, q, 1)


class RecursiveCostModel(CostModel):
    """The cost model before its walks were compiled: every estimate walks
    the tree recursively."""

    def evaluate(self, plan, tree, pqr):
        mem = self.mem_est(plan, tree, pqr)
        net = self._reference_full_net(plan, tree, pqr)
        com = self.com_est(tree, pqr)
        feasible = mem <= self.config.cluster.task_memory_budget
        return PlanCost(
            pqr=pqr,
            mem_bytes_per_task=mem,
            net_bytes=net,
            com_flops=com,
            cost_seconds=(
                float(price(self.config, net, com, self.calibration))
                if feasible else INFEASIBLE
            ),
            feasible=feasible,
        )

    def full_seconds(self, plan, tree, pqr):
        return price(
            self.config,
            self._reference_full_net(plan, tree, pqr),
            self.com_est(tree, pqr),
            self.calibration,
        )

    def raw_seconds(self, tree, pqr):
        return price(
            self.config,
            self.net_est(tree, pqr),
            self.com_est(tree, pqr),
            self.calibration,
        )

    def mem_est(self, plan, tree, pqr):
        total = self._mem_tree(tree, pqr)
        if tree.produces_output:
            p, q, _ = pqr
            total = total + plan.root.meta.estimated_bytes / (p * q)
        return total

    def _mem_tree(self, tree, pqr):
        p, q, r = pqr
        divisors = {SpaceKind.L: p * r, SpaceKind.R: q * r, SpaceKind.O: p * q}
        total = 0.0
        for kind, space in tree.spaces.items():
            divisor = divisors[kind]
            for consumer, index in space.materialized:
                size = consumer.inputs[index].meta.estimated_bytes
                total = total + size / divisor
            confined = _confined(kind, pqr)
            for nested in space.nested:
                total = total + self._mem_tree(nested, confined)
        return total

    def net_est(self, tree, pqr, include_aggregation=False,
                outer_output_bytes=None):
        return self._net_tree(tree, pqr, 1.0, include_aggregation,
                              outer_output_bytes)

    def _reference_full_net(self, plan, tree, pqr):
        return self.net_est(
            tree, pqr, include_aggregation=True,
            outer_output_bytes=self._aggregated_tile_bytes(plan, tree),
        )

    def _net_tree(self, tree, pqr, multiplier, include_aggregation=False,
                  output_bytes=None):
        p, q, r = pqr
        factors = {SpaceKind.L: q, SpaceKind.R: p, SpaceKind.O: r}
        total = 0.0
        if include_aggregation:
            tile_volume = (
                output_bytes if output_bytes is not None
                else tree.mm.meta.estimated_bytes
            )
            total = total + multiplier * (r - 1) * tile_volume
        for kind, space in tree.spaces.items():
            factor = factors[kind]
            for consumer, index in space.materialized:
                source = consumer.inputs[index]
                if self.free_sources and _env_key(source) in self.free_sources:
                    continue
                total = total + multiplier * factor * source.meta.estimated_bytes
            confined = _confined(kind, pqr)
            for nested in space.nested:
                total = total + self._net_tree(
                    nested, confined, multiplier * factor,
                    include_aggregation=include_aggregation,
                )
        return total

    def com_est(self, tree, pqr):
        return self._com_tree(tree, pqr, 1.0)

    def _com_tree(self, tree, pqr, multiplier):
        p, q, r = pqr
        factors = {SpaceKind.L: q, SpaceKind.R: p, SpaceKind.O: r}
        total = multiplier * tree.mm.estimated_flops()
        for kind, space in tree.spaces.items():
            factor = factors[kind]
            for node in space.operators:
                total = total + multiplier * factor * node.estimated_flops()
            confined = _confined(kind, pqr)
            for nested in space.nested:
                total = total + self._com_tree(
                    nested, confined, multiplier * factor
                )
        return total


def reference_pruned(
    plan, tree: SpaceTree, model, extent_i, extent_j, extent_k, config
) -> tuple[Optional[PlanCost], int]:
    """The previous pruned search: lockstep bisection, then the scan
    replayed cell by cell over ``.tolist()`` copies of the grids."""
    slots = config.cluster.total_tasks
    voxels = extent_i * extent_j * extent_k
    evaluations = 0
    if voxels < slots:
        cost = model.evaluate(plan, tree, (extent_i, extent_j, extent_k))
        return (cost if cost.feasible else None), 1
    budget = config.cluster.task_memory_budget
    grid = (extent_k, extent_j)
    q = np.arange(1, extent_j + 1, dtype=np.float64)[np.newaxis, :]
    r = np.arange(1, extent_k + 1, dtype=np.float64)[:, np.newaxis]
    bounds = np.broadcast_to(model.raw_seconds(tree, (1, q, r)), grid).tolist()
    p_floor = np.maximum(1.0, np.ceil(slots / (q * r)))
    usable = (p_floor <= extent_i) & (
        model.mem_est(plan, tree, (extent_i, q, r)) <= budget
    )
    lo = np.where(usable, p_floor, extent_i)
    hi = np.full(grid, float(extent_i))
    for _ in range((extent_i - 1).bit_length()):
        mid = np.floor((lo + hi) / 2)
        fits = model.mem_est(plan, tree, (mid, q, r)) <= budget
        unsettled = lo < hi
        hi = np.where(unsettled & fits, mid, hi)
        lo = np.where(unsettled & ~fits, mid + 1, lo)
    seconds = np.broadcast_to(
        model.full_seconds(plan, tree, (lo, q, r)), grid
    ).tolist()
    p_floor, usable, p_best = p_floor.tolist(), usable.tolist(), lo.tolist()
    best = None
    for k in range(extent_k):
        evaluations += 1
        if best is not None and bounds[k][0] >= best[0]:
            break
        for j in range(extent_j):
            evaluations += 1
            if best is not None and bounds[k][j] >= best[0]:
                break
            if not usable[k][j]:
                continue
            evaluations += 2 + int(
                math.log2(max(1, extent_i - int(p_floor[k][j]) + 1))
            )
            if best is None or seconds[k][j] < best[0]:
                best = (seconds[k][j], (int(p_best[k][j]), j + 1, k + 1))
    if best is None:
        return None, evaluations
    return model.evaluate(plan, tree, best[1]), evaluations


def reference_scan(bounds, seconds, usable, p_floor, extent_i):
    """The scan of ``reference_pruned`` alone, on given grids."""
    best, evaluations = None, 0
    for k in range(bounds.shape[0]):
        evaluations += 1
        if best is not None and bounds[k, 0] >= best[0]:
            break
        for j in range(bounds.shape[1]):
            evaluations += 1
            if best is not None and bounds[k, j] >= best[0]:
                break
            if not usable[k, j]:
                continue
            evaluations += 2 + int(
                math.log2(max(1, extent_i - int(p_floor[k, j]) + 1))
            )
            if best is None or seconds[k, j] < best[0]:
                best = (seconds[k, j], (k, j))
    return (None if best is None else best[1]), evaluations


# ---------------------------------------------------------------------------
# random plans
# ---------------------------------------------------------------------------


def build_plan(shape, i_b, j_b, k_b, density):
    """A fused plan with its main multiplication alone (``"single"``),
    another nested in its O-space (``"nested"``: GNMF's U update), in its
    L-space (``"left"``) or in its R-space (``"right"``)."""
    if shape in ("single", "nested"):
        return build_explored_plan(shape, i_b, j_b, k_b, density)
    rows, cols, common = i_b * BS, j_b * BS, k_b * BS
    x = matrix_input("X", rows, cols, BS, density=density)
    w = matrix_input("W", common, common, BS)
    if shape == "left":
        u = matrix_input("U", rows, common, BS)
        v = matrix_input("V", cols, common, BS)
        expr = x * log((u @ w) @ v.T + 1e-8)
    else:
        u = matrix_input("U", rows, common, BS)
        v = matrix_input("V", common, cols, BS)
        expr = x * log(u @ (w @ v) + 1e-8)
    dag = DAG(expr.node)
    return PartialFusionPlan(set(dag.operators()), dag)


SHAPES = st.sampled_from(["single", "nested", "left", "right"])
BUDGETS = st.sampled_from(
    [1024, 16 * 1024, 32 * 1024, 64 * 1024, 128 * 1024, 256 * 1024,
     512 * 1024, 2 * 1024 * 1024, 64 * 1024 * 1024]
)
CALIBRATION = KernelCalibration(
    kind="cfo", bucket="sparse", inv_net_rate=3e-9, inv_com_rate=7e-11,
    overhead_seconds=0.25, samples=8,
)


#: Budgets placed between a plan's per-task memory fully partitioned
#: (0.0) and unpartitioned (1.0), on a log scale: most cells then need a
#: ``P`` above their floor, the case the guess and its fallback serve.
BINDING = st.sampled_from([0.05, 0.2, 0.35, 0.5, 0.65, 0.8, 0.95])


def binding_budget(plan, fraction):
    tree = plan_layout(plan).tree
    model = CostModel(make_config())
    low = model.mem_est(plan, tree, tree.mm.mm_dims())
    high = model.mem_est(plan, tree, (1, 1, 1))
    return int(math.exp(math.log(low) + fraction * math.log(high / low)))


def both_searches(plan, config, calibration=None, free_sources=()):
    tree = plan_layout(plan).tree
    extents = tree.mm.mm_dims()
    new = optimizer._pruned(
        plan, tree,
        CostModel(config, calibration=calibration, free_sources=free_sources),
        *extents, config,
    )
    old = reference_pruned(
        plan, tree,
        RecursiveCostModel(
            config, calibration=calibration, free_sources=free_sources
        ),
        *extents, config,
    )
    return new, old


def assert_same(new, old):
    (new_best, new_evals), (old_best, old_evals) = new, old
    assert new_evals == old_evals
    assert repr(new_best) == repr(old_best)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    SHAPES, st.integers(1, 12), st.integers(1, 10), st.integers(1, 6),
    st.sampled_from([0.01, 0.1, 0.5, 1.0]),
    st.integers(1, 8), st.integers(1, 12), st.one_of(BUDGETS, BINDING),
    st.booleans(), st.sampled_from([(), ("X",), ("U", "W")]),
)
def test_pruned_search_equals_the_reference(
    shape, i_b, j_b, k_b, density, nodes, tasks, budget, calibrated, free
):
    plan = build_plan(shape, i_b, j_b, k_b, density)
    if isinstance(budget, float):
        budget = binding_budget(plan, budget)
    config = make_config(
        num_nodes=nodes, tasks_per_node=tasks, task_memory_budget=budget
    )
    assert_same(*both_searches(
        plan, config, CALIBRATION if calibrated else None, free
    ))


@pytest.mark.parametrize("shape", ["single", "nested", "left", "right"])
def test_an_all_infeasible_grid(shape):
    plan = build_plan(shape, 8, 6, 3, 0.1)
    config = make_config(task_memory_budget=64)
    new, old = both_searches(plan, config)
    assert new[0] is None
    assert_same(new, old)


@pytest.mark.parametrize("shape, dims", [
    ("single", (1, 12, 6)), ("nested", (6, 12, 1)),
    ("left", (1, 12, 6)), ("right", (1, 12, 6)),
])
def test_a_single_row_block(shape, dims):
    """``I = 1``: the bisection interval is one candidate wide."""
    plan = build_plan(shape, *dims, 0.1)
    config = make_config(num_nodes=2, tasks_per_node=3)
    tree = plan_layout(plan).tree
    assert tree.mm.mm_dims()[0] == 1
    new, old = both_searches(plan, config)
    assert new[0] is not None
    assert_same(new, old)


def test_ties_go_to_the_first_cell_in_scan_order():
    """A dense, compute-bound plan: every ``(q, r)`` cell with room for the
    cluster costs the same seconds, so the strict ``<`` of the scan
    decides, and the first one wins."""
    plan = build_plan("single", 12, 12, 4, 1.0)
    config = make_config(num_nodes=1, tasks_per_node=2)
    tree = plan_layout(plan).tree
    model = CostModel(config)
    q = np.arange(1, 13, dtype=np.float64)[np.newaxis, :]
    r = np.arange(1, 5, dtype=np.float64)[:, np.newaxis]
    seconds = np.broadcast_to(model.full_seconds(plan, tree, (1, q, r)), (4, 12))
    assert len(np.unique(seconds)) < seconds.size  # ties exist
    new, old = both_searches(plan, config)
    assert_same(new, old)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    SHAPES, st.integers(4, 12), st.integers(2, 10), st.integers(1, 6),
    st.sampled_from([0.01, 0.5, 1.0]), st.integers(1, 3), BINDING,
    st.sampled_from(["low", "high", "wild"]),
)
def test_a_missed_guess_falls_back_to_bisection(
    shape, i_b, j_b, k_b, density, tasks, fraction, miss
):
    """Every guess of the smallest feasible ``P`` is wrong: one too low,
    one too high, or anywhere.  The bisection fallback must still land on
    the reference's answer."""
    guess_p = optimizer._guess_p

    def wrong(mem_start, mem_max, start, extent_i, budget, open_):
        guess = guess_p(mem_start, mem_max, start, extent_i, budget, open_)
        if miss == "low":
            guess = guess - 1
        elif miss == "high":
            guess = guess + 1
        else:
            guess = np.random.default_rng(0).integers(1, extent_i + 1, guess.shape)
        return np.clip(guess, start + 1, extent_i)

    with mock.patch.object(optimizer, "_guess_p", wrong):
        plan = build_plan(shape, i_b, j_b, k_b, density)
        config = make_config(
            num_nodes=1, tasks_per_node=tasks,
            task_memory_budget=binding_budget(plan, fraction),
        )
        assert_same(*both_searches(plan, config))


# ---------------------------------------------------------------------------
# the compiled walks
# ---------------------------------------------------------------------------


def _same(a, b) -> bool:
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        a, b = np.broadcast_arrays(np.asarray(a), np.asarray(b))
        return a.tobytes() == b.tobytes()
    return type(a) is type(b) and repr(a) == repr(b)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    SHAPES, st.integers(1, 12), st.integers(1, 10), st.integers(1, 6),
    st.sampled_from([0.01, 0.1, 0.5, 1.0]),
    st.tuples(st.integers(1, 12), st.integers(1, 10), st.integers(1, 6)),
    st.booleans(), st.sampled_from([(), ("X",), ("U", "W")]),
)
def test_compiled_terms_equal_the_recursive_walks(
    shape, i_b, j_b, k_b, density, pqr, calibrated, free
):
    plan = build_plan(shape, i_b, j_b, k_b, density)
    tree = plan_layout(plan).tree
    config = make_config()
    calibration = CALIBRATION if calibrated else None
    new = CostModel(config, calibration=calibration, free_sources=free)
    old = RecursiveCostModel(config, calibration=calibration, free_sources=free)
    assert repr(new.evaluate(plan, tree, pqr)) == repr(
        old.evaluate(plan, tree, pqr)
    )
    p, _, _ = pqr
    q = np.arange(1, j_b + 1, dtype=np.float64)[np.newaxis, :]
    r = np.arange(1, k_b + 1, dtype=np.float64)[:, np.newaxis]
    p_grid = np.full((k_b, j_b), float(p))
    for candidate in (pqr, (1, q, r), (p_grid, q, r), (p, q, r)):
        assert _same(new.mem_est(plan, tree, candidate),
                     old.mem_est(plan, tree, candidate))
        assert _same(new.net_est(tree, candidate), old.net_est(tree, candidate))
        assert _same(new.net_est(tree, candidate, True),
                     old.net_est(tree, candidate, True))
        assert _same(new.com_est(tree, candidate), old.com_est(tree, candidate))
        assert _same(new.raw_seconds(tree, candidate),
                     old.raw_seconds(tree, candidate))
        assert _same(new.full_seconds(plan, tree, candidate),
                     old.full_seconds(plan, tree, candidate))


def test_compiled_terms_die_with_their_tree():
    """The terms are kept on the space tree, so a plan that dies takes them
    along: no module-level memo holds them."""
    import gc
    import weakref

    plan = build_plan("nested", 6, 5, 3, 0.1)
    tree = plan_layout(plan).tree
    CostModel(make_config()).evaluate(plan, tree, (2, 2, 1))
    terms = weakref.ref(tree.terms)
    del plan, tree
    gc.collect()
    assert terms() is None


# ---------------------------------------------------------------------------
# the scan alone
# ---------------------------------------------------------------------------


@st.composite
def scan_grids(draw):
    """Bounds non-decreasing along both axes, each usable cell's cost at or
    above its bound; values from a small lattice, so ties are common."""
    k, j = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    extent_i = draw(st.integers(1, 40))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    steps = rng.integers(0, 3, size=(k, j)).astype(np.float64)
    bounds = np.cumsum(np.cumsum(steps, axis=0), axis=1)
    seconds = bounds + rng.integers(0, 4, size=(k, j))
    usable = rng.random((k, j)) < draw(st.sampled_from([0.0, 0.3, 0.8, 1.0]))
    p_floor = rng.integers(1, extent_i + 3, size=(k, j)).astype(np.float64)
    return bounds, seconds, usable, p_floor, extent_i


@settings(max_examples=400, deadline=None, derandomize=True)
@given(scan_grids())
def test_scan_equals_the_cell_by_cell_scan(grids):
    bounds, seconds, usable, p_floor, extent_i = grids
    assert optimizer._scan(bounds, seconds, usable, p_floor, extent_i) == (
        reference_scan(bounds, seconds, usable, p_floor, extent_i)
    )
