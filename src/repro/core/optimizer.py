"""Finding the optimal ``(P*, Q*, R*)`` (Section 3.3).

Two search strategies are provided:

* ``exhaustive`` — evaluates every ``(P, Q, R)`` in ``[1,I] x [1,J] x [1,K]``
  (the DistME approach the paper compares against in Figure 13(d));
* ``pruned`` — the paper's method: candidates that cannot exploit the
  cluster's parallelism (``P*Q*R < N*Tc``) are skipped, and monotonicity of
  Net/Com in each parameter prunes dominated regions.  For a fixed ``(Q, R)``
  the cost grows with ``P`` while memory shrinks, so the best ``P`` is the
  smallest feasible one; lower bounds on the cost of a whole ``(Q, R)`` or
  ``R`` slab abandon it without enumeration.

The pruned search prices the whole ``(Q, R)`` grid at once.  The cost model
is array-polymorphic (:mod:`repro.core.cost`), so one ``raw_seconds`` walk
at ``P = 1`` yields every slab bound.  The smallest feasible ``P`` of every
cell comes from one ``mem_est`` walk at the cells' parallelism floors; the
cells that do not fit there get a guess from Eq. 3's ``A + B/P`` form,
which two more walks confirm exactly (a cell the guess misses is bisected).
One walk prices the ``K x J`` candidates found.  The paper's ``r -> q``
scan — its ``break`` rules, strict ``<`` tie-break and ``evaluations``
tally — is then reproduced with row-wise prefix minima and a
first-occurrence argmin (:func:`_scan`), and the winner is materialized by
the scalar ``CostModel.evaluate``.  Grid cells equal the scalar calls bit
for bit, so the chosen ``(P*, Q*, R*)``, its ``PlanCost`` and the tally are
exactly what a candidate-at-a-time search returns — in a handful of tree
walks whatever the voxel count (the paper's Figure 13(d): flat).
``exhaustive`` stays one scalar ``evaluate`` per candidate over the same
formula on purpose: its cost *is* the baseline that figure compares
against.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Literal, Optional

import numpy as np

from repro.config import EngineConfig
from repro.core.calibration import KernelCalibration
from repro.core.cost import CostModel, PlanCost
from repro.core.plan import PartialFusionPlan
from repro.core.spaces import SpaceTree, plan_layout
from repro.errors import OptimizerError

SearchMethod = Literal["pruned", "exhaustive"]


@dataclass(frozen=True)
class OptimizerResult:
    """Outcome of one parameter search."""

    pqr: tuple[int, int, int]
    cost: PlanCost
    evaluations: int
    elapsed_seconds: float
    method: SearchMethod
    #: Size of the full ``(P, Q, R)`` candidate space (``I * J * K``).
    candidates: int = 0
    #: Always 0 (no candidate is priced twice, so there is no memo); kept
    #: because ``benchmarks/ledger/workloads.py`` reads both fields.
    memo_hits: int = 0
    memo_misses: int = 0
    #: When the search priced with fitted throughputs: the *same* chosen
    #: ``pqr`` evaluated with the paper constants, so EXPLAIN can render
    #: calibrated vs paper cost side by side.  ``None`` for uncalibrated
    #: searches (the seed path allocates nothing extra).
    paper_cost: Optional[PlanCost] = None

    @property
    def feasible(self) -> bool:
        return self.cost.feasible

    @property
    def pruned(self) -> int:
        """Candidates the search never had to evaluate."""
        return max(0, self.candidates - self.evaluations)


def optimize_parameters(
    plan: PartialFusionPlan,
    config: EngineConfig,
    tree: Optional[SpaceTree] = None,
    method: SearchMethod = "pruned",
    calibration: Optional[KernelCalibration] = None,
    free_sources=None,
) -> OptimizerResult:
    """Find ``(P*, Q*, R*)`` for *plan*.

    When no feasible parameters exist (the plan cannot fit the per-task
    budget even fully partitioned), the result carries the maximal
    partitioning ``(I, J, K)`` with an infinite cost — Algorithm 3 treats
    this as "must split".

    With *calibration* (fitted coefficients for this plan's kernel class)
    every candidate is priced with the machine's measured effective
    throughputs; the search structure and feasibility are unchanged.

    *free_sources* (environment keys) marks frontier matrices whose
    consolidation is already paid by another unit — their Eq. 4 traffic
    is discounted.  Used by the unit-merging graph pass to cost merge
    candidates; the seed path never passes it.
    """
    if tree is not None:
        return _search(plan, config, tree, method, calibration, free_sources)
    # CFG costs a plan, re-costs it when a split queues it again, and
    # lowering searches the survivors once more.  The plan is immutable and
    # every other argument frozen, so the first result is kept with the plan.
    free_sources = frozenset(free_sources or ())
    return plan.derived(
        ("pqr", config, method, calibration, free_sources),
        lambda: _search(
            plan, config, plan_layout(plan).tree, method, calibration,
            free_sources,
        ),
    )


def _search(
    plan: PartialFusionPlan,
    config: EngineConfig,
    tree: SpaceTree,
    method: SearchMethod,
    calibration: Optional[KernelCalibration],
    free_sources,
) -> OptimizerResult:
    extent_i, extent_j, extent_k = tree.mm.mm_dims()
    model = CostModel(config, calibration=calibration, free_sources=free_sources)
    started = time.perf_counter()

    if method == "exhaustive":
        best, evaluations = _exhaustive(
            plan, tree, model, extent_i, extent_j, extent_k, config
        )
    elif method == "pruned":
        best, evaluations = _pruned(
            plan, tree, model, extent_i, extent_j, extent_k, config
        )
    else:
        raise OptimizerError(f"unknown search method {method!r}")

    elapsed = time.perf_counter() - started
    if best is None:
        # infeasible even at full partitioning: report (I, J, K) with inf cost
        best = model.evaluate(plan, tree, (extent_i, extent_j, extent_k))
    paper_cost = None
    if calibration is not None:
        paper_cost = CostModel(
            config, free_sources=free_sources
        ).evaluate(plan, tree, best.pqr)
    return OptimizerResult(
        pqr=best.pqr,
        cost=best,
        evaluations=evaluations,
        elapsed_seconds=elapsed,
        method=method,
        candidates=extent_i * extent_j * extent_k,
        paper_cost=paper_cost,
    )


def _exhaustive(
    plan: PartialFusionPlan,
    tree: SpaceTree,
    model: CostModel,
    extent_i: int,
    extent_j: int,
    extent_k: int,
    config: EngineConfig,
) -> tuple[Optional[PlanCost], int]:
    # The parallelism constraint P*Q*R >= N*Tc is part of the search space
    # for both methods (a stage with fewer tasks cannot use the cluster).
    min_tasks = min(config.cluster.total_tasks, extent_i * extent_j * extent_k)
    best: Optional[PlanCost] = None
    evaluations = 0
    for p in range(1, extent_i + 1):
        for q in range(1, extent_j + 1):
            for r in range(1, extent_k + 1):
                evaluations += 1
                if p * q * r < min_tasks:
                    continue
                cost = model.evaluate(plan, tree, (p, q, r))
                if cost.feasible and (best is None or cost < best):
                    best = cost
    return best, evaluations


def _pruned(
    plan: PartialFusionPlan,
    tree: SpaceTree,
    model: CostModel,
    extent_i: int,
    extent_j: int,
    extent_k: int,
    config: EngineConfig,
) -> tuple[Optional[PlanCost], int]:
    slots = config.cluster.total_tasks
    voxels = extent_i * extent_j * extent_k

    if voxels < slots:
        # Cannot exploit full parallelism anyway: use the maximal parameters
        # (the paper: "we set the parameters to the ones as large as possible").
        cost = model.evaluate(plan, tree, (extent_i, extent_j, extent_k))
        return (cost if cost.feasible else None), 1

    grid = (extent_k, extent_j)
    q = np.arange(1, extent_j + 1, dtype=np.float64)[np.newaxis, :]
    r = np.arange(1, extent_k + 1, dtype=np.float64)[:, np.newaxis]
    # cheapest conceivable cost of every (q, r) column; the q == 1 entries
    # are the lower bounds of the whole r-slabs
    bounds = np.broadcast_to(model.raw_seconds(tree, (1, q, r)), grid)
    # The smallest P that fills the cluster, then the smallest memory-feasible
    # one at or above it: per-task memory is non-increasing in P (Eq. 3
    # divides by ``P*R`` and ``P*Q``) while Net/Com are non-decreasing
    # (Eq. 4-5 multiply R-space contributions by P), so that P is optimal
    # for its (Q, R).
    p_floor = np.broadcast_to(np.maximum(1.0, np.ceil(slots / (q * r))), grid)
    p_best, usable = _smallest_feasible_p(
        plan, tree, model, p_floor, q, r, extent_i,
        config.cluster.task_memory_budget,
    )
    seconds = np.broadcast_to(
        model.full_seconds(plan, tree, (p_best, q, r)), grid
    )
    winner, evaluations = _scan(bounds, seconds, usable, p_floor, extent_i)
    if winner is None:
        return None, evaluations
    k, j = winner
    return (
        model.evaluate(plan, tree, (int(p_best[k, j]), j + 1, k + 1)),
        evaluations,
    )


def _smallest_feasible_p(plan, tree, model, p_floor, q, r, extent_i, budget):
    """Per ``(q, r)`` cell: the smallest ``P`` in ``[p_floor, I]`` whose
    per-task memory fits *budget*, and whether there is one.

    ``mem_est`` is non-increasing in ``P`` in floating point too (every
    Eq. 3 term divides a size by a partition count), so a candidate ``P``
    is that smallest one exactly when it fits and ``P - 1`` does not (or
    ``P`` is the floor).  Most cells fit at the floor.  For the rest, Eq. 3
    is ``A + B/P`` at every nesting depth, and its values at the floor and
    at ``I`` give ``A`` and ``B``, hence a guess that two exact estimates
    confirm.  A cell the guess misses is bisected, so the answer never
    rests on the guess.
    """
    start = np.minimum(p_floor, extent_i)
    mem_start = model.mem_est(plan, tree, (start, q, r))
    fits = mem_start <= budget
    p_best = start.copy()
    usable = fits & (p_floor <= extent_i)
    open_ = ~fits & (p_floor <= extent_i)
    if not open_.any():
        return p_best, usable
    mem_max = np.broadcast_to(
        model.mem_est(plan, tree, (extent_i, q, r)), p_floor.shape
    )
    open_ &= mem_max <= budget
    usable |= open_
    if not open_.any():
        return p_best, usable
    guess = _guess_p(mem_start, mem_max, start, extent_i, budget, open_)
    below = np.maximum(guess - 1, start)
    confirmed = open_ & (
        model.mem_est(plan, tree, (guess, q, r)) <= budget
    ) & ((below == start) | (model.mem_est(plan, tree, (below, q, r)) > budget))
    p_best = np.where(confirmed, guess, p_best)
    missed = open_ & ~confirmed
    if missed.any():
        # bisect in lockstep: an interval of at most I candidates is down to
        # one after ceil(log2 I) halvings
        lo = np.where(missed, start + 1, p_best)
        hi = np.where(missed, extent_i, p_best)
        for _ in range((extent_i - 1).bit_length()):
            mid = np.floor((lo + hi) / 2)
            fits = model.mem_est(plan, tree, (mid, q, r)) <= budget
            unsettled = lo < hi
            hi = np.where(unsettled & fits, mid, hi)
            lo = np.where(unsettled & ~fits, mid + 1, lo)
        p_best = lo
    return p_best, usable


def _guess_p(mem_start, mem_max, start, extent_i, budget, open_):
    """Where ``A + B/P`` through ``mem(start)`` and ``mem(I)`` meets
    *budget*, clipped to ``(start, I]``.  Open cells have ``start < I`` and
    ``mem(start) > budget >= mem(I)``; any other cell gets ``I``."""
    with np.errstate(divide="ignore", invalid="ignore"):
        b = (mem_start - mem_max) * start * extent_i / (extent_i - start)
        guess = np.ceil(b / (budget - (mem_max - b / extent_i)))
    guess = np.where(open_ & np.isfinite(guess), guess, extent_i)
    return np.clip(guess, start + 1, extent_i)


def _scan(bounds, seconds, usable, p_floor, extent_i):
    """The paper's ``r -> q`` scan over the ``(K, J)`` grid, without a loop.

    The scan visits rows ``r = 1, 2, ...`` and in each row the cells
    ``q = 1, 2, ...``; it leaves a row at the first cell whose bound reaches
    the best full cost seen so far, stops at the first row whose ``q = 1``
    bound does, and keeps a visited usable cell only when it is strictly
    cheaper.  Bounds are non-decreasing along both axes and no cell's bound
    exceeds its own full cost (both in floating point: every term only
    grows with ``P``, ``Q``, ``R`` and with the aggregation shuffle), so a
    cell the scan skips never beats the best it already has, and

    * the best before a row is the minimum over *every* usable cell of the
      earlier rows;
    * the best before a cell is that, or a row-wise prefix minimum;
    * the winner is the first usable cell, in scan order, of least cost.

    Returns the winning ``(k, j)`` (or ``None``) and the ``evaluations``
    tally: a row, a cell, and for each usable visited cell the
    ``2 + floor(log2(I - p_floor + 1))`` estimates a candidate-at-a-time
    bisection would spend on it.
    """
    extent_k, extent_j = bounds.shape
    costs = np.where(usable, seconds, np.inf)
    row_best = np.minimum.accumulate(costs.min(axis=1))
    before_row = np.concatenate(([np.inf], row_best[:-1]))
    stops = bounds[:, 0] >= before_row
    rows = int(stops.argmax()) if stops.any() else extent_k
    # per visited row: the best before each cell, and the cell that breaks
    prefix = np.minimum.accumulate(costs[:rows], axis=1)
    before = np.minimum(
        np.concatenate((np.full((rows, 1), np.inf), prefix[:, :-1]), axis=1),
        before_row[:rows, np.newaxis],
    )
    breaks = bounds[:rows] >= before
    ends = np.where(breaks.any(axis=1), breaks.argmax(axis=1), extent_j)
    visited = np.arange(extent_j) < ends[:, np.newaxis]
    # 2 + floor(log2(n)) of an integer n >= 1: frexp's exponent plus one
    spans = np.frexp(np.maximum(1.0, extent_i - p_floor[:rows] + 1))[1] + 1
    evaluations = (
        rows + int(rows < extent_k)
        + int(ends.sum()) + int(breaks.any(axis=1).sum())
        + int(spans[visited & usable[:rows]].sum())
    )
    if not np.isfinite(row_best[-1]):
        return None, evaluations
    k, j = divmod(int(costs.argmin()), extent_j)
    return (k, j), evaluations
