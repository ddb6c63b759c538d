"""Finding the optimal ``(P*, Q*, R*)`` (Section 3.3).

Two search strategies are provided:

* ``exhaustive`` — evaluates every ``(P, Q, R)`` in ``[1,I] x [1,J] x [1,K]``
  (the DistME approach the paper compares against in Figure 13(d));
* ``pruned`` — the paper's method: candidates that cannot exploit the
  cluster's parallelism (``P*Q*R < N*Tc``) are skipped, and monotonicity of
  Net/Com in each parameter prunes dominated regions.  For a fixed ``(Q, R)``
  the cost grows with ``P`` while memory shrinks, so the best ``P`` is the
  smallest feasible one — found by binary search; lower bounds on the cost of
  a whole ``(Q, R)`` or ``R`` slab abandon it without enumeration.

The pruned search prices the whole ``(Q, R)`` grid at once.  The cost model
is array-polymorphic (:mod:`repro.core.cost`), so one ``raw_seconds`` walk at
``P = 1`` yields every slab bound, the bisection for the smallest feasible
``P`` runs on all ``(q, r)`` cells in lockstep (``ceil(log2 I)`` ``mem_est``
walks), and one more walk prices the ``K x J`` candidates it found.  The
``r -> q`` scan with its ``break`` rules, strict ``<`` tie-break and
``evaluations`` tally then replays over those precomputed numbers, and the
winner is materialized by the scalar ``CostModel.evaluate``.  Grid cells
equal the scalar calls bit for bit, so the chosen ``(P*, Q*, R*)``, its
``PlanCost`` and the tally are exactly what a candidate-at-a-time search
returns — in a dozen tree walks whatever the voxel count (the paper's
Figure 13(d): flat).  ``exhaustive`` stays one scalar ``evaluate`` per
candidate over the same formula on purpose: its cost *is* the baseline that
figure compares against.
"""

from __future__ import annotations

import math
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
    evaluations = 0

    if voxels < slots:
        # Cannot exploit full parallelism anyway: use the maximal parameters
        # (the paper: "we set the parameters to the ones as large as possible").
        cost = model.evaluate(plan, tree, (extent_i, extent_j, extent_k))
        return (cost if cost.feasible else None), 1

    budget = config.cluster.task_memory_budget
    grid = (extent_k, extent_j)
    q = np.arange(1, extent_j + 1, dtype=np.float64)[np.newaxis, :]
    r = np.arange(1, extent_k + 1, dtype=np.float64)[:, np.newaxis]
    # cheapest conceivable cost of every (q, r) column; the q == 1 entries
    # are the lower bounds of the whole r-slabs
    bounds = np.broadcast_to(model.raw_seconds(tree, (1, q, r)), grid).tolist()
    # The smallest P that fills the cluster, then the smallest memory-feasible
    # one at or above it: per-task memory is non-increasing in P (Eq. 3
    # divides by ``P*R`` and ``P*Q``) while Net/Com are non-decreasing
    # (Eq. 4-5 multiply R-space contributions by P), so that P is optimal
    # for its (Q, R).
    p_floor = np.maximum(1.0, np.ceil(slots / (q * r)))
    usable = (p_floor <= extent_i) & (
        model.mem_est(plan, tree, (extent_i, q, r)) <= budget
    )
    lo = np.where(usable, p_floor, extent_i)
    hi = np.full(grid, float(extent_i))
    # every cell bisects in lockstep; an interval of at most I candidates is
    # down to one after ceil(log2 I) halvings
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

    best: Optional[tuple[float, tuple[int, int, int]]] = None
    for k in range(extent_k):
        # lower bound for this whole r-slab: the cheapest conceivable (p=1,q=1)
        evaluations += 1
        if best is not None and bounds[k][0] >= best[0]:
            break  # Net/Com grow with r; later slabs only get worse
        for j in range(extent_j):
            evaluations += 1
            if best is not None and bounds[k][j] >= best[0]:
                break  # cost grows with q at fixed r
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
