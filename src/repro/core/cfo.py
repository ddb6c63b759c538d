"""The Cuboid-based Fused Operator (Section 3.2).

A CFO executes one partial fusion plan end-to-end on the simulated cluster:

1. **Matrix consolidation** — the MM-space is cut into ``P*Q*R`` cuboids;
   every task receives slices of the frontier matrices selected by their axis
   tags (L-space inputs replicated ``Q`` times, R-space ``P`` times, O-space
   ``R`` times — Eq. 4's traffic emerges from the slicing itself).
2. **Local operation** — each task evaluates the fused operator chain on its
   slices with no intermediate materialization; when a sparse mask covers the
   main product (Outer-style fusion) only the masked cells are computed.
3. **Matrix aggregation** — when ``R > 1``, partial products shuffle along
   the k-axis to the owner task ``(p, q, 0)``, which finishes the (possibly
   non-linear) O-space chain after summation.  When ``R == 1`` this step
   vanishes, exactly as in CuboidMM.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.blocks.kernels import AGGREGATION_KERNELS
from repro.cluster.executor import SimulatedCluster
from repro.config import EngineConfig
from repro.core.cuboid import CuboidPartitioning
from repro.core.optimizer import OptimizerResult, optimize_parameters
from repro.core.plan import PartialFusionPlan
from repro.core.spaces import (
    AxisKind,
    SparsityMask,
    find_sparsity_mask,
    plan_layout,
)
from repro.core.stages import (
    LOCAL,
    Binding,
    Cell,
    Env,
    TaskSpec,
    TaskTable,
    resolve_frontier,
    run_tasks,
)
from repro.errors import PlanError
from repro.lang.dag import AggNode
from repro.matrix.distributed import BlockedMatrix


class CuboidFusedOperator:
    """Physical operator executing one partial fusion plan as a CFO."""

    def __init__(
        self,
        plan: PartialFusionPlan,
        config: EngineConfig,
        pqr: Optional[tuple[int, int, int]] = None,
    ):
        self.plan = plan
        self.config = config
        layout = plan_layout(plan)
        self.tree = layout.tree
        self.mm = layout.mm
        self.tags = layout.tags
        self.optimizer_result: Optional[OptimizerResult] = None
        if pqr is None:
            self.optimizer_result = optimize_parameters(
                plan, config, tree=self.tree
            )
            pqr = self.optimizer_result.pqr
        extent_i, extent_j, extent_k = self.mm.mm_dims()
        self.partitioning = CuboidPartitioning(
            extent_i, extent_j, extent_k, *pqr
        )
        self.mask: Optional[SparsityMask] = None
        if config.sparsity_exploitation:
            self.mask = find_sparsity_mask(plan, self.mm, self.tree)

    # -- public API -------------------------------------------------------------

    @property
    def pqr(self) -> tuple[int, int, int]:
        return self.partitioning.pqr

    def execute(self, cluster: SimulatedCluster, env: Env) -> BlockedMatrix:
        """Run the CFO and return the materialized plan output."""
        values = resolve_frontier(self.plan, env)
        (result,) = run_tasks(
            self.task_table(), self.plan, cluster, values, self.mask
        )
        return result

    def task_table(self) -> TaskTable:
        """This CFO's stages, compiled once per ``(plan, (P, Q, R))``."""
        return self.plan.derived(("cfo_table", self.pqr), self._compile)

    # -- compilation ----------------------------------------------------------------

    def _compile(self) -> TaskTable:
        """One compute task per cuboid.  With ``R > 1`` each stops at its
        partial main product, and one aggregation task per ``(p, q)`` sums
        the partials at the owner ``(p, q, 0)`` and finishes the O-space
        chain there, binding the owner's slabs again as local reads.

        Which block range of which source a cuboid reads is fixed by the
        plan's axis tags and the partitioning.  A slab feeding several
        frontier edges of one task is read — and charged — once.
        """
        parts = self.partitioning
        # (ranges along the axis, which of (p, q, r, -) indexes them); an
        # axis outside the model space keeps its whole extent: one range,
        # indexed by the constant fourth coordinate
        by_kind = {
            AxisKind.I: (parts.i_ranges(), 0),
            AxisKind.J: (parts.j_ranges(), 1),
            AxisKind.K: (parts.k_ranges(), 2),
        }
        edges = []
        for edge, tag in self.tags.frontier_tags.items():
            consumer, index = edge
            source = consumer.inputs[index]
            # resolve_frontier holds every binding to its node's shape and
            # block size, so the node's grid is the bound matrix's grid
            rows, cols = (
                by_kind.get(axis.kind, (((0, extent),), 3))
                for axis, extent in zip(tag, source.meta.block_grid)
            )
            edges.append((edge, source, rows, cols))
        # per output axis, the (ranges, coordinate) that locate a tile's
        # offset: an aggregation root keeps at most one axis (no ranges
        # along the other, which may be private)
        root = self.plan.root
        block_size = root.meta.block_size
        agg = (
            AGGREGATION_KERNELS[root.kernel].axis
            if isinstance(root, AggNode) else None
        )
        located = []
        for axis, kept in zip(
            self.tags.output_tag(root), (agg in (None, "row"), agg in (None, "col"))
        ):
            if kept and axis.kind not in (AxisKind.I, AxisKind.J):
                raise PlanError("plan output must lie on the i and j axes")
            located.append(by_kind[axis.kind] if kept else ((), 3))

        finish = parts.r == 1
        owners = {}
        tasks = []
        for p, q, r in parts.cuboids():
            at = (p, q, r, 0)
            slabs: Dict[tuple, list] = {}
            for edge, source, (row_ranges, row_at), (col_ranges, col_at) in edges:
                slab = (source, row_ranges[at[row_at]], col_ranges[at[col_at]])
                slabs.setdefault(slab, []).append(edge)
            bindings = tuple(
                Binding(*slab, tuple(bound)) for slab, bound in slabs.items()
            )
            if r == 0:  # the owner task of (p, q): r runs innermost
                origin = tuple(
                    ranges[at[coord]][0] * block_size if ranges else 0
                    for ranges, coord in located
                )
                if not finish:
                    owners[(p, q)] = Cell(
                        (p, q), origin,
                        tuple(b._replace(charge=LOCAL) for b in bindings),
                    )
            tasks.append(
                TaskSpec((Cell((p, q), origin if finish else None, bindings),))
            )
        stages = [(f"cfo[{self.pqr}]:compute", tuple(tasks))]
        if not finish:
            stages.append((
                f"cfo[{self.pqr}]:aggregate",
                tuple(
                    TaskSpec((cell,), group=pq) for pq, cell in owners.items()
                ),
            ))
        return TaskTable(
            (root,), tuple(stages), f"cfo[{self.pqr}]:final-agg", self.mm
        )
