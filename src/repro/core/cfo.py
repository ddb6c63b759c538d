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

from typing import Dict, NamedTuple, Optional

from repro.blocks import Block
from repro.blocks.kernels import AGGREGATION_KERNELS
from repro.cluster.executor import SimulatedCluster
from repro.cluster.slice_cache import SliceCache
from repro.cluster.task import TaskContext, TransferKind
from repro.config import EngineConfig
from repro.core.cuboid import CuboidPartitioning
from repro.core.fused_eval import (
    SliceEnv,
    evaluate_masked_slice,
    evaluate_slice,
    finish_masked,
    mask_pattern,
    masked_product,
)
from repro.core.optimizer import OptimizerResult, optimize_parameters
from repro.core.plan import PartialFusionPlan
from repro.core.spaces import (
    Axis,
    AxisKind,
    SparsityMask,
    find_sparsity_mask,
    plan_layout,
)
from repro.core.stages import (
    Env,
    OutputSink,
    add_blocks,
    resolve_frontier,
    shared_sources,
)
from repro.errors import PlanError
from repro.lang.dag import AggNode, Node
from repro.matrix.distributed import BlockedMatrix


class _SlabBinding(NamedTuple):
    """One slab a cuboid's task consolidates, and the edges it feeds."""

    source: Node
    row_range: tuple[int, int]
    col_range: tuple[int, int]
    edges: tuple[tuple[Node, int], ...]


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
        self._slice_table = plan.derived(
            ("slice_table", self.partitioning.pqr), self._compile_slice_table
        )
        # which output axes a tile's offset locates: an aggregation root
        # keeps at most one, and the other may be private
        root = plan.root
        axis = (
            AGGREGATION_KERNELS[root.kernel].axis
            if isinstance(root, AggNode) else None
        )
        self._kept = (axis in (None, "row"), axis in (None, "col"))
        # bound to the cluster's per-execute cache in execute(); the default
        # keeps standalone operator use (tests constructing a CFO directly)
        # working with fresh copies
        self._slices = SliceCache(enabled=False)
        # frontier sources an earlier consumer already paid to consolidate;
        # captured from the cluster in execute()
        self._shared: frozenset = frozenset()
        # each masked (p, q) tile's mask pattern, reset by execute()
        self._patterns: dict = {}

    # -- public API -------------------------------------------------------------

    @property
    def pqr(self) -> tuple[int, int, int]:
        return self.partitioning.pqr

    def execute(self, cluster: SimulatedCluster, env: Env) -> BlockedMatrix:
        """Run the CFO and return the materialized plan output."""
        self._slices = cluster.slice_cache
        self._shared = shared_sources(self.plan, cluster)
        values = resolve_frontier(self.plan, env)
        sink = OutputSink((self.plan.root,), f"cfo[{self.pqr}]:final-agg")
        self._patterns = {}
        partials = self._compute(cluster, values, sink)
        if partials:
            self._aggregate(cluster, values, partials, sink)
        (result,) = sink.finish(cluster)
        return result

    # -- slicing ------------------------------------------------------------------------

    def _compile_slice_table(
        self,
    ) -> Dict[tuple[int, int, int], tuple[_SlabBinding, ...]]:
        """Per cuboid, the distinct frontier slabs its task consolidates.

        Which block range of which source a cuboid needs is fixed by the
        plan's axis tags and the partitioning, so it is derived once per
        ``(plan, (P, Q, R))`` instead of per task.  A slab feeding several
        frontier edges of one task appears once (it is fetched — and
        charged — once) with all the edges it binds.
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

        table = {}
        for pqr in parts.cuboids():
            at = (*pqr, 0)
            slabs: Dict[tuple, list] = {}
            for edge, source, (row_ranges, row_at), (col_ranges, col_at) in edges:
                slab = (source, row_ranges[at[row_at]], col_ranges[at[col_at]])
                slabs.setdefault(slab, []).append(edge)
            table[pqr] = tuple(
                _SlabBinding(*slab, tuple(bound))
                for slab, bound in slabs.items()
            )
        return table

    def _bind_slices(
        self,
        values: Dict[Node, BlockedMatrix],
        cuboid: tuple[int, int, int],
        task: Optional[TaskContext] = None,
        local: bool = False,
    ) -> SliceEnv:
        """Consolidate every frontier slice *cuboid*'s task needs.

        Materialized slabs come from the cluster's
        :class:`~repro.cluster.slice_cache.SliceCache` — tasks sharing a
        slab share one real copy.  Each distinct slab is charged to *task*
        once, however many frontier edges consume it: over the network,
        or as a *local* read (a shared source is always local).  With no
        *task* the slabs are bound uncharged.
        """
        frontier: Dict[tuple[Node, int], Block] = {}
        slices, shared = self._slices, self._shared
        for binding in self._slice_table[cuboid]:
            block = slices.get(
                values[binding.source], binding.row_range, binding.col_range
            )
            if task is not None:
                if local or binding.source in shared:
                    task.receive_local(block)
                else:
                    task.receive(block)
            for edge in binding.edges:
                frontier[edge] = block
        return SliceEnv(frontier=frontier)

    # -- execution ------------------------------------------------------------------------

    def _compute(
        self,
        cluster: SimulatedCluster,
        values: Dict[Node, BlockedMatrix],
        sink: OutputSink,
    ) -> Dict[tuple[int, int], list[Block]]:
        """Consolidation and local operation, one task per cuboid.

        With ``R == 1`` a task finishes its ``(p, q)`` tile into *sink*;
        otherwise it stops at its partial main product, returned per
        ``(p, q)`` in r-order for :meth:`_aggregate` to sum.
        """
        finish = self.partitioning.r == 1
        partials: Dict[tuple[int, int], list[Block]] = {}
        with cluster.stage(f"cfo[{self.pqr}]:compute") as stage:
            # every task is allocated before any runs, so an aborted stage
            # still records the stage's full width
            work = [(pqr, stage.task()) for pqr in self.partitioning.cuboids()]
            for (p, q, r), task in work:
                env = self._bind_slices(values, (p, q, r), task)
                if finish:
                    tile = self._finish(env, p, q)
                    task.add_flops(env.flops)
                    sink.emit(task, tile, *self._origin(p, q))
                    sink.end_task(task)
                    continue
                if self.mask is not None:
                    out = masked_product(
                        self.plan, env, self.mm, self._pattern(env, p, q)
                    )
                else:
                    out = evaluate_slice(self.plan, env, root=self.mm)
                task.add_flops(env.flops)
                task.hold_output(out)
                partials.setdefault((p, q), []).append(out)
        return partials

    def _aggregate(
        self,
        cluster: SimulatedCluster,
        values: Dict[Node, BlockedMatrix],
        partials: Dict[tuple[int, int], list[Block]],
        sink: OutputSink,
    ) -> None:
        """Matrix aggregation: sum each ``(p, q)``'s partials along the k
        axis at the owner task ``(p, q, 0)``, then finish the O-space chain."""
        with cluster.stage(f"cfo[{self.pqr}]:aggregate") as stage:
            work = [(pq, stage.task()) for pq in partials]
            for (p, q), task in work:
                parts = partials[(p, q)]
                # the owner task (p, q, 0) holds its own partial; others
                # shuffle theirs over (the matrix aggregation step)
                task.receive_local(parts[0])
                summed = parts[0]
                for part in parts[1:]:
                    task.receive(part, kind=TransferKind.AGGREGATION)
                    merged = add_blocks(summed, part)
                    task.add_flops(part.nnz if part.is_sparse else
                                   part.shape[0] * part.shape[1])
                    # partials merge as they stream in; the consumed
                    # tiles leave the ledger (only the running sum stays)
                    task.release(part)
                    task.release(summed)
                    task.receive_local(merged)
                    summed = merged
                env = self._bind_slices(values, (p, q, 0), task, local=True)
                tile = self._finish(env, p, q, summed)
                task.add_flops(env.flops)
                sink.emit(task, tile, *self._origin(p, q))
                sink.end_task(task)

    def _finish(
        self, env: SliceEnv, p: int, q: int, product: Optional[Block] = None
    ) -> Block:
        """The ``(p, q)`` output tile: in one pass over the task's slabs, or
        over the k-aggregated main *product*; masked cells only when a
        sparsity mask covers the product."""
        if product is not None:
            env.bind_node(self.mm, product)
        if self.mask is None:
            return evaluate_slice(self.plan, env)
        if product is None:
            return evaluate_masked_slice(self.plan, env, self.mm, self.mask)
        return finish_masked(
            self.plan, env, self.mm, product, self._pattern(env, p, q)
        )

    def _pattern(self, env: SliceEnv, p: int, q: int):
        """The ``(p, q)`` tile's mask pattern, computed by its first task;
        each later task is charged the flops of evaluating the mask."""
        pattern = self._patterns.get((p, q))
        if pattern is None:
            pattern = mask_pattern(self.plan, env, self.mask)
            return self._patterns.setdefault((p, q), pattern)
        env.flops += pattern.flops
        return pattern

    # -- output geometry --------------------------------------------------------------------

    def _axis_element_range(self, axis: Axis, p: int, q: int) -> tuple[int, int]:
        if axis.kind is AxisKind.I:
            b0, b1 = self.partitioning.i_ranges()[p]
            extent = self.mm.inputs[0].meta.rows
        elif axis.kind is AxisKind.J:
            b0, b1 = self.partitioning.j_ranges()[q]
            extent = self.mm.inputs[1].meta.cols
        else:
            raise PlanError("plan output must lie on the i and j axes")
        block_size = self.plan.root.meta.block_size
        return (b0 * block_size, min(b1 * block_size, extent))

    def _origin(self, p: int, q: int) -> tuple[int, int]:
        """Element offset of the ``(p, q)`` tile on the axes the root keeps."""
        tag = self.tags.output_tag(self.plan.root)
        row, col = (
            self._axis_element_range(axis, p, q)[0] if kept else 0
            for axis, kept in zip(tag, self._kept)
        )
        return row, col
