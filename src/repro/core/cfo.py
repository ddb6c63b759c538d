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
    mask_positions,
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
    agg_offset,
    final_aggregation,
    resolve_frontier,
    shared_sources,
)
from repro.errors import BlockLayoutError, PlanError
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
        optimizer_method: str = "pruned",
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
                plan, config, tree=self.tree, method=optimizer_method
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
        # bound to the cluster's per-execute cache in execute(); the default
        # keeps standalone operator use (tests constructing a CFO directly)
        # working with fresh copies
        self._slices = SliceCache(enabled=False)
        # frontier sources an earlier consumer already paid to consolidate;
        # captured from the cluster in execute()
        self._shared: frozenset = frozenset()

    # -- public API -------------------------------------------------------------

    @property
    def pqr(self) -> tuple[int, int, int]:
        return self.partitioning.pqr

    def execute(self, cluster: SimulatedCluster, env: Env) -> BlockedMatrix:
        """Run the CFO and return the materialized plan output."""
        self._slices = cluster.slice_cache
        self._shared = shared_sources(self.plan, cluster)
        values = resolve_frontier(self.plan, env)
        outputs = self._compute(cluster, values)
        if self.partitioning.r == 1:
            tiles = {pq: tile for pq, (tile,) in outputs.items()}
        else:
            tiles = self._aggregate(cluster, values, outputs)
        if isinstance(self.plan.root, AggNode):
            return self._combine_aggregates(cluster, tiles)
        return self._assemble_output(tiles)

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
        task: TaskContext,
        p: int,
        q: int,
        r: int,
        charge_network: bool = True,
    ) -> SliceEnv:
        """Consolidate every frontier slice this cuboid's task needs.

        Materialized slabs come from the cluster's
        :class:`~repro.cluster.slice_cache.SliceCache` — tasks sharing a
        slab share one real copy.  Each distinct slab is *charged* once per
        task, however many frontier edges consume it.
        """
        frontier: Dict[tuple[Node, int], Block] = {}
        slices, shared = self._slices, self._shared
        for binding in self._slice_table[(p, q, r)]:
            block = slices.get(
                values[binding.source], binding.row_range, binding.col_range
            )
            if charge_network and binding.source not in shared:
                task.receive(block)
            else:
                task.receive_local(block)
            for edge in binding.edges:
                frontier[edge] = block
        return SliceEnv(frontier=frontier)

    # -- execution ------------------------------------------------------------------------

    def _compute(
        self, cluster: SimulatedCluster, values: Dict[Node, BlockedMatrix]
    ) -> Dict[tuple[int, int], list[Block]]:
        """Consolidation and local operation, one task per cuboid.

        With ``R == 1`` a task finishes its ``(p, q)`` tile; otherwise it
        stops at its partial main product, which :meth:`_aggregate` sums.
        """
        finish = self.partitioning.r == 1
        outputs: Dict[tuple[int, int], list[Block]] = {}
        with cluster.stage(f"cfo[{self.pqr}]:compute") as stage:
            # every task is allocated before any runs, so an aborted stage
            # still records the stage's full width
            work = [(pqr, stage.task()) for pqr in self.partitioning.cuboids()]
            for (p, q, r), task in work:
                env = self._bind_slices(values, task, p, q, r)
                if finish and self.mask is not None:
                    out = evaluate_masked_slice(
                        self.plan, env, self.mm, self.mask,
                        self._tile_shape(p, q),
                    )
                elif finish:
                    out = evaluate_slice(self.plan, env)
                elif self.mask is not None:
                    rows, cols = mask_positions(self.plan, env, self.mask)
                    out = masked_product(self.plan, env, self.mm, rows, cols)
                else:
                    out = evaluate_slice(self.plan, env, root=self.mm)
                task.add_flops(env.flops)
                task.hold_output(out)
                # cuboid order, so each (p, q) list is in r-order
                outputs.setdefault((p, q), []).append(out)
        return outputs

    def _aggregate(
        self,
        cluster: SimulatedCluster,
        values: Dict[Node, BlockedMatrix],
        partials: Dict[tuple[int, int], list[Block]],
    ) -> Dict[tuple[int, int], Block]:
        """Matrix aggregation: sum each ``(p, q)``'s partials along the k
        axis at the owner task ``(p, q, 0)``, then finish the O-space chain."""
        tiles: Dict[tuple[int, int], Block] = {}
        with cluster.stage(f"cfo[{self.pqr}]:aggregate") as stage:
            work = [
                ((p, q), stage.task())
                for p in range(self.partitioning.p)
                for q in range(self.partitioning.q)
            ]
            for (p, q), task in work:
                parts = partials[(p, q)]
                # the owner task (p, q, 0) holds its own partial; others
                # shuffle theirs over (the matrix aggregation step)
                task.receive_local(parts[0])
                summed = parts[0]
                for part in parts[1:]:
                    task.receive(part, kind=TransferKind.AGGREGATION)
                    merged = _add_blocks(summed, part)
                    task.add_flops(part.nnz if part.is_sparse else
                                   part.shape[0] * part.shape[1])
                    # partials merge as they stream in; the consumed
                    # tiles leave the ledger (only the running sum stays)
                    task.release(part)
                    task.release(summed)
                    task.receive_local(merged)
                    summed = merged
                env = self._bind_slices(
                    values, task, p, q, 0, charge_network=False
                )
                env.bind_node(self.mm, summed)
                if self.mask is not None:
                    tile = finish_masked(
                        self.plan, env, self.mm, self.mask, summed,
                        self._tile_shape(p, q),
                    )
                else:
                    tile = evaluate_slice(self.plan, env)
                task.add_flops(env.flops)
                task.hold_output(tile)
                tiles[(p, q)] = tile
        return tiles

    # -- output handling --------------------------------------------------------------------

    def _axis_element_extent(self, axis: Axis) -> int:
        if axis.kind is AxisKind.I:
            return self.mm.inputs[0].meta.rows
        if axis.kind is AxisKind.J:
            return self.mm.inputs[1].meta.cols
        if axis.kind is AxisKind.K:
            return self.mm.common_dim
        raise PlanError("plan output cannot live on a private axis")

    def _axis_element_range(self, axis: Axis, p: int, q: int) -> tuple[int, int]:
        block_size = self.plan.root.meta.block_size
        if axis.kind is AxisKind.I:
            b0, b1 = self.partitioning.i_ranges()[p]
        elif axis.kind is AxisKind.J:
            b0, b1 = self.partitioning.j_ranges()[q]
        else:
            raise PlanError("plan output cannot span the k axis")
        extent = self._axis_element_extent(axis)
        return (b0 * block_size, min(b1 * block_size, extent))

    def _tile_shape(self, p: int, q: int) -> tuple[int, int]:
        tag = self.tags.output_tag(self.plan.root)
        r0, r1 = self._axis_element_range(tag[0], p, q)
        c0, c1 = self._axis_element_range(tag[1], p, q)
        return (r1 - r0, c1 - c0)

    def _assemble_output(self, tiles: Dict[tuple[int, int], Block]) -> BlockedMatrix:
        meta = self.plan.root.meta
        result = BlockedMatrix(meta)
        tag = self.tags.output_tag(self.plan.root)
        for (p, q), tile in tiles.items():
            r0, _ = self._axis_element_range(tag[0], p, q)
            c0, _ = self._axis_element_range(tag[1], p, q)
            _scatter_tile(result, tile, r0, c0)
        result.meta = result.refreshed_meta()
        return result

    def _combine_aggregates(
        self, cluster: SimulatedCluster, tiles: Dict[tuple[int, int], Block]
    ) -> BlockedMatrix:
        """Final shuffle combining per-task aggregation partials."""
        root = self.plan.root
        assert isinstance(root, AggNode)
        axis = AGGREGATION_KERNELS[root.kernel].axis
        row_tag, col_tag = self.tags.output_tag(root)
        element_range = self._axis_element_range
        # only the kept axis is located: the other may be private
        partials = (
            (
                agg_offset(
                    axis,
                    element_range(row_tag, p, q)[0] if axis == "row" else 0,
                    element_range(col_tag, p, q)[0] if axis == "col" else 0,
                ),
                root.kernel,
                tile,
            )
            for (p, q), tile in sorted(tiles.items())
        )
        result = BlockedMatrix(root.meta)
        with cluster.stage(f"cfo[{self.pqr}]:final-agg") as stage:
            groups = final_aggregation(stage.task(), partials)
            for (r_off, c_off), tile in groups.items():
                _scatter_tile(result, tile, r_off, c_off)
        result.meta = result.refreshed_meta()
        return result


def _add_blocks(a: Block, b: Block) -> Block:
    """Sum two partial-product tiles (sparse-friendly)."""
    if a.is_sparse and b.is_sparse:
        return Block((a.data + b.data).tocsr())
    return Block(a.dense_view() + b.dense_view())


def _scatter_tile(result: BlockedMatrix, tile: Block, row_off: int, col_off: int) -> None:
    """Split a task's output tile back into grid blocks of *result*.

    All-zero pieces stay implicit; a piece landing on a stored block adds
    to it.  The tile is checked against the grid once, which fixes every
    piece's shape — pieces are then written without a per-block check.
    """
    meta = result.meta
    block_size = meta.block_size
    tile_rows, tile_cols = tile.shape
    if row_off % block_size or col_off % block_size:
        raise BlockLayoutError(
            f"tile offset ({row_off}, {col_off}) not block aligned"
        )
    for extent, offset, limit in (
        (tile_rows, row_off, meta.rows), (tile_cols, col_off, meta.cols)
    ):
        # a tile must end on a block boundary or at the matrix edge, or its
        # last pieces would not be whole grid blocks
        end = offset + extent
        if end > limit or (end < limit and extent % block_size):
            raise BlockLayoutError(
                f"a {tile_rows}x{tile_cols} tile at ({row_off}, {col_off}) "
                f"does not cover whole blocks of a {meta.rows}x{meta.cols} "
                f"matrix with block size {block_size}"
            )
    bi0 = row_off // block_size
    bj0 = col_off // block_size
    data = tile.data
    blocks = result.blocks
    for r0 in range(0, tile_rows, block_size):
        bi = bi0 + r0 // block_size
        rows = data[r0:r0 + block_size]
        for c0 in range(0, tile_cols, block_size):
            piece = Block(rows[:, c0:c0 + block_size])
            if piece.nnz == 0:
                continue
            key = (bi, bj0 + c0 // block_size)
            stored = blocks.get(key)
            blocks[key] = piece if stored is None else _add_blocks(stored, piece)
    result.version += 1
