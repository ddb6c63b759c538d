"""The parts every physical fused operator shares.

The CFO (with RFO and BFO at its ``(P=I, Q=J, R=1)`` corner) and the cell
operator differ only in how they cut a plan into tasks and what each task is
charged.  They agree on how a plan's frontier is bound, which reads an
earlier unit already paid for, and where every output tile goes: the
:class:`OutputSink` holds and places tiles, folds partial aggregates, and
runs the final-aggregation stage.  Each of those rules lives here once; the
operators open their own compute stages.
"""

from __future__ import annotations

from typing import Dict, Mapping, Sequence

from repro.blocks import Block
from repro.blocks.kernels import (
    AGGREGATION_KERNELS, aggregate_combine, nonzero_on_pattern, same_pattern,
)
from repro.cluster.executor import SimulatedCluster
from repro.cluster.task import TaskContext, TransferKind
from repro.core.physical import env_key_of
from repro.core.plan import PartialFusionPlan
from repro.errors import BlockLayoutError, ExecutionError
from repro.lang.dag import AggNode, InputNode, Node
from repro.matrix.distributed import BlockedMatrix

#: Engine-level environment: materialized values by node id or input name.
Env = Mapping[object, BlockedMatrix]
#: A partial aggregate's group: (root index, element offset of its cell).
GroupKey = tuple[int, tuple[int, int]]


def resolve_frontier(plan: PartialFusionPlan, env: Env) -> Dict[Node, BlockedMatrix]:
    """Bind every frontier node of *plan* to its matrix in *env*.

    Operators look a node up by ``node_id`` (inputs also by name).  Each
    binding is held to its node's shape and block size, so a task's slab
    ranges, derived from node metadata, index the bound matrix's grid.
    """
    values: Dict[Node, BlockedMatrix] = {}
    for node in plan.frontier():
        value = env.get(node.node_id)
        if value is None and isinstance(node, InputNode):
            value = env.get(node.name)
        if value is None:
            raise ExecutionError(f"no binding for frontier node {node!r}")
        if value.shape != node.meta.shape:
            raise BlockLayoutError(
                f"binding for {node!r} has shape {value.shape}, "
                f"expected {node.meta.shape}"
            )
        if value.block_size != node.meta.block_size:
            raise BlockLayoutError(
                f"binding for {node!r} uses block size {value.block_size}, "
                f"expected {node.meta.block_size}"
            )
        values[node] = value
    return values


def shared_sources(plan: PartialFusionPlan, cluster: SimulatedCluster) -> frozenset:
    """Frontier nodes whose consolidation an earlier consumer already paid.

    The graph passes annotate a unit with those environment keys; operators
    charge reads of these sources as local.  Computed once per ``execute``.
    """
    keys = cluster.shared_inputs
    return frozenset(node for node in plan.frontier() if env_key_of(node) in keys)


class OutputSink:
    """Where every fused operator's output tiles go.

    A tile is held in its task's memory ledger and scattered into the
    root's result at its element offset.  Under an aggregation root a tile
    is a partial aggregate instead: it folds into its task's partial group
    for the cell the root keeps, and :meth:`end_task` holds the task's
    groups.  :meth:`finish` runs the final-aggregation stage that folds
    every task's groups in task order, then refreshes the result metas.
    """

    def __init__(self, roots: Sequence[Node], final_stage: str):
        self.roots = tuple(roots)
        self.final_stage = final_stage
        self.results = [BlockedMatrix(root.meta) for root in self.roots]
        self._axes = [
            AGGREGATION_KERNELS[root.kernel].axis
            if isinstance(root, AggNode) else None
            for root in self.roots
        ]
        self._groups: Dict[GroupKey, Block] = {}
        self._partials: list[Dict[GroupKey, Block]] = []

    def emit(
        self, task: TaskContext, tile: Block, row: int, col: int, index: int = 0
    ) -> None:
        """Take root *index*'s tile whose top-left element is ``(row, col)``."""
        axis = self._axes[index]
        if axis is None:
            task.hold_output(tile)
            _scatter_tile(self.results[index], tile, row, col)
            return
        # a full aggregate has one cell; a row aggregate keeps the tile's row
        # offset, a column aggregate its column offset
        key = (
            index,
            (row if axis == "row" else 0, col if axis == "col" else 0),
        )
        self._fold(task, self._groups, key, tile)

    def end_task(self, task: TaskContext) -> None:
        """Hold the task's partial groups until the final aggregation."""
        for block in self._groups.values():
            task.hold_output(block)
        if self._groups:
            self._partials.append(self._groups)
            self._groups = {}

    def finish(self, cluster: SimulatedCluster) -> list[BlockedMatrix]:
        """Run the final-aggregation stage, if any; return the results."""
        if self._axes[0] is not None:
            with cluster.stage(self.final_stage) as stage:
                task = stage.task()
                groups: Dict[GroupKey, Block] = {}
                for partials in self._partials:
                    for key, block in sorted(partials.items()):
                        task.receive(block, kind=TransferKind.AGGREGATION)
                        self._fold(task, groups, key, block)
                for (index, (row, col)), block in groups.items():
                    task.hold_output(block)
                    _scatter_tile(self.results[index], block, row, col)
        for result in self.results:
            result.meta = result.refreshed_meta()
        return self.results

    def _fold(
        self,
        task: TaskContext,
        groups: Dict[GroupKey, Block],
        key: GroupKey,
        block: Block,
    ) -> None:
        """Fold partial *block* into ``groups[key]``; every combine is
        charged rows × cols flops of the incoming partial."""
        held = groups.get(key)
        if held is None:
            groups[key] = block
        else:
            kernel = self.roots[key[0]].kernel
            groups[key] = aggregate_combine(kernel, held, block)
            task.add_flops(block.shape[0] * block.shape[1])


def add_blocks(a: Block, b: Block) -> Block:
    """Sum two partial-product tiles (sparse-friendly); sparse tiles on one
    pattern, a masked tile's k-partials, add their data vectors."""
    if a.is_sparse and b.is_sparse:
        x, y = a.data, b.data
        if x.has_canonical_format and same_pattern(x, y):
            return nonzero_on_pattern(x, x.data + y.data)
        return Block((x + y).tocsr())
    return Block(a.dense_view() + b.dense_view())


def _scatter_tile(result: BlockedMatrix, tile: Block, row_off: int, col_off: int) -> None:
    """Split a task's output tile back into grid blocks of *result*.

    All-zero pieces stay implicit; a piece landing on a stored block adds
    to it.  The tile is checked against the grid once, which fixes every
    piece's shape — pieces are then written without a per-block check, and
    a tile of one block is stored as is.
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
    single = tile_rows <= block_size and tile_cols <= block_size
    data = tile.data
    blocks = result.blocks
    for r0 in range(0, tile_rows, block_size):
        bi = bi0 + r0 // block_size
        rows = data[r0:r0 + block_size]
        for c0 in range(0, tile_cols, block_size):
            piece = tile if single else Block(rows[:, c0:c0 + block_size])
            if piece.nnz == 0:
                continue
            key = (bi, bj0 + c0 // block_size)
            stored = blocks.get(key)
            blocks[key] = piece if stored is None else add_blocks(stored, piece)
    result.version += 1
