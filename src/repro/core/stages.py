"""How every physical fused operator runs: a task table and one runner.

The CFO (with the RFO and BFO at its ``(P=I, Q=J, R=1)`` corner) and the
cell operator differ only in how they cut a plan into tasks and what each
task is charged.  Each *compiles* its plan into a :class:`TaskTable`, and
:func:`run_tasks` — the one loop that opens operator stages — runs any
table.  A task's byte loads are charged first, then a k-partial group is
summed as its partials stream in; then each cell binds its reads (a
slice-cache slab or a stored grid block, each charged over the network,
as a local read or not at all) and evaluates.  Its tiles go to the
:class:`OutputSink` at the cell's origin, or into the task's memory as a
k-partial.  The sink holds and places tiles, folds partial aggregates and
runs the final-aggregation stage.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, NamedTuple, Optional, Sequence

from repro.blocks import Block
from repro.blocks.kernels import (
    AGGREGATION_KERNELS, aggregate_combine, nonzero_on_pattern, same_pattern,
)
from repro.cluster.executor import SimulatedCluster
from repro.cluster.task import TaskContext, TransferKind
from repro.core.fused_eval import (
    MaskPattern,
    SliceEnv,
    evaluate_masked_slice,
    evaluate_slice,
    finish_masked,
    mask_pattern,
    masked_product,
)
from repro.core.physical import env_key_of
from repro.core.plan import PartialFusionPlan
from repro.core.spaces import SparsityMask
from repro.errors import BlockLayoutError, ExecutionError
from repro.lang.dag import AggNode, InputNode, Node
from repro.matrix.distributed import BlockedMatrix

#: Engine-level environment: materialized values by node id or input name.
Env = Mapping[object, BlockedMatrix]
#: A partial aggregate's group: (root index, element offset of its cell).
GroupKey = tuple[int, tuple[int, int]]
Edge = tuple[Node, int]

#: How a binding is charged: over the network (as a local read when an
#: earlier unit already paid to consolidate the source), as a local read,
#: or not at all (the task already holds it).
NETWORK, LOCAL, FREE = range(3)


class Binding(NamedTuple):
    """One read of a task: the slice-cache slab of *source* over block
    ranges *rows* × *cols* (with *grid*, its stored block ``(rows, cols)``),
    how it is charged, and the frontier edges it feeds."""

    source: Node
    rows: object
    cols: object
    edges: tuple[Edge, ...]
    charge: int = NETWORK
    grid: bool = False


class Cell(NamedTuple):
    """One output a task evaluates: the ``(p, q)`` tile, ``(i, j)`` block
    or cell key *at* (which keys its mask pattern and k-partial group), its
    tiles' element offset in the sink — None for a k-partial of group *at*
    — and the bindings made just before it evaluates."""

    at: tuple[int, int]
    origin: Optional[tuple[int, int]]
    bindings: tuple[Binding, ...]


class TaskSpec(NamedTuple):
    """One task: its bulk loads, the k-partial group it sums, then its
    cells in order.  A task shipped its data in bulk — ``(source, bytes)``
    loads, charged first — reads its bindings free; with no loads (None)
    each binding is charged as it says."""

    cells: tuple[Cell, ...]
    loads: Optional[tuple[tuple[Node, int], ...]] = None
    group: Optional[tuple[int, int]] = None


class TaskTable(NamedTuple):
    """A compiled operator: ``(stage name, tasks)`` in run order, the roots
    the sink collects, and the main multiplication a k-partial or masked
    cell computes."""

    roots: tuple[Node, ...]
    stages: tuple[tuple[str, tuple[TaskSpec, ...]], ...]
    final_stage: str
    mm: Optional[Node] = None


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


def run_tasks(
    table: TaskTable,
    plan: PartialFusionPlan,
    cluster: SimulatedCluster,
    values: Dict[Node, BlockedMatrix],
    mask: Optional[SparsityMask] = None,
) -> List[BlockedMatrix]:
    """Run *table* over the bound frontier *values*; return the roots'
    results.

    Every task of a stage is allocated before any runs, so an aborted stage
    still records its full width.  Under a sparsity *mask* only the mask's
    cells are evaluated.
    """
    # frontier sources the graph passes marked as paid for by an earlier unit
    keys = cluster.shared_inputs
    shared = frozenset(n for n in plan.frontier() if env_key_of(n) in keys)
    slices = cluster.slice_cache
    roots, mm = table.roots, table.mm
    sink = OutputSink(roots, table.final_stage)
    partials: Dict[tuple[int, int], list[Block]] = {}
    patterns: Dict[tuple[int, int], MaskPattern] = {}
    for name, specs in table.stages:
        with cluster.stage(name) as stage:
            work = [(spec, stage.task()) for spec in specs]
            for spec, task in work:
                for source, size in spec.loads or ():
                    if source in shared:
                        task.receive_local(size)
                    else:
                        task.receive(size)
                product = None
                if spec.group is not None:
                    product = _sum_partials(task, partials.pop(spec.group))
                for cell in spec.cells:
                    frontier = {}
                    for bound in cell.bindings:
                        matrix = values[bound.source]
                        if bound.grid:
                            block = matrix.get_block(bound.rows, bound.cols)
                        else:
                            block = slices.get(matrix, bound.rows, bound.cols)
                        charge = bound.charge if spec.loads is None else FREE
                        if charge == NETWORK and bound.source not in shared:
                            task.receive(block)
                        elif charge != FREE:
                            task.receive_local(block)
                        for edge in bound.edges:
                            frontier[edge] = block
                    env = SliceEnv(frontier=frontier)
                    if product is not None:
                        env.bind_node(mm, product)
                    if mask is not None and (
                        cell.origin is None or product is not None
                    ):
                        # a tile's first task computes the mask's pattern;
                        # each later one is charged its flops
                        pattern = patterns.get(cell.at)
                        if pattern is None:
                            pattern = mask_pattern(plan, env, mask)
                            patterns[cell.at] = pattern
                        else:
                            env.flops += pattern.flops
                    if cell.origin is None:  # a k-partial of group cell.at
                        if mask is None:
                            out = evaluate_slice(plan, env, mm)
                        else:
                            out = masked_product(plan, env, mm, pattern)
                        task.add_flops(env.flops)
                        task.hold_output(out)
                        partials.setdefault(cell.at, []).append(out)
                        continue
                    if mask is None:
                        tiles = [evaluate_slice(plan, env, root) for root in roots]
                    elif product is None:
                        tiles = [evaluate_masked_slice(plan, env, mm, mask)]
                    else:
                        tiles = [finish_masked(plan, env, mm, product, pattern)]
                    task.add_flops(env.flops)
                    for index, tile in enumerate(tiles):
                        sink.emit(task, tile, *cell.origin, index)
                sink.end_task(task)
    return sink.finish(cluster)


def _sum_partials(task: TaskContext, parts: list[Block]) -> Block:
    """Matrix aggregation: the owner task holds its own partial and the
    others shuffle theirs over; partials merge as they stream in, and the
    consumed tiles leave the ledger (only the running sum stays)."""
    summed = parts[0]
    task.receive_local(summed)
    for part in parts[1:]:
        task.receive(part, kind=TransferKind.AGGREGATION)
        merged = add_blocks(summed, part)
        task.add_flops(
            part.nnz if part.is_sparse else part.shape[0] * part.shape[1]
        )
        task.release(part)
        task.release(summed)
        task.receive_local(merged)
        summed = merged
    return summed


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
