"""The parts every physical fused operator shares.

The CFO (and RFO, its corner), the BFO and the cell operator differ in how
they cut a plan into tasks.  They agree on how a plan's frontier is bound,
which reads an earlier unit already paid for, where a partial aggregate
lands in the aggregate's output, what combining two partials costs, and how
the final-aggregation stage's one task runs.  Each of those rules lives
here once; the operators open their own stages.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Mapping

from repro.blocks import Block
from repro.blocks.kernels import aggregate_combine
from repro.cluster.executor import SimulatedCluster
from repro.cluster.task import TaskContext, TransferKind
from repro.core.physical import env_key_of
from repro.core.plan import PartialFusionPlan
from repro.errors import BlockLayoutError, ExecutionError
from repro.lang.dag import InputNode, Node
from repro.matrix.distributed import BlockedMatrix

#: Engine-level environment: materialized values by node id or input name.
Env = Mapping[object, BlockedMatrix]


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


def agg_offset(axis: str, row: int, col: int) -> tuple[int, int]:
    """Where the partial aggregate of a tile at ``(row, col)`` lands.

    A full aggregate has a single cell, a row aggregate keeps the tile's
    row offset and a column aggregate its column offset.  The offsets are
    in whatever unit the caller passes (blocks or elements).
    """
    if axis == "all":
        return (0, 0)
    if axis == "row":
        return (row, 0)
    return (0, col)


def combine_into(
    task: TaskContext,
    groups: Dict[Hashable, Block],
    key: Hashable,
    block: Block,
    kernel: str,
) -> None:
    """Fold partial aggregate *block* into ``groups[key]``.

    Every combine is charged rows × cols flops of the incoming partial.
    """
    held = groups.get(key)
    if held is None:
        groups[key] = block
    else:
        groups[key] = aggregate_combine(kernel, held, block)
        task.add_flops(block.shape[0] * block.shape[1])


def final_aggregation(
    task: TaskContext, partials: Iterable[tuple[Hashable, str, Block]]
) -> Dict[Hashable, Block]:
    """Run a final-aggregation stage's single task.

    *partials* yields ``(key, kernel, block)`` in combine order.  Each
    partial arrives as aggregation traffic and folds into its key's group;
    the combined groups are held as the task's output and returned.
    """
    groups: Dict[Hashable, Block] = {}
    for key, kernel, block in partials:
        task.receive(block, kind=TransferKind.AGGREGATION)
        combine_into(task, groups, key, block, kernel)
    for block in groups.values():
        task.hold_output(block)
    return groups
