"""Per-task accounting context.

A :class:`TaskContext` is handed to operator code for every simulated task.
The operator *declares* what the task receives (consolidation transfers,
aggregation/shuffle transfers), what it holds (outputs), and what it computes
(flops); the context keeps a memory ledger and raises
:class:`~repro.errors.TaskOutOfMemoryError` the moment the ledger exceeds the
per-task budget — exactly the failure mode the paper reports for BFO and
MatFast (Figures 12 and 14: "O.O.M.").
"""

from __future__ import annotations

import enum
from typing import Union

from repro.blocks.block import Block
from repro.errors import TaskOutOfMemoryError


class TransferKind(enum.Enum):
    """Which paper step a transfer belongs to (both count as communication)."""

    CONSOLIDATION = "consolidation"
    AGGREGATION = "aggregation"


Sized = Union[Block, int]


def _size_of(item: Sized) -> int:
    if isinstance(item, Block):
        return item.nbytes
    return int(item)


class TaskContext:
    """Memory, traffic and flop ledger for one simulated task."""

    __slots__ = (
        "task_id",
        "memory_budget",
        "consolidation_bytes",
        "aggregation_bytes",
        "flops",
        "_memory_used",
        "peak_memory",
    )

    def __init__(self, task_id: str, memory_budget: int):
        self.task_id = task_id
        self.memory_budget = memory_budget
        self.consolidation_bytes = 0
        self.aggregation_bytes = 0
        self.flops = 0
        self._memory_used = 0
        self.peak_memory = 0

    # -- traffic -------------------------------------------------------------

    def receive(self, item: Sized, kind: TransferKind = TransferKind.CONSOLIDATION) -> None:
        """Declare an incoming transfer: charges the network and the ledger."""
        size = _size_of(item)
        if kind is TransferKind.CONSOLIDATION:
            self.consolidation_bytes += size
        else:
            self.aggregation_bytes += size
        self._charge(size)

    def receive_local(self, item: Sized) -> None:
        """Hold data without network cost (task-local intermediate reuse)."""
        self._charge(_size_of(item))

    def hold_output(self, item: Sized) -> None:
        """Account an output block in the task's memory ledger."""
        self._charge(_size_of(item))

    def release(self, item: Sized) -> None:
        """Return memory to the ledger (streamed/discarded intermediates).

        Releasing more than the ledger holds is a double-release accounting
        bug in the calling operator; clamping to zero would silently mask
        it, so it raises instead.
        """
        size = _size_of(item)
        if size > self._memory_used:
            raise ValueError(
                f"task {self.task_id} released {size} bytes but holds only "
                f"{self._memory_used}; double release?"
            )
        self._memory_used -= size

    # -- compute -----------------------------------------------------------------

    def add_flops(self, count: int) -> None:
        if count < 0:
            raise ValueError("flops cannot be negative")
        self.flops += count

    # -- memory ----------------------------------------------------------------------

    @property
    def memory_used(self) -> int:
        return self._memory_used

    def _charge(self, size: int) -> None:
        """Ledger update: charge *size* bytes and enforce the budget."""
        self._memory_used += size
        if self._memory_used > self.peak_memory:
            self.peak_memory = self._memory_used
        if self._memory_used > self.memory_budget:
            raise TaskOutOfMemoryError(
                self.task_id, self._memory_used, self.memory_budget
            )

    def __repr__(self) -> str:
        return (
            f"TaskContext({self.task_id}, mem={self._memory_used}/"
            f"{self.memory_budget}, flops={self.flops})"
        )
