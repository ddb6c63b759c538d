"""Blocked matrix layer: metadata, the block grid and generators.

A :class:`~repro.matrix.distributed.BlockedMatrix` is the logical matrix the
engine computes on — a grid of :class:`~repro.blocks.Block` tiles keyed by
``(block_row, block_col)``, with absent keys meaning all-zero tiles (this is
how very sparse matrices stay cheap).  On the simulated cluster each tile is
one record, exactly like the paper's RDD records keyed by block indices.
"""

from repro.matrix.meta import MatrixMeta
from repro.matrix.distributed import BlockedMatrix
from repro.matrix.generators import (
    from_numpy,
    from_scipy,
    identity,
    ones,
    rand_dense,
    rand_sparse,
    zeros,
)

__all__ = [
    "MatrixMeta",
    "BlockedMatrix",
    "from_numpy",
    "from_scipy",
    "identity",
    "ones",
    "zeros",
    "rand_dense",
    "rand_sparse",
]
