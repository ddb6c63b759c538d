"""(P, Q, R)-cuboid partitioning of the 3-D model space (Section 2.3).

The model space of a multiplication with block extents ``I x J x K`` is cut
into ``P * Q * R`` cuboids; cuboid ``D[p,q,r]`` covers a contiguous slab of
block indices on each axis.  L-, R- and O-space are partitioned with the
induced ``(P,1,R)``, ``(1,Q,R)`` and ``(P,Q,1)`` schemes (Section 3.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.errors import OptimizerError

BlockRange = tuple[int, int]


def chunk_ranges(extent: int, parts: int) -> list[BlockRange]:
    """Split ``range(extent)`` into *parts* contiguous ``[start, stop)`` runs.

    The first ``extent % parts`` chunks get one extra element, matching the
    paper's ``ceil(I/P)``-sized cuboids.
    """
    if extent <= 0:
        raise ValueError(f"extent must be positive, got {extent}")
    if not 0 < parts <= extent:
        raise ValueError(f"parts must be in [1, {extent}], got {parts}")
    base, extra = divmod(extent, parts)
    ranges = []
    start = 0
    for idx in range(parts):
        size = base + (1 if idx < extra else 0)
        ranges.append((start, start + size))
        start += size
    return ranges


@dataclass(frozen=True)
class CuboidPartitioning:
    """A concrete ``(P, Q, R)`` partitioning of an ``I x J x K`` block space."""

    extent_i: int
    extent_j: int
    extent_k: int
    p: int
    q: int
    r: int

    def __post_init__(self) -> None:
        for name, parts, extent in (
            ("P", self.p, self.extent_i),
            ("Q", self.q, self.extent_j),
            ("R", self.r, self.extent_k),
        ):
            if not 0 < parts <= extent:
                raise OptimizerError(
                    f"{name}={parts} outside [1, {extent}] for space "
                    f"{self.extent_i}x{self.extent_j}x{self.extent_k}"
                )
        # the partitioning is immutable: its axis ranges are computed once
        # here, not on every per-cuboid lookup
        object.__setattr__(
            self, "_i_ranges", tuple(chunk_ranges(self.extent_i, self.p))
        )
        object.__setattr__(
            self, "_j_ranges", tuple(chunk_ranges(self.extent_j, self.q))
        )
        object.__setattr__(
            self, "_k_ranges", tuple(chunk_ranges(self.extent_k, self.r))
        )

    @property
    def pqr(self) -> tuple[int, int, int]:
        return (self.p, self.q, self.r)

    @property
    def voxels(self) -> int:
        return self.extent_i * self.extent_j * self.extent_k

    def i_ranges(self) -> tuple[BlockRange, ...]:
        return self._i_ranges

    def j_ranges(self) -> tuple[BlockRange, ...]:
        return self._j_ranges

    def k_ranges(self) -> tuple[BlockRange, ...]:
        return self._k_ranges

    def cuboids(self) -> Iterator[tuple[int, int, int]]:
        """All ``(p, q, r)`` indices in row-major order."""
        for p in range(self.p):
            for q in range(self.q):
                for r in range(self.r):
                    yield (p, q, r)

    def __repr__(self) -> str:
        return (
            f"CuboidPartitioning(P={self.p}, Q={self.q}, R={self.r} over "
            f"{self.extent_i}x{self.extent_j}x{self.extent_k})"
        )
