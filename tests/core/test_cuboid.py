"""Unit tests for cuboid partitioning."""

import pytest

from repro.core.cuboid import CuboidPartitioning, chunk_ranges
from repro.errors import OptimizerError


class TestChunkRanges:
    def test_even_split(self):
        assert chunk_ranges(8, 4) == [(0, 2), (2, 4), (4, 6), (6, 8)]

    def test_uneven_split_front_loaded(self):
        assert chunk_ranges(7, 3) == [(0, 3), (3, 5), (5, 7)]

    def test_single_part(self):
        assert chunk_ranges(5, 1) == [(0, 5)]

    def test_parts_equal_extent(self):
        assert chunk_ranges(3, 3) == [(0, 1), (1, 2), (2, 3)]

    def test_covers_everything_exactly(self):
        for extent in range(1, 20):
            for parts in range(1, extent + 1):
                ranges = chunk_ranges(extent, parts)
                assert ranges[0][0] == 0
                assert ranges[-1][1] == extent
                for (a0, a1), (b0, b1) in zip(ranges, ranges[1:]):
                    assert a1 == b0
                    assert a1 > a0

    def test_too_many_parts_rejected(self):
        with pytest.raises(ValueError):
            chunk_ranges(3, 4)

    def test_zero_parts_rejected(self):
        with pytest.raises(ValueError):
            chunk_ranges(3, 0)


class TestCuboidPartitioning:
    def test_counts(self):
        c = CuboidPartitioning(8, 6, 4, 2, 3, 2)
        assert len(list(c.cuboids())) == 12
        assert c.voxels == 8 * 6 * 4

    def test_cuboid_enumeration(self):
        c = CuboidPartitioning(4, 4, 4, 2, 2, 2)
        cuboids = list(c.cuboids())
        assert len(cuboids) == 8
        assert cuboids[0] == (0, 0, 0)
        assert cuboids[-1] == (1, 1, 1)

    def test_cuboid_ranges(self):
        c = CuboidPartitioning(8, 6, 4, 2, 3, 2)
        assert c.i_ranges()[1] == (4, 8)
        assert c.j_ranges()[2] == (4, 6)
        assert c.k_ranges()[0] == (0, 2)

    def test_paper_figure4_example(self):
        """(P=4, Q=2, R=1) over a 4x4x4 space: 8 cuboids of 1x2x4 voxels."""
        c = CuboidPartitioning(4, 4, 4, 4, 2, 1)
        assert len(list(c.cuboids())) == 8
        i_range, j_range, k_range = c.i_ranges()[0], c.j_ranges()[0], c.k_ranges()[0]
        assert (i_range[1] - i_range[0]) == 1
        assert (j_range[1] - j_range[0]) == 2
        assert (k_range[1] - k_range[0]) == 4

    def test_out_of_bounds_parameters(self):
        with pytest.raises(OptimizerError):
            CuboidPartitioning(4, 4, 4, 5, 1, 1)
        with pytest.raises(OptimizerError):
            CuboidPartitioning(4, 4, 4, 0, 1, 1)

    def test_pqr_property(self):
        assert CuboidPartitioning(4, 4, 4, 2, 1, 4).pqr == (2, 1, 4)
