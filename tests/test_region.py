"""Tests for the band-based Region and its rect-list executable spec.

The differential suite rasterizes both implementations into boolean
masks -- an oracle independent of either data structure -- over
randomized rect/op sequences, pinning band-region == naive rect-list.
"""

import random

import numpy
import pytest

from repro.xlib.region import (
    Region,
    _ix_intersect,
    _ix_subtract,
    _ix_union,
)
from tests.oracles.region import NaiveRegion


def rasterize(region, size=64):
    mask = numpy.zeros((size, size), dtype=bool)
    for x0, y0, x1, y1 in region.rects():
        mask[max(0, y0):max(0, y1), max(0, x0):max(0, x1)] = True
    return mask


class TestIntervalAlgebra:
    def test_union_merges_touching(self):
        assert _ix_union((0, 5), (5, 9)) == (0, 9)

    def test_union_keeps_gaps(self):
        assert _ix_union((0, 2), (4, 6)) == (0, 2, 4, 6)

    def test_intersect(self):
        assert _ix_intersect((0, 10), (5, 15)) == (5, 10)
        assert _ix_intersect((0, 2, 8, 12), (1, 9)) == (1, 2, 8, 9)
        assert _ix_intersect((0, 2), (3, 4)) == ()

    def test_subtract(self):
        assert _ix_subtract((0, 10), (3, 5)) == (0, 3, 5, 10)
        assert _ix_subtract((0, 10), (0, 10)) == ()
        assert _ix_subtract((0, 4, 6, 10), (2, 8)) == (0, 2, 8, 10)


class TestRegionBasics:
    def test_empty(self):
        region = Region()
        assert region.is_empty()
        assert not region
        assert region.rects() == []
        assert region.bounds() is None
        assert region.area() == 0

    def test_iterates_rects_and_refuses_hashing(self):
        region = Region((0, 0, 4, 4))
        region.add_rect(8, 0, 12, 4)
        assert list(region) == region.rects() == [(0, 0, 4, 4), (8, 0, 12, 4)]
        with pytest.raises(TypeError):
            hash(region)

    def test_single_rect(self):
        region = Region((2, 3, 10, 8))
        assert region.rects() == [(2, 3, 10, 8)]
        assert region.bounds() == (2, 3, 10, 8)
        assert region.area() == 8 * 5

    def test_degenerate_rect_ignored(self):
        region = Region()
        region.add_rect(5, 5, 5, 9)
        region.add_rect(5, 5, 9, 5)
        region.add_rect(9, 9, 5, 5)
        assert region.is_empty()

    def test_adjacent_bands_coalesce(self):
        region = Region()
        region.add_rect(0, 0, 10, 5)
        region.add_rect(0, 5, 10, 9)
        assert region.rects() == [(0, 0, 10, 9)]
        assert len(region._bands) == 1

    def test_side_by_side_rects_coalesce_into_one_band(self):
        region = Region()
        region.add_rect(0, 0, 5, 5)
        region.add_rect(5, 0, 9, 5)
        assert region.rects() == [(0, 0, 9, 5)]

    def test_overlapping_union_area(self):
        region = Region()
        region.add_rect(0, 0, 10, 10)
        region.add_rect(5, 5, 15, 15)
        assert region.area() == 100 + 100 - 25
        assert region.bounds() == (0, 0, 15, 15)

    def test_l_shape_banding_is_minimal(self):
        # 20x20 minus the 10x10 top-right corner: exactly 2 bands.
        region = Region((0, 0, 20, 20))
        region.subtract_rect(10, 0, 20, 10)
        assert len(region._bands) == 2
        assert sorted(region.rects()) == [(0, 0, 10, 10), (0, 10, 20, 20)]

    def test_subtract_punches_hole(self):
        region = Region((0, 0, 10, 10))
        region.subtract_rect(3, 3, 7, 7)
        assert region.area() == 100 - 16
        assert not region.contains_point(5, 5)
        assert region.contains_point(1, 5)

    def test_intersect_rect(self):
        region = Region((0, 0, 10, 10))
        region.intersect_rect(5, 5, 20, 20)
        assert region.rects() == [(5, 5, 10, 10)]

    def test_translate(self):
        region = Region((1, 2, 4, 6))
        region.translate(10, -2)
        assert region.rects() == [(11, 0, 14, 4)]

    def test_copy_is_independent(self):
        region = Region((0, 0, 4, 4))
        clone = region.copy()
        clone.add_rect(10, 10, 12, 12)
        assert region.area() == 16
        assert clone.area() == 20

    def test_region_equality(self):
        a = Region()
        a.add_rect(0, 0, 4, 4)
        a.add_rect(4, 0, 8, 4)
        b = Region((0, 0, 8, 4))
        assert a == b

    def test_rects_are_disjoint_and_in_band_order(self):
        region = Region()
        region.add_rect(0, 0, 10, 10)
        region.add_rect(5, 5, 15, 15)
        rects = region.rects()
        total = sum((x1 - x0) * (y1 - y0) for x0, y0, x1, y1 in rects)
        assert total == region.area()
        assert rects == sorted(rects, key=lambda r: (r[1], r[0]))

    def test_union_subtract_intersect_regions(self):
        a = Region((0, 0, 10, 10))
        b = Region((5, 0, 15, 10))
        a.union(b)
        assert a.rects() == [(0, 0, 15, 10)]
        a.subtract(Region((0, 0, 5, 10)))
        assert a.rects() == [(5, 0, 15, 10)]
        a.intersect(Region((0, 5, 100, 100)))
        assert a.rects() == [(5, 5, 15, 10)]

    def test_region_from_rect(self):
        assert Region((0, 0, 2, 2)).area() == 4
        assert NaiveRegion((0, 0, 2, 2)).rects() == [(0, 0, 2, 2)]


class TestNaiveRegionSpec:
    def test_add_overlapping_stays_disjoint(self):
        region = NaiveRegion()
        region.add_rect(0, 0, 10, 10)
        region.add_rect(5, 5, 15, 15)
        rects = region.rects()
        total = sum((x1 - x0) * (y1 - y0) for x0, y0, x1, y1 in rects)
        assert total == region.area() == 175
        # pairwise disjoint
        for i, a in enumerate(rects):
            for b in rects[i + 1:]:
                assert (a[2] <= b[0] or b[2] <= a[0]
                        or a[3] <= b[1] or b[3] <= a[1])

    def test_same_api_surface(self):
        for name in ("add_rect", "union", "intersect", "subtract",
                     "intersect_rect", "subtract_rect", "translate",
                     "copy", "is_empty", "rects", "bounds",
                     "area", "contains_point"):
            assert callable(getattr(NaiveRegion(), name))
            assert callable(getattr(Region(), name))


class TestDifferential:
    """Property-style fuzz: band region == rect-list spec under
    rasterization, on randomized rect sequences."""

    def _random_rect(self, rng, size):
        x0 = rng.randrange(0, size)
        y0 = rng.randrange(0, size)
        return (x0, y0, x0 + rng.randrange(1, 16), y0 + rng.randrange(1, 16))

    @pytest.mark.parametrize("seed", range(12))
    def test_randomized_op_sequences(self, seed):
        rng = random.Random(seed)
        size = 64
        band, naive = Region(), NaiveRegion()
        for _step in range(60):
            op = rng.choice(["add", "add", "add", "sub", "clip"])
            rect = self._random_rect(rng, size)
            if op == "add":
                band.add_rect(*rect)
                naive.add_rect(*rect)
            elif op == "sub":
                band.subtract_rect(*rect)
                naive.subtract_rect(*rect)
            else:
                # keep the clip large so the region rarely collapses
                clip = (0, 0, rect[2] + 20, rect[3] + 20)
                band.intersect_rect(*clip)
                naive.intersect_rect(*clip)
            assert band.area() == naive.area()
            assert band.bounds() == naive.bounds()
            assert (rasterize(band, size + 40)
                    == rasterize(naive, size + 40)).all()

    @pytest.mark.parametrize("seed", range(6))
    def test_randomized_region_to_region_ops(self, seed):
        rng = random.Random(1000 + seed)
        size = 64

        def build(n):
            b, nv = Region(), NaiveRegion()
            for _i in range(n):
                rect = self._random_rect(rng, size)
                b.add_rect(*rect)
                nv.add_rect(*rect)
            return b, nv

        band_a, naive_a = build(10)
        band_b, naive_b = build(10)
        for op in ("union", "intersect", "subtract"):
            ba, na = band_a.copy(), naive_a.copy()
            getattr(ba, op)(band_b)
            getattr(na, op)(naive_b)
            assert ba.area() == na.area(), op
            assert (rasterize(ba, size + 40)
                    == rasterize(na, size + 40)).all(), op

    @pytest.mark.parametrize("seed", range(6))
    def test_band_form_stays_canonical(self, seed):
        """After arbitrary ops: bands y-sorted, non-overlapping, with
        sorted disjoint x-intervals, and no two touching bands share
        x-extents (fully coalesced)."""
        rng = random.Random(2000 + seed)
        region = Region()
        for _step in range(80):
            rect = self._random_rect(rng, 50)
            if rng.random() < 0.7:
                region.add_rect(*rect)
            else:
                region.subtract_rect(*rect)
            bands = region._bands
            for y0, y1, xs in bands:
                assert y0 < y1
                assert len(xs) >= 2 and len(xs) % 2 == 0
                for i in range(0, len(xs), 2):
                    assert xs[i] < xs[i + 1]
                for i in range(1, len(xs) - 1, 2):
                    assert xs[i] < xs[i + 1]  # disjoint, sorted, gapped
            for a, b in zip(bands, bands[1:]):
                assert a[1] <= b[0]
                if a[1] == b[0]:
                    assert a[2] != b[2]  # touching bands are coalesced
