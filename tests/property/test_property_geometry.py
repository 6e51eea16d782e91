"""Property-based tests for geometry invariants."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.chip.floorplan import Block, Floorplan
from repro.chip.geometry import GridSpec, Rect
from repro.errors import FloorplanError

finite_coord = st.floats(
    min_value=-100.0, max_value=100.0, allow_nan=False, allow_infinity=False
)
positive_size = st.floats(
    min_value=1e-3, max_value=100.0, allow_nan=False, allow_infinity=False
)


@st.composite
def rects(draw):
    return Rect(
        draw(finite_coord),
        draw(finite_coord),
        draw(positive_size),
        draw(positive_size),
    )


@st.composite
def grids(draw):
    return GridSpec(
        nx=draw(st.integers(min_value=1, max_value=12)),
        ny=draw(st.integers(min_value=1, max_value=12)),
        width=draw(positive_size),
        height=draw(positive_size),
    )


class TestRectProperties:
    @given(rects(), rects())
    def test_overlap_symmetric(self, a, b):
        assert a.overlap_area(b) == b.overlap_area(a)

    @given(rects(), rects())
    def test_overlap_bounded_by_smaller_area(self, a, b):
        overlap = a.overlap_area(b)
        assert 0.0 <= overlap <= min(a.area, b.area) + 1e-9

    @given(rects())
    def test_self_overlap_is_area(self, rect):
        # (x + w) - x need not equal w in floating point: compare approx.
        assert abs(rect.overlap_area(rect) - rect.area) <= 1e-9 * rect.area

    @given(rects(), st.floats(min_value=0.01, max_value=0.99))
    def test_split_partitions_area(self, rect, fraction):
        for first, second in (
            rect.split_horizontal(fraction),
            rect.split_vertical(fraction),
        ):
            assert first.area + second.area == np.float64(rect.area) or abs(
                first.area + second.area - rect.area
            ) < 1e-9 * rect.area
            assert first.overlap_area(second) == 0.0
            assert rect.contains_rect(first)
            assert rect.contains_rect(second)

    @given(rects(), rects())
    def test_intersection_consistent_with_overlap(self, a, b):
        inter = a.intersection(b)
        if inter is None:
            assert a.overlap_area(b) == 0.0
        else:
            assert abs(inter.area - a.overlap_area(b)) < 1e-9
            assert a.contains_rect(inter, tol=1e-9)
            assert b.contains_rect(inter, tol=1e-9)

    @given(rects(), rects())
    def test_distance_symmetric_nonnegative(self, a, b):
        assert a.distance_to(b) == b.distance_to(a)
        assert a.distance_to(b) >= 0.0
        assert a.distance_to(a) == 0.0


class TestGridProperties:
    @given(grids())
    def test_cells_partition_die(self, grid):
        total = sum(grid.cell_rect(i).area for i in range(grid.n_cells))
        assert abs(total - grid.width * grid.height) < 1e-6 * grid.width * grid.height

    @given(grids(), st.data())
    def test_cell_of_point_matches_cell_rect(self, grid, data):
        index = data.draw(st.integers(min_value=0, max_value=grid.n_cells - 1))
        cx, cy = grid.cell_rect(index).center
        assert grid.cell_of_point(cx, cy) == index

    @given(grids(), st.data())
    @settings(max_examples=40)
    def test_overlap_fractions_normalised_for_inner_rects(self, grid, data):
        # Any rectangle on the die distributes exactly its full area.
        fx = data.draw(st.floats(min_value=0.0, max_value=0.8))
        fy = data.draw(st.floats(min_value=0.0, max_value=0.8))
        fw = data.draw(st.floats(min_value=0.05, max_value=1.0 - fx - 1e-6))
        fh = data.draw(st.floats(min_value=0.05, max_value=1.0 - fy - 1e-6))
        rect = Rect(
            fx * grid.width, fy * grid.height, fw * grid.width, fh * grid.height
        )
        fractions = grid.overlap_fractions(rect)
        assert abs(fractions.sum() - 1.0) < 1e-9
        assert np.all(fractions >= 0.0)

    @given(grids())
    def test_pairwise_distances_metric(self, grid):
        dist = grid.pairwise_center_distances()
        assert np.allclose(dist, dist.T)
        assert np.allclose(np.diag(dist), 0.0)
        if grid.n_cells >= 3:
            # Triangle inequality on a few triples.
            n = grid.n_cells
            for (i, j, k) in [(0, n // 2, n - 1), (0, 1, n - 1)]:
                assert dist[i, k] <= dist[i, j] + dist[j, k] + 1e-9


#: Die edge for the floorplan-overlap properties.  Lattice coordinates
#: make touching edges and exact overlaps common; the dyadic jitter pushes
#: edges into a neighbour by slivers around the ``1e-9 x smaller area``
#: tolerance, exactly representable so both sides see the same floats.
_DIE = 12.5
_lattice_coord = st.integers(min_value=0, max_value=16).map(lambda k: 0.5 * k)
_lattice_size = st.integers(min_value=1, max_value=8).map(lambda k: 0.5 * k)
_jitter = st.sampled_from([0.0, 2.0**-40, 2.0**-31, 2.0**-30, 2.0**-29, 2.0**-26])
#: Area ``S`` with ``1e-9 * S == 2**-30`` exactly: a sliver of width
#: ``2**-30`` across a unit-height block of area ``S`` sits on the
#: tolerance itself.
_TIE_AREA = 0.9313225746154785


@st.composite
def die_rects(draw):
    x = draw(st.one_of(_lattice_coord, st.floats(min_value=0.0, max_value=8.0)))
    y = draw(st.one_of(_lattice_coord, st.floats(min_value=0.0, max_value=8.0)))
    w = draw(st.one_of(_lattice_size, st.floats(min_value=1e-3, max_value=4.0)))
    h = draw(st.one_of(_lattice_size, st.floats(min_value=1e-3, max_value=4.0)))
    return Rect(
        max(x - draw(_jitter), 0.0), y, w + draw(_jitter), h + draw(_jitter)
    )


def _first_overlapping_pair(rects):
    """The pairwise rule ``Floorplan`` enforces, as a plain double loop."""
    for i in range(len(rects)):
        for j in range(i + 1, len(rects)):
            overlap = rects[i].overlap_area(rects[j])
            if overlap > 1e-9 * min(rects[i].area, rects[j].area):
                return i, j
    return None


class TestFloorplanOverlapCheck:
    @given(st.lists(die_rects(), min_size=1, max_size=8))
    @settings(max_examples=300)
    # Overlap exactly at the tolerance: accepted.
    @example(rects=[Rect(0.0, 0.0, _TIE_AREA, 1.0),
                    Rect(_TIE_AREA - 2.0**-30, 0.0, 2.0, 1.0)])
    # Twice the tolerance: rejected.
    @example(rects=[Rect(0.0, 0.0, _TIE_AREA, 1.0),
                    Rect(_TIE_AREA - 2.0**-29, 0.0, 2.0, 1.0)])
    # Two offending pairs: row-major pair order names (b0, b3), not (b1, b2).
    @example(rects=[Rect(0.0, 0.0, 1.0, 1.0), Rect(2.0, 0.0, 1.0, 1.0),
                    Rect(2.5, 0.0, 1.0, 1.0), Rect(0.5, 0.0, 1.0, 1.0)])
    def test_vectorized_check_matches_pairwise_rule(self, rects):
        blocks = tuple(
            Block(name=f"b{k}", rect=rect, n_devices=1)
            for k, rect in enumerate(rects)
        )
        expected = _first_overlapping_pair(rects)
        if expected is None:
            Floorplan(width=_DIE, height=_DIE, blocks=blocks)
            return
        i, j = expected
        with pytest.raises(FloorplanError) as excinfo:
            Floorplan(width=_DIE, height=_DIE, blocks=blocks)
        assert str(excinfo.value) == f"blocks 'b{i}' and 'b{j}' overlap"
