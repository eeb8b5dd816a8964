"""Tests for repro.geometry.points."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GeometryError
from repro.geometry import points as pt

#: Coordinates that probe each branch of np.isclose's rule.
_EDGE_FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 1.0, 1.0 + 1e-13, 1.0 + 1e-5, 1.00002,
                     1e-12, 2e-12, 5e-324, 1e308, -1e308]),
)


class TestAsPoints:
    def test_list_of_pairs(self):
        result = pt.as_points([[0, 1], [2, 3]])
        assert result.shape == (2, 2)
        assert result.dtype == np.float64

    def test_single_point_promoted(self):
        assert pt.as_points([1.0, 2.0]).shape == (1, 2)

    def test_wrong_shape_raises(self):
        with pytest.raises(GeometryError, match="expected an"):
            pt.as_points([[1, 2, 3]])

    def test_dtype_override(self):
        assert pt.as_points([[0, 1]], dtype=np.float32).dtype == np.float32


class TestVectorOps:
    def test_dot_rowwise(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        b = np.array([[5.0, 6.0], [7.0, 8.0]])
        assert pt.dot(a, b) == pytest.approx([17.0, 53.0])

    def test_cross_z(self):
        assert pt.cross_z(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 1.0
        assert pt.cross_z(np.array([0.0, 1.0]), np.array([1.0, 0.0])) == -1.0

    def test_norms(self):
        assert pt.norms(np.array([[3.0, 4.0]])) == pytest.approx([5.0])

    def test_normalize_unit_length(self):
        vectors = np.array([[3.0, 4.0], [0.0, -2.0]])
        result = pt.normalize(vectors)
        assert pt.norms(result) == pytest.approx([1.0, 1.0])

    def test_normalize_zero_raises(self):
        with pytest.raises(GeometryError, match="zero-length"):
            pt.normalize(np.array([[0.0, 0.0]]))

    def test_perpendicular_is_minus_90_rotation(self):
        result = pt.perpendicular(np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert result == pytest.approx(np.array([[0.0, -1.0], [1.0, 0.0]]))

    def test_perpendicular_orthogonal(self):
        vectors = np.array([[1.2, -0.7], [3.0, 2.0]])
        perp = pt.perpendicular(vectors)
        assert pt.dot(vectors, perp) == pytest.approx([0.0, 0.0])


class TestPolyline:
    square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [0.0, 0.0]])

    def test_segment_lengths(self):
        assert pt.segment_lengths(self.square) == pytest.approx([1.0] * 4)

    def test_polyline_length(self):
        assert pt.polyline_length(self.square) == pytest.approx(4.0)

    def test_arc_length_parameter(self):
        parameter = pt.arc_length_parameter(self.square)
        assert parameter == pytest.approx([0.0, 1.0, 2.0, 3.0, 4.0])

    def test_midpoints(self):
        mids = pt.midpoints(np.array([[0.0, 0.0], [2.0, 0.0]]))
        assert mids == pytest.approx(np.array([[1.0, 0.0]]))

    def test_signed_area_ccw_positive(self):
        assert pt.signed_polygon_area(self.square) == pytest.approx(1.0)

    def test_signed_area_cw_negative(self):
        assert pt.signed_polygon_area(self.square[::-1]) == pytest.approx(-1.0)

    def test_is_clockwise(self):
        assert not pt.is_clockwise(self.square)
        assert pt.is_clockwise(self.square[::-1])

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)),
                    min_size=0, max_size=40))
    def test_signed_area_is_the_rolled_shoelace_to_the_bit(self, points):
        points = pt.as_points(np.array(points, dtype=float).reshape(-1, 2))
        x, y = points[:, 0], points[:, 1]
        rolled = 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))
        assert (np.float64(pt.signed_polygon_area(points)).tobytes()
                == np.float64(rolled).tobytes())

    def test_centroid(self):
        assert pt.centroid(np.array([[0.0, 0.0], [2.0, 4.0]])) == pytest.approx([1.0, 2.0])

    def test_bounding_box(self):
        low, high = pt.bounding_box(self.square)
        assert low == pytest.approx([0.0, 0.0])
        assert high == pytest.approx([1.0, 1.0])


class TestCoincide:
    @settings(max_examples=300, deadline=None)
    @given(st.tuples(_EDGE_FLOATS, _EDGE_FLOATS, _EDGE_FLOATS, _EDGE_FLOATS),
           st.sampled_from([1e-12, 1e-9, 1e-8]))
    def test_agrees_with_allclose(self, coords, atol):
        a, b = np.array(coords[:2]), np.array(coords[2:])
        with np.errstate(over="ignore"):  # 1e308 - -1e308 in the reference
            expected = bool(np.allclose(a, b, atol=atol))
        assert pt.coincide(a, b, atol=atol) is expected

    def test_relative_tolerance_scales_with_the_second_point(self):
        assert pt.coincide([1e6, 0.0], [1e6 + 5.0, 0.0], atol=1e-12)
        assert not pt.coincide([1.0, 0.0], [1.0 + 1e-4, 0.0], atol=1e-12)


class TestIntersection:
    def test_crossing_segments(self):
        assert pt.segments_intersect((0, 0), (1, 1), (0, 1), (1, 0))

    def test_parallel_segments(self):
        assert not pt.segments_intersect((0, 0), (1, 0), (0, 1), (1, 1))

    def test_shared_endpoint_not_crossing(self):
        assert not pt.segments_intersect((0, 0), (1, 0), (1, 0), (1, 1))

    def test_disjoint(self):
        assert not pt.segments_intersect((0, 0), (1, 0), (2, 1), (3, 1))

    def test_simple_polyline_not_self_intersecting(self):
        assert not pt.polyline_self_intersects(TestPolyline.square)

    def test_bowtie_self_intersects(self):
        bowtie = np.array([[0.0, 0.0], [1.0, 1.0], [1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        assert pt.polyline_self_intersects(bowtie)

    def test_closed_polyline_closing_segment_ignored(self):
        # First and last segments share the closing point; must not be
        # reported as a crossing.
        triangle = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0], [0.0, 0.0]])
        assert not pt.polyline_self_intersects(triangle)
