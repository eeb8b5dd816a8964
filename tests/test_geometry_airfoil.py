"""Tests for repro.geometry.airfoil and sampling."""

import numpy as np
import pytest

from repro.errors import GeometryError
from repro.geometry import (
    Airfoil,
    cosine_spacing,
    half_cosine_spacing,
    naca,
    spacing,
    uniform_spacing,
)


class TestSampling:
    def test_uniform_endpoints(self):
        x = uniform_spacing(11)
        assert x[0] == 0.0 and x[-1] == 1.0
        assert np.diff(x) == pytest.approx(np.full(10, 0.1))

    def test_cosine_endpoints_and_clustering(self):
        x = cosine_spacing(51)
        assert x[0] == pytest.approx(0.0)
        assert x[-1] == pytest.approx(1.0)
        steps = np.diff(x)
        assert steps[0] < steps[len(steps) // 2]  # clustered at LE
        assert steps[-1] < steps[len(steps) // 2]  # clustered at TE

    def test_half_cosine_clusters_leading_edge_only(self):
        x = half_cosine_spacing(51)
        steps = np.diff(x)
        assert steps[0] < steps[-1]

    def test_spacing_dispatch(self):
        assert spacing("uniform", 5) == pytest.approx(uniform_spacing(5))
        with pytest.raises(GeometryError, match="unknown spacing"):
            spacing("exponential", 5)

    def test_too_few_points(self):
        with pytest.raises(GeometryError):
            cosine_spacing(1)

    def test_monotonic(self):
        for kind in ("uniform", "cosine", "half-cosine"):
            assert np.all(np.diff(spacing(kind, 33)) > 0)


class TestAirfoilConstruction:
    def test_requires_closed(self):
        open_loop = [[1, 0], [0.5, 0.1], [0, 0], [0.5, -0.1]]
        with pytest.raises(GeometryError, match="closed"):
            Airfoil(points=np.array(open_loop, dtype=float))

    def test_requires_ccw(self):
        cw = np.array([[1, 0], [0.5, -0.1], [0, 0], [0.5, 0.1], [1, 0]], dtype=float)
        with pytest.raises(GeometryError, match="counter-clockwise"):
            Airfoil(points=cw)

    def test_from_points_reverses_cw(self):
        cw = np.array([[1, 0], [0.5, -0.1], [0, 0], [0.5, 0.1], [1, 0]], dtype=float)
        foil = Airfoil.from_points(cw)
        assert foil.n_panels == 4

    def test_from_points_closes_open_input(self):
        open_ccw = np.array([[1, 0], [0.5, 0.1], [0, 0], [0.5, -0.1]], dtype=float)
        foil = Airfoil.from_points(open_ccw)
        assert np.allclose(foil.points[0], foil.points[-1])

    def test_from_points_drops_duplicates(self):
        loop = np.array(
            [[1, 0], [0.5, 0.1], [0.5, 0.1], [0, 0], [0.5, -0.1], [1, 0]],
            dtype=float,
        )
        assert Airfoil.from_points(loop).n_panels == 4

    def test_too_few_panels(self):
        with pytest.raises(GeometryError, match="at least 3 panels"):
            Airfoil.from_points(np.array([[1, 0], [0, 0.5]], dtype=float))

    def test_points_immutable(self, naca2412):
        with pytest.raises((ValueError, RuntimeError)):
            naca2412.points[0, 0] = 5.0

    def test_from_surfaces_roundtrip(self, naca2412):
        upper, lower = naca2412.surfaces()
        rebuilt = Airfoil.from_surfaces(upper, lower, name="rebuilt")
        assert rebuilt.chord == pytest.approx(naca2412.chord, rel=1e-6)
        assert rebuilt.area == pytest.approx(naca2412.area, rel=1e-3)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_points_rejected(self, naca2412, bad):
        # A NaN passes the closure, orientation and length checks and
        # would surface later as NaN coefficients.
        points = np.array(naca2412.points)
        points[len(points) // 3, 1] = bad
        with pytest.raises(GeometryError, match="finite"):
            Airfoil(points=points)
        with pytest.raises(GeometryError, match="finite"):
            Airfoil.from_points(points)

    def test_from_surfaces_mismatched_le_raises(self):
        upper = np.array([[0, 0], [0.5, 0.1], [1, 0]], dtype=float)
        lower = np.array([[0.1, 0], [0.5, -0.1], [1, 0]], dtype=float)
        with pytest.raises(GeometryError, match="leading edge"):
            Airfoil.from_surfaces(upper, lower)


class TestAirfoilQuantities:
    def test_panel_count(self, naca2412):
        assert naca2412.n_panels == 160

    def test_panel_vectors_sum_to_zero(self, naca2412):
        # A closed loop's panel vectors telescope to zero.
        assert naca2412.panel_vectors.sum(axis=0) == pytest.approx([0.0, 0.0], abs=1e-12)

    def test_lengths_positive(self, naca2412):
        assert np.all(naca2412.panel_lengths > 0)

    def test_control_points_are_midpoints(self, naca2412):
        expected = 0.5 * (naca2412.points[:-1] + naca2412.points[1:])
        assert naca2412.control_points == pytest.approx(expected)

    def test_tangents_unit(self, naca2412):
        assert np.linalg.norm(naca2412.tangents, axis=1) == pytest.approx(
            np.ones(naca2412.n_panels)
        )

    def test_normals_outward(self, naca2412):
        # Outward normals point away from the centroid on average.
        offsets = naca2412.control_points - naca2412.points[:-1].mean(axis=0)
        alignment = np.einsum("ij,ij->i", offsets, naca2412.normals)
        assert np.mean(alignment > 0) > 0.95

    def test_normals_orthogonal_to_tangents(self, naca2412):
        dots = np.einsum("ij,ij->i", naca2412.normals, naca2412.tangents)
        assert dots == pytest.approx(np.zeros(naca2412.n_panels), abs=1e-12)

    def test_chord_unit(self, naca2412):
        assert naca2412.chord == pytest.approx(1.0, abs=2e-3)

    def test_trailing_edge_at_origin_convention(self, naca2412):
        assert naca2412.trailing_edge == pytest.approx([1.0, 0.0], abs=1e-6)

    def test_leading_edge_near_origin(self, naca2412):
        assert naca2412.leading_edge == pytest.approx([0.0, 0.0], abs=0.02)

    def test_max_thickness_naca(self, naca2412):
        assert naca2412.max_thickness == pytest.approx(0.12, abs=0.01)

    def test_area_positive_and_sane(self, naca2412):
        assert 0.05 < naca2412.area < 0.12

    def test_perimeter_exceeds_twice_chord(self, naca2412):
        assert naca2412.perimeter > 2.0 * naca2412.chord

    def test_with_name(self, naca2412):
        renamed = naca2412.with_name("renamed")
        assert renamed.name == "renamed"
        assert renamed.n_panels == naca2412.n_panels

    def test_astype(self, naca2412):
        single = naca2412.astype(np.float32)
        assert single.points.dtype == np.float32

    def test_surfaces_sorted_by_x(self, naca2412):
        upper, lower = naca2412.surfaces()
        assert np.all(np.diff(upper[:, 0]) >= 0)
        assert np.all(np.diff(lower[:, 0]) >= 0)
        assert upper[:, 1].max() > 0
        assert lower[:, 1].min() < 0
