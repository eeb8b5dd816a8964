"""Tests for edge-velocity extraction, Thwaites, and Head integration."""

import numpy as np
import pytest

from repro.errors import ViscousError
from repro.geometry import naca
from repro.panel import solve_airfoil
from repro.viscous import (
    SurfaceDistribution,
    solve_head,
    solve_thwaites,
    stagnation_panel_index,
    surface_distributions,
)


def flat_plate_surface(n=400, length=1.0, speed=1.0):
    """A constant-edge-velocity surface (Blasius flat plate)."""
    s = np.linspace(1e-4, length, n)
    return SurfaceDistribution(
        name="plate",
        s=s,
        velocity=np.full(n, speed),
        panel_indices=np.arange(n),
    )


class TestEdgeVelocity:
    def test_stagnation_near_leading_edge(self, solved_2412):
        k = stagnation_panel_index(solved_2412)
        le = solved_2412.airfoil.leading_edge_index
        assert abs(k - le) <= 6

    def test_stagnation_moves_down_with_alpha(self, naca2412):
        low = stagnation_panel_index(solve_airfoil(naca2412, 2.0))
        high = stagnation_panel_index(solve_airfoil(naca2412, 8.0))
        # Higher alpha moves stagnation to the lower surface: larger index.
        assert high >= low

    def test_no_sign_change_raises(self, solved_2412):
        import dataclasses

        fake = dataclasses.replace(
            solved_2412, gamma=np.abs(solved_2412.gamma) + 0.1
        )
        with pytest.raises(ViscousError, match="stagnation"):
            stagnation_panel_index(fake)

    def test_surfaces_cover_all_panels(self, solved_2412):
        upper, lower = surface_distributions(solved_2412)
        total = len(upper.panel_indices) + len(lower.panel_indices)
        # A handful of stagnation-region panels may be dropped.
        assert total >= solved_2412.airfoil.n_panels - 4

    def test_arc_lengths_increase(self, solved_2412):
        upper, lower = surface_distributions(solved_2412)
        assert np.all(np.diff(upper.s) > 0)
        assert np.all(np.diff(lower.s) > 0)

    def test_velocities_positive(self, solved_2412):
        upper, lower = surface_distributions(solved_2412)
        assert np.all(upper.velocity > 0)
        assert np.all(lower.velocity > 0)

    def test_upper_surface_faster_at_positive_alpha(self, solved_2412):
        upper, lower = surface_distributions(solved_2412)
        assert upper.velocity.max() > lower.velocity.max()

    def test_lengths_near_half_perimeter(self, solved_2412):
        upper, lower = surface_distributions(solved_2412)
        perimeter = solved_2412.airfoil.perimeter
        assert upper.length + lower.length == pytest.approx(perimeter, rel=0.05)


class TestThwaites:
    def test_blasius_momentum_thickness(self):
        """Flat plate: theta = 0.671 x / sqrt(Re_x) (Thwaites: 0.671)."""
        nu = 1e-6
        result = solve_thwaites(flat_plate_surface(), nu)
        x = result.surface.s[-1]
        expected = 0.671 * x / np.sqrt(x / nu)
        assert result.theta[-1] == pytest.approx(expected, rel=0.02)

    def test_blasius_shape_factor(self):
        result = solve_thwaites(flat_plate_surface(), 1e-6)
        assert result.shape_factor[-1] == pytest.approx(2.61, abs=0.05)

    def test_blasius_cf(self):
        """cf = 0.664 / sqrt(Re_x) for laminar flat plate."""
        nu = 1e-6
        result = solve_thwaites(flat_plate_surface(), nu)
        x = result.surface.s[-1]
        assert result.cf[-1] == pytest.approx(0.664 / np.sqrt(x / nu), rel=0.05)

    def test_theta_grows_monotonically_on_plate(self):
        result = solve_thwaites(flat_plate_surface(), 1e-6)
        assert np.all(np.diff(result.theta) > 0)

    def test_no_separation_on_plate(self):
        result = solve_thwaites(flat_plate_surface(), 1e-6)
        assert result.separation_index is None
        assert not result.separated

    def test_transition_detected_at_high_re(self):
        # Re = 1e7 flat plate transitions well before x = 1.
        result = solve_thwaites(flat_plate_surface(), 1e-7)
        assert result.transition_index is not None

    def test_no_transition_at_low_re(self):
        result = solve_thwaites(flat_plate_surface(), 1e-4)
        assert result.transition_index is None

    def test_decelerating_flow_separates(self):
        """Howarth flow U = 1 - s separates near s ~ 0.12."""
        s = np.linspace(1e-4, 0.3, 500)
        surface = SurfaceDistribution(
            name="howarth", s=s, velocity=1.0 - s, panel_indices=np.arange(500)
        )
        result = solve_thwaites(surface, 1e-6)
        assert result.separation_index is not None
        separation_s = s[result.separation_index]
        assert 0.08 < separation_s < 0.16

    def test_accelerating_flow_does_not_separate(self):
        s = np.linspace(1e-4, 1.0, 300)
        surface = SurfaceDistribution(
            name="accel", s=s, velocity=1.0 + s, panel_indices=np.arange(300)
        )
        assert solve_thwaites(surface, 1e-6).separation_index is None

    def test_bad_viscosity(self):
        with pytest.raises(ViscousError):
            solve_thwaites(flat_plate_surface(), -1.0)

    def test_airfoil_surface_runs_clean(self, solved_2412):
        upper, _ = surface_distributions(solved_2412)
        result = solve_thwaites(upper, 1e-6)
        assert np.all(np.isfinite(result.theta))
        assert np.all(result.theta >= 0)


class TestHead:
    def test_turbulent_plate_momentum_growth(self):
        """Turbulent flat plate: theta/x ~ 0.036 Re_x^(-1/5)."""
        nu = 1e-7  # Re = 1e7
        plate = flat_plate_surface(800)
        result = solve_head(plate, nu, start_index=2, theta_start=1e-5)
        x = plate.s[-1]
        expected = 0.036 * x * (x / nu) ** (-0.2)
        assert result.trailing_theta == pytest.approx(expected, rel=0.35)

    def test_shape_factor_stays_turbulent_range(self):
        result = solve_head(flat_plate_surface(500), 1e-7, start_index=2,
                            theta_start=1e-5)
        assert np.all(result.shape_factor > 1.1)
        assert np.all(result.shape_factor < 2.0)

    def test_no_separation_on_plate(self):
        result = solve_head(flat_plate_surface(500), 1e-7, start_index=2,
                            theta_start=1e-5)
        assert not result.separated

    def test_adverse_gradient_raises_h(self):
        s = np.linspace(1e-3, 1.0, 600)
        adverse = SurfaceDistribution(
            name="adverse", s=s, velocity=1.0 - 0.6 * s,
            panel_indices=np.arange(600),
        )
        flat = solve_head(flat_plate_surface(600), 1e-6, start_index=2,
                          theta_start=1e-4)
        stressed = solve_head(adverse, 1e-6, start_index=2, theta_start=1e-4)
        assert stressed.trailing_shape_factor > flat.trailing_shape_factor

    def test_invalid_start_index(self):
        with pytest.raises(ViscousError):
            solve_head(flat_plate_surface(50), 1e-6, start_index=49,
                       theta_start=1e-4)

    def test_invalid_theta(self):
        with pytest.raises(ViscousError):
            solve_head(flat_plate_surface(50), 1e-6, start_index=2,
                       theta_start=0.0)

    def test_vanishing_edge_velocity_is_a_viscous_error(self):
        s = np.linspace(1e-3, 1.0, 50)
        stalled = SurfaceDistribution(name="stalled", s=s,
                                      velocity=np.where(s < 0.5, 1.0, 0.0),
                                      panel_indices=np.arange(50))
        with pytest.raises(ViscousError, match="edge velocity"):
            solve_head(stalled, 1e-6, start_index=2, theta_start=1e-4)

    def test_result_arrays_cover_every_station_from_the_start(self):
        plate = flat_plate_surface(120)
        result = solve_head(plate, 1e-6, start_index=7, theta_start=1e-4)
        for field in (result.theta, result.shape_factor, result.cf):
            assert isinstance(field, np.ndarray) and field.dtype == np.float64
            assert len(field) == len(plate.s) - 7
        assert result.theta[0] == 1e-4 and result.shape_factor[0] == 1.4
