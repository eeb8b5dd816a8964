"""Tests for the boundary-layer closure correlations."""

import numpy as np
import pytest

from repro.errors import ViscousError
from repro.viscous import (
    LAMBDA_SEPARATION,
    head_entrainment,
    head_h1,
    head_h_from_h1,
    ludwieg_tillmann_cf,
    michel_transition_re_theta,
    thwaites_h,
    thwaites_l,
)


class TestThwaitesCorrelations:
    def test_flat_plate_values(self):
        # lambda = 0: l = 0.22, H = 2.61 (Blasius-like).
        assert thwaites_l(0.0) == pytest.approx(0.22)
        assert thwaites_h(0.0) == pytest.approx(2.61)

    def test_shear_vanishes_at_separation(self):
        assert thwaites_l(LAMBDA_SEPARATION) == pytest.approx(0.0, abs=0.02)

    def test_shape_factor_rises_toward_separation(self):
        lam = np.linspace(-0.088, 0.1, 50)
        h = thwaites_h(lam)
        assert np.all(np.diff(h) < 0)  # H decreases with lambda
        assert thwaites_h(-0.088) > 3.2

    def test_favourable_gradient_thins_profile(self):
        assert thwaites_h(0.1) < thwaites_h(0.0)

    def test_clipping_outside_range(self):
        assert thwaites_h(-5.0) == thwaites_h(LAMBDA_SEPARATION)
        assert thwaites_l(5.0) == thwaites_l(0.25)

    def test_vectorized(self):
        lam = np.array([-0.05, 0.0, 0.05])
        assert thwaites_l(lam).shape == (3,)


class TestTurbulentCorrelations:
    def test_ludwieg_tillmann_magnitude(self):
        # Flat-plate-ish turbulent layer: H = 1.4, Re_theta = 1000.
        cf = ludwieg_tillmann_cf(1.4, 1000.0)
        assert 0.002 < cf < 0.005

    def test_cf_decreases_with_re(self):
        assert ludwieg_tillmann_cf(1.4, 1e5) < ludwieg_tillmann_cf(1.4, 1e3)

    def test_cf_decreases_with_h(self):
        assert ludwieg_tillmann_cf(2.2, 1e4) < ludwieg_tillmann_cf(1.3, 1e4)

    def test_nonpositive_re_rejected(self):
        with pytest.raises(ViscousError):
            ludwieg_tillmann_cf(1.4, 0.0)

    def test_h1_h_inverse_roundtrip(self):
        h_values = np.linspace(1.2, 2.4, 25)
        recovered = head_h_from_h1(head_h1(h_values))
        assert recovered == pytest.approx(h_values, abs=0.02)

    def test_h1_decreases_with_h_below_16(self):
        h = np.linspace(1.15, 1.6, 20)
        assert np.all(np.diff(head_h1(h)) < 0)

    def test_entrainment_positive_and_decreasing(self):
        h1 = np.linspace(3.5, 10.0, 20)
        f = head_entrainment(h1)
        assert np.all(f > 0)
        assert np.all(np.diff(f) < 0)


class TestHeadCorrelationForms:
    """Each Head correlation has one definition, on floats; the public
    array form applies it element by element."""

    @pytest.mark.parametrize("correlation, arguments", [
        (ludwieg_tillmann_cf, (np.linspace(1.2, 2.6, 9), np.geomspace(1.0, 1e6, 9))),
        (head_h1, (np.linspace(1.05, 2.8, 12),)),
        (head_h_from_h1, (np.linspace(3.0, 12.0, 12),)),
        (head_entrainment, (np.linspace(2.9, 12.0, 12),)),
    ])
    def test_array_form_is_the_float_form_per_element(self, correlation, arguments):
        values = correlation(*arguments)
        assert values.dtype == np.float64 and values.shape == arguments[0].shape
        expected = [correlation.pyfunc(*map(float, point))
                    for point in zip(*arguments)]
        assert values.tolist() == expected

    def test_scalar_input_gives_a_float(self):
        assert isinstance(head_h1.pyfunc(1.4), float)
        assert float(head_h1(1.4)) == head_h1.pyfunc(1.4)

    def test_nonpositive_re_rejected_inside_an_array(self):
        with pytest.raises(ViscousError):
            ludwieg_tillmann_cf(np.array([1.4, 1.4]), np.array([1e3, -1.0]))


class TestMichel:
    def test_critical_re_theta_magnitude(self):
        # At Re_x = 1e6 the Michel threshold is near Re_theta ~ 680-700.
        value = michel_transition_re_theta(1e6)
        assert 600 < value < 800

    def test_increases_with_re_x(self):
        assert michel_transition_re_theta(1e7) > michel_transition_re_theta(1e5)

    def test_small_re_guard(self):
        assert np.isfinite(michel_transition_re_theta(0.0))
