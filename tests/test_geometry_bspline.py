"""Tests for the B-spline machinery."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GeometryError
from repro.geometry.bspline import (
    BASIS_CACHE_SIZE,
    BSplineAirfoil,
    BSplineCurve,
    _cached_basis,
    basis_functions,
    cox_de_boor,
    open_uniform_knots,
)


class TestKnots:
    def test_clamped_ends(self):
        knots = open_uniform_knots(7, 3)
        assert list(knots[:4]) == [0.0] * 4
        assert list(knots[-4:]) == [1.0] * 4

    def test_length(self):
        assert len(open_uniform_knots(7, 3)) == 7 + 3 + 1

    def test_interior_uniform(self):
        knots = open_uniform_knots(7, 3)
        interior = knots[4:-4]
        assert interior == pytest.approx([1 / 4, 2 / 4, 3 / 4])

    def test_too_few_control_points(self):
        with pytest.raises(GeometryError):
            open_uniform_knots(3, 3)


class TestBasis:
    def test_partition_of_unity(self):
        knots = open_uniform_knots(8, 3)
        t = np.linspace(0.0, 1.0, 101)
        basis = basis_functions(knots, 3, t)
        assert basis.sum(axis=1) == pytest.approx(np.ones(101))

    def test_nonnegative(self):
        knots = open_uniform_knots(8, 3)
        basis = basis_functions(knots, 3, np.linspace(0, 1, 101))
        assert np.all(basis >= -1e-14)

    def test_endpoint_interpolation(self):
        knots = open_uniform_knots(6, 3)
        basis = basis_functions(knots, 3, np.array([0.0, 1.0]))
        assert basis[0, 0] == pytest.approx(1.0)
        assert basis[1, -1] == pytest.approx(1.0)

    def test_local_support(self):
        knots = open_uniform_knots(10, 3)
        basis = basis_functions(knots, 3, np.array([0.05]))
        assert np.count_nonzero(basis[0] > 1e-12) <= 4

    def test_out_of_range_raises(self):
        knots = open_uniform_knots(6, 3)
        with pytest.raises(GeometryError, match="outside"):
            basis_functions(knots, 3, np.array([1.5]))

    def test_nan_parameter_raises(self):
        with pytest.raises(GeometryError, match="outside"):
            cox_de_boor(open_uniform_knots(6, 3), 3, np.array([0.5, np.nan]))

    def test_subnormal_knot_span_stays_finite(self):
        # (t - k_0) / 1e-310 overflows to inf, and it multiplies a zero
        # degree-0 entry: inf * 0 would make the hat function NaN.
        knots = np.array([0.0, 1e-310, 0.5, 1.0])
        basis = cox_de_boor(knots, 1, np.array([0.25]))
        assert basis.tolist() == [[0.5, 0.5]]


def _outcome(call):
    """``("ok", bytes, shape)`` or ``("raises", type, message)``."""
    try:
        basis = call()
    except Warning:
        raise  # a numerical warning made an error is a defect, not an outcome
    except Exception as error:  # compared, not swallowed
        return ("raises", type(error), str(error))
    return ("ok", basis.tobytes(), basis.shape)


@st.composite
def basis_inputs(draw):
    """Random non-decreasing knots, a degree, and parameters that are
    mostly inside the knot range, sometimes on its ends or just outside."""
    degree = draw(st.integers(min_value=0, max_value=4))
    unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
    knots = sorted(draw(st.lists(unit, min_size=degree + 2, max_size=12)))
    inside = st.floats(min_value=knots[0], max_value=knots[-1],
                       allow_nan=False)
    edge = st.sampled_from([knots[0], knots[-1], knots[0] - 1e-9,
                            knots[-1] + 1e-9])
    parameters = draw(st.lists(st.one_of(inside, inside, edge),
                               min_size=1, max_size=40))
    return np.asarray(knots), degree, np.asarray(parameters)


class TestBasisCache:
    @settings(max_examples=150, deadline=None)
    @given(basis_inputs())
    def test_cached_is_byte_identical_to_the_recursion(self, inputs):
        knots, degree, parameters = inputs
        expected = _outcome(lambda: cox_de_boor(knots, degree, parameters))
        first = _outcome(lambda: basis_functions(knots, degree, parameters))
        again = _outcome(lambda: basis_functions(list(knots), degree,
                                                 parameters.copy()))
        assert first == expected
        assert again == expected  # a cache hit, or a fresh raise

    def test_result_is_read_only(self):
        basis = basis_functions(open_uniform_knots(7, 3), 3,
                                np.linspace(0.0, 1.0, 9))
        assert not basis.flags.writeable
        with pytest.raises(ValueError):
            basis[0, 0] = 2.0

    def test_out_of_range_raises_on_every_call(self):
        knots = open_uniform_knots(7, 3)
        for _ in range(3):
            with pytest.raises(GeometryError):
                basis_functions(knots, 3, [0.5, 1.5])

    def test_cache_stays_bounded(self):
        knots = open_uniform_knots(7, 3)
        for count in range(2, 2 * BASIS_CACHE_SIZE + 2):
            basis_functions(knots, 3, np.linspace(0.0, 1.0, count))
        assert _cached_basis.cache_info().currsize == BASIS_CACHE_SIZE

    def test_one_grid_is_computed_once(self):
        knots = open_uniform_knots(7, 3)
        grid = np.linspace(0.0, 1.0, 31)
        first = basis_functions(knots, 3, grid)
        assert basis_functions(list(knots), 3, grid.copy()) is first


class TestCurve:
    def test_interpolates_endpoints(self):
        control = np.array([[0, 0], [1, 2], [2, -1], [3, 0]], dtype=float)
        curve = BSplineCurve(control_points=control)
        ends = curve.evaluate([0.0, 1.0])
        assert ends[0] == pytest.approx(control[0])
        assert ends[1] == pytest.approx(control[-1])

    def test_convex_hull_property(self):
        control = np.array([[0, 0], [1, 1], [2, 1], [3, 0]], dtype=float)
        curve = BSplineCurve(control_points=control)
        points = curve.evaluate(np.linspace(0, 1, 101))
        assert points[:, 1].max() <= 1.0 + 1e-12
        assert points[:, 1].min() >= -1e-12

    def test_straight_control_polygon_gives_line(self):
        control = np.column_stack([np.linspace(0, 1, 6), np.linspace(0, 2, 6)])
        curve = BSplineCurve(control_points=control)
        points = curve.evaluate(np.linspace(0, 1, 33))
        assert points[:, 1] == pytest.approx(2.0 * points[:, 0], abs=1e-12)

    def test_derivative_matches_finite_difference(self):
        control = np.array([[0, 0], [0.5, 1], [1.5, -0.5], [2, 0.3], [3, 0]], float)
        curve = BSplineCurve(control_points=control)
        derivative = curve.derivative()
        t = np.array([0.21, 0.5, 0.83])
        h = 1e-6
        numeric = (curve.evaluate(t + h) - curve.evaluate(t - h)) / (2 * h)
        assert derivative.evaluate(t) == pytest.approx(numeric, abs=1e-5)

    def test_degree_reduced(self):
        control = np.zeros((5, 2))
        control[:, 0] = np.arange(5)
        assert BSplineCurve(control_points=control).derivative().degree == 2

    def test_too_few_control_points(self):
        with pytest.raises(GeometryError):
            BSplineCurve(control_points=np.zeros((3, 2)))


class TestBSplineAirfoil:
    def make(self):
        return BSplineAirfoil(
            upper_heights=[0.06, 0.09, 0.07, 0.04],
            lower_heights=[-0.03, -0.04, -0.03, -0.01],
        )

    def test_n_parameters(self):
        assert self.make().n_parameters == 8

    def test_coefficient_roundtrip(self):
        parametrization = self.make()
        rebuilt = BSplineAirfoil.from_coefficients(
            parametrization.coefficients(), n_upper=4
        )
        assert rebuilt.upper_heights == pytest.approx(parametrization.upper_heights)
        assert rebuilt.lower_heights == pytest.approx(parametrization.lower_heights)

    def test_to_airfoil_closed_and_sized(self):
        foil = self.make().to_airfoil(80)
        assert foil.n_panels == 80
        assert np.allclose(foil.points[0], foil.points[-1])

    def test_pinned_edges(self):
        foil = self.make().to_airfoil(80)
        assert foil.trailing_edge == pytest.approx([1.0, 0.0], abs=1e-9)
        assert foil.leading_edge == pytest.approx([0.0, 0.0], abs=0.05)

    def test_thickness_positive_everywhere(self):
        assert self.make().is_feasible(min_thickness=0.005)

    def test_crossed_surfaces_infeasible(self):
        crossed = BSplineAirfoil(
            upper_heights=[-0.05, -0.06, -0.05, -0.02],
            lower_heights=[0.05, 0.06, 0.05, 0.02],
        )
        assert not crossed.is_feasible()

    def test_thickness_at_matches_curves(self):
        parametrization = self.make()
        stations = np.array([0.3, 0.6])
        upper = parametrization.upper_curve().evaluate(stations)[:, 1]
        lower = parametrization.lower_curve().evaluate(stations)[:, 1]
        assert parametrization.thickness_at(stations) == pytest.approx(upper - lower)

    def test_odd_panels_rejected(self):
        with pytest.raises(GeometryError):
            self.make().to_airfoil(81)

    def test_too_few_heights(self):
        with pytest.raises(GeometryError):
            BSplineAirfoil(upper_heights=[0.1, 0.1], lower_heights=[-0.1, -0.1, -0.1])
