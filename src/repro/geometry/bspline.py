"""B-spline curves and B-spline airfoil parametrization.

The paper's genetic optimizer mutates B-spline coefficients one at a
time; this module implements the required machinery from scratch:
Cox–de Boor basis evaluation, open-uniform knot vectors, curve
evaluation and derivatives, and a compact airfoil parametrization whose
degrees of freedom are the control-point heights of the upper and lower
surfaces.
"""

from __future__ import annotations

import dataclasses
import functools

import numpy as np

from repro.errors import GeometryError
from repro.geometry.airfoil import Airfoil
from repro.geometry.sampling import cosine_spacing


def open_uniform_knots(n_control: int, degree: int) -> np.ndarray:
    """Open-uniform (clamped) knot vector for *n_control* points.

    The first and last knots repeat ``degree + 1`` times so the curve
    interpolates its end control points.
    """
    if n_control <= degree:
        raise GeometryError(
            f"need more control points ({n_control}) than the degree ({degree})"
        )
    n_interior = n_control - degree - 1
    interior = np.linspace(0.0, 1.0, n_interior + 2)[1:-1]
    return np.concatenate([
        np.zeros(degree + 1),
        interior,
        np.ones(degree + 1),
    ])


#: Distinct bases kept by :func:`basis_functions`.  A GA layout needs at
#: most four (two surfaces, each at the feasibility stations and at the
#: discretization grid); the rest is headroom for other panel counts.
BASIS_CACHE_SIZE = 64


def basis_functions(knots: np.ndarray, degree: int, parameters: np.ndarray) -> np.ndarray:
    """Evaluate all B-spline basis functions at the given parameters.

    Returns a read-only array of shape ``(len(parameters), n_control)``
    where ``n_control = len(knots) - degree - 1``, built with the
    Cox–de Boor recursion.  The conventional right-end fix makes the
    basis sum to one at ``t = 1`` as well.

    The basis depends only on the knots, the degree and the parameters,
    never on the control points, so it is computed once per distinct
    ``(knots, degree, parameters)`` — compared by their bytes — and kept
    in a bounded LRU cache.  A call that raises caches nothing.
    """
    knots = np.ascontiguousarray(knots, dtype=np.float64)
    t = np.ascontiguousarray(np.atleast_1d(parameters), dtype=np.float64)
    return _cached_basis(knots.tobytes(), int(degree), t.tobytes(), t.shape)


@functools.lru_cache(maxsize=BASIS_CACHE_SIZE)
def _cached_basis(knot_bytes: bytes, degree: int, parameter_bytes: bytes,
                  shape: tuple) -> np.ndarray:
    basis = cox_de_boor(np.frombuffer(knot_bytes), degree,
                        np.frombuffer(parameter_bytes).reshape(shape))
    basis.setflags(write=False)
    return basis


def cox_de_boor(knots: np.ndarray, degree: int, t: np.ndarray) -> np.ndarray:
    """The uncached basis of :func:`basis_functions` (float64 inputs)."""
    # Non-decreasing with a non-empty span, so knots[-1] > knots[0];
    # written as negated comparisons so a NaN knot is refused too.
    if not (np.all(np.diff(knots) >= 0.0) and knots[-1] > knots[0]):
        raise GeometryError(
            "knot vector must be non-decreasing with at least one "
            "non-empty span"
        )
    if not (np.all(t >= knots[0]) and np.all(t <= knots[-1])):
        raise GeometryError("parameter outside the knot range")
    n_control = len(knots) - degree - 1
    # Degree-0 basis: indicator of the half-open knot span.
    n_basis0 = len(knots) - 1
    basis = np.zeros((len(t), n_basis0))
    for i in range(n_basis0):
        left, right = knots[i], knots[i + 1]
        if right > left:
            basis[:, i] = (t >= left) & (t < right)
    # Right-end fix: the last non-empty span is closed at t == knots[-1].
    at_end = t == knots[-1]
    if np.any(at_end):
        last = np.max(np.nonzero(np.diff(knots) > 0.0))
        basis[at_end, last] = 1.0
    # Cox–de Boor recursion up to the requested degree.  A zero
    # lower-degree entry contributes exactly zero: it is skipped, not
    # multiplied, because (t - k_i) / denom overflows to inf on a
    # subnormal span and inf * 0 is NaN.
    for p in range(1, degree + 1):
        new_basis = np.zeros((len(t), n_basis0 - p))
        for i in range(n_basis0 - p):
            denom_left = knots[i + p] - knots[i]
            denom_right = knots[i + p + 1] - knots[i + 1]
            term = np.zeros(len(t))
            live = basis[:, i] != 0.0
            if denom_left > 0.0:
                term[live] += (t[live] - knots[i]) / denom_left * basis[live, i]
            live = basis[:, i + 1] != 0.0
            if denom_right > 0.0:
                term[live] += ((knots[i + p + 1] - t[live]) / denom_right
                               * basis[live, i + 1])
            new_basis[:, i] = term
        basis = new_basis
    return basis[:, :n_control]


@dataclasses.dataclass(frozen=True)
class BSplineCurve:
    """A clamped B-spline curve in the plane (or on a scalar axis).

    Parameters
    ----------
    control_points:
        ``(m, d)`` array of control points (``d`` is usually 1 or 2).
    degree:
        Polynomial degree (cubic by default).
    """

    control_points: np.ndarray
    degree: int = 3

    def __post_init__(self) -> None:
        control = np.atleast_2d(np.asarray(self.control_points, dtype=np.float64))
        if len(control) <= self.degree:
            raise GeometryError(
                f"a degree-{self.degree} spline needs at least "
                f"{self.degree + 1} control points, got {len(control)}"
            )
        control = control.copy()
        control.setflags(write=False)
        object.__setattr__(self, "control_points", control)

    @property
    def knots(self) -> np.ndarray:
        """The clamped open-uniform knot vector of the curve."""
        return open_uniform_knots(len(self.control_points), self.degree)

    def evaluate(self, parameters) -> np.ndarray:
        """Points on the curve at the given parameter values in [0, 1]."""
        basis = basis_functions(self.knots, self.degree, parameters)
        return basis @ self.control_points

    def derivative(self) -> "BSplineCurve":
        """The first-derivative curve (degree reduced by one)."""
        p = self.degree
        knots = self.knots
        control = self.control_points
        diffs = np.diff(control, axis=0)
        spans = knots[p + 1:len(control) + p] - knots[1:len(control)]
        scaled = p * diffs / spans[:, None]
        return BSplineCurve(control_points=scaled, degree=p - 1)

    def __len__(self) -> int:
        return len(self.control_points)


@dataclasses.dataclass(frozen=True)
class BSplineAirfoil:
    """Airfoil parametrized by B-spline control-point heights.

    The upper and lower surfaces are cubic B-splines over chord
    fractions.  The ``x`` locations of the control points are fixed
    (uniform in chord); the free parameters — the genome of the genetic
    optimizer — are the ``y`` heights of the interior control points.
    Leading and trailing edges are pinned at ``(0, 0)`` and ``(1, 0)``.

    Parameters
    ----------
    upper_heights / lower_heights:
        Heights of the interior control points of each surface, from
        just aft of the leading edge to just ahead of the trailing edge.
    degree:
        Spline degree (cubic by default).
    """

    upper_heights: np.ndarray
    lower_heights: np.ndarray
    degree: int = 3
    name: str = "b-spline airfoil"

    def __post_init__(self) -> None:
        for attr in ("upper_heights", "lower_heights"):
            heights = np.asarray(getattr(self, attr), dtype=np.float64).ravel().copy()
            if len(heights) < self.degree:
                raise GeometryError(
                    f"{attr} needs at least {self.degree} interior control points"
                )
            heights.setflags(write=False)
            object.__setattr__(self, attr, heights)

    @property
    def n_parameters(self) -> int:
        """Total number of free coefficients (the genome length)."""
        return len(self.upper_heights) + len(self.lower_heights)

    def coefficients(self) -> np.ndarray:
        """The flat parameter vector: upper heights then lower heights."""
        return np.concatenate([self.upper_heights, self.lower_heights])

    @classmethod
    def from_coefficients(cls, coefficients, n_upper: int, *, degree: int = 3,
                          name: str = "b-spline airfoil") -> "BSplineAirfoil":
        """Rebuild a parametrization from a flat coefficient vector."""
        coefficients = np.asarray(coefficients, dtype=np.float64).ravel()
        return cls(
            upper_heights=coefficients[:n_upper],
            lower_heights=coefficients[n_upper:],
            degree=degree,
            name=name,
        )

    def _surface_curve(self, heights: np.ndarray) -> BSplineCurve:
        m = len(heights) + 2
        x_control = np.linspace(0.0, 1.0, m)
        y_control = np.concatenate([[0.0], heights, [0.0]])
        return BSplineCurve(
            control_points=np.column_stack([x_control, y_control]),
            degree=self.degree,
        )

    def upper_curve(self) -> BSplineCurve:
        """The upper-surface spline (leading edge to trailing edge)."""
        return self._surface_curve(self.upper_heights)

    def lower_curve(self) -> BSplineCurve:
        """The lower-surface spline (leading edge to trailing edge)."""
        return self._surface_curve(self.lower_heights)

    def to_airfoil(self, n_panels: int = 200) -> Airfoil:
        """Discretize into an :class:`Airfoil` with *n_panels* panels.

        Surface points use cosine clustering in the spline parameter so
        panels concentrate near the leading and trailing edges.
        """
        if n_panels < 4 or n_panels % 2:
            raise GeometryError(f"n_panels must be an even number >= 4, got {n_panels}")
        parameters = cosine_spacing(n_panels // 2 + 1)
        upper = self.upper_curve().evaluate(parameters)
        lower = self.lower_curve().evaluate(parameters)
        return Airfoil.from_surfaces(upper, lower, name=self.name)

    def thickness_at(self, stations) -> np.ndarray:
        """Upper-minus-lower surface height at the given chord stations.

        Uses the spline parameter as a chord proxy, which is accurate
        because the control-point ``x`` values are uniform.
        """
        stations = np.atleast_1d(np.asarray(stations, dtype=np.float64))
        upper = self.upper_curve().evaluate(stations)[:, 1]
        lower = self.lower_curve().evaluate(stations)[:, 1]
        return upper - lower

    def is_feasible(self, *, min_thickness: float = 0.0, stations: int = 33) -> bool:
        """True when the section has positive thickness everywhere.

        ``min_thickness`` sets a floor on the interior thickness (the
        pinned leading/trailing edges are excluded from the check).
        """
        interior = np.linspace(0.0, 1.0, stations)[1:-1]
        return bool(np.all(self.thickness_at(interior) > min_thickness))
