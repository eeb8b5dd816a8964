"""The :class:`Airfoil` container used by the panel method.

An airfoil is a closed polyline ``x_0, x_1, ..., x_n`` with
``x_n == x_0`` and the trailing edge at ``x_0`` (the paper's Section 2
convention).  Points are ordered counter-clockwise: from the trailing
edge over the upper surface to the leading edge and back along the
lower surface — the standard Selig ordering.
"""

from __future__ import annotations

import dataclasses
from functools import cached_property

import numpy as np

from repro.errors import GeometryError
from repro.geometry import points as pt


def _require_finite(points: np.ndarray) -> None:
    if not np.isfinite(points).all():
        raise GeometryError("airfoil points must be finite (no NaN or inf)")


@dataclasses.dataclass(frozen=True)
class Airfoil:
    """A discretized airfoil outline.

    Parameters
    ----------
    points:
        ``(n + 1, 2)`` array of finite outline coordinates with
        ``points[0] == points[-1]`` (closed) and the trailing edge at
        index 0.  Counter-clockwise orientation is required; use
        :meth:`from_points` to normalize arbitrary input.
    name:
        Optional human-readable label used in reports and plots.

    Notes
    -----
    The instance is immutable: the coordinate array is copied and set
    non-writeable so cached panel quantities can never go stale.
    """

    points: np.ndarray
    name: str = "airfoil"

    def __post_init__(self) -> None:
        raw = np.asarray(self.points)
        dtype = raw.dtype if np.issubdtype(raw.dtype, np.floating) else np.float64
        points = pt.as_points(raw, dtype=dtype)
        _require_finite(points)
        if len(points) < 4:
            raise GeometryError(
                f"an airfoil needs at least 3 panels, got {len(points) - 1}"
            )
        if not pt.coincide(points[0], points[-1], atol=1e-12):
            raise GeometryError("airfoil outline must be closed (points[0] == points[-1])")
        if pt.is_clockwise(points):
            raise GeometryError(
                "airfoil points must be ordered counter-clockwise "
                "(trailing edge -> upper surface -> leading edge -> lower surface); "
                "use Airfoil.from_points to reorder automatically"
            )
        lengths = pt.segment_lengths(points)
        if np.any(lengths <= 0.0):
            raise GeometryError("airfoil outline contains zero-length panels")
        points = points.copy()
        points.setflags(write=False)
        object.__setattr__(self, "points", points)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def from_points(cls, points, name: str = "airfoil") -> "Airfoil":
        """Build an airfoil from raw coordinates, normalizing as needed.

        Closes the outline if the first point is not repeated, reverses
        clockwise input, and drops consecutive duplicate points.
        """
        points = pt.as_points(points)
        _require_finite(points)
        keep = np.ones(len(points), dtype=bool)
        keep[1:] = pt.norms(np.diff(points, axis=0)) > 1e-14
        points = points[keep]
        if not pt.coincide(points[0], points[-1], atol=1e-12):
            points = np.vstack([points, points[0]])
        if pt.is_clockwise(points):
            points = points[::-1].copy()
        return cls(points=points, name=name)

    @classmethod
    def from_surfaces(cls, upper, lower, name: str = "airfoil") -> "Airfoil":
        """Build an airfoil from separate upper and lower surface arrays.

        Both surfaces run from the leading edge to the trailing edge.
        The shared leading-edge point and, if coincident, the shared
        trailing-edge point are deduplicated.
        """
        upper = pt.as_points(upper)
        lower = pt.as_points(lower)
        if not pt.coincide(upper[0], lower[0], atol=1e-9):
            raise GeometryError("upper and lower surfaces must share a leading edge")
        outline = np.vstack([upper[::-1], lower[1:]])
        if not pt.coincide(outline[0], outline[-1], atol=1e-12):
            outline = np.vstack([outline, outline[0]])
        return cls.from_points(outline, name=name)

    # ------------------------------------------------------------------
    # Panel quantities
    # ------------------------------------------------------------------

    @property
    def n_panels(self) -> int:
        """Number of straight panels in the discretization."""
        return len(self.points) - 1

    @cached_property
    def panel_vectors(self) -> np.ndarray:
        """``h_i = x_{i+1} - x_i`` for every panel, shape ``(n, 2)``."""
        return np.diff(self.points, axis=0)

    @cached_property
    def panel_lengths(self) -> np.ndarray:
        """``|h_i|`` for every panel."""
        return pt.norms(self.panel_vectors)

    @cached_property
    def control_points(self) -> np.ndarray:
        """Panel midpoints ``x_{i+1/2}`` where the boundary condition holds."""
        return pt.midpoints(self.points)

    @cached_property
    def tangents(self) -> np.ndarray:
        """Unit tangent of each panel, in traversal direction."""
        return pt.normalize(self.panel_vectors)

    @cached_property
    def normals(self) -> np.ndarray:
        """Outward unit normal of each panel."""
        return pt.normalize(pt.perpendicular(self.panel_vectors))

    # ------------------------------------------------------------------
    # Global shape quantities
    # ------------------------------------------------------------------

    @property
    def trailing_edge(self) -> np.ndarray:
        """Coordinates of the trailing edge (point index 0)."""
        return self.points[0]

    @cached_property
    def leading_edge_index(self) -> int:
        """Index of the outline point farthest from the trailing edge."""
        offsets = self.points[:-1] - self.trailing_edge
        return int(np.argmax(pt.dot(offsets, offsets)))

    @property
    def leading_edge(self) -> np.ndarray:
        """Coordinates of the point farthest from the trailing edge."""
        return self.points[self.leading_edge_index]

    @property
    def chord(self) -> float:
        """Distance from the leading to the trailing edge."""
        return float(np.linalg.norm(self.trailing_edge - self.leading_edge))

    @property
    def area(self) -> float:
        """Enclosed (positive) cross-sectional area."""
        return abs(pt.signed_polygon_area(self.points))

    @cached_property
    def perimeter(self) -> float:
        """Total outline length."""
        return float(self.panel_lengths.sum())

    @cached_property
    def max_thickness(self) -> float:
        """Maximum thickness measured between the two surfaces.

        Computed by interpolating upper and lower surface ``y`` at
        common chordwise stations; assumes a conventional (roughly
        chord-aligned) airfoil.
        """
        upper, lower = self.surfaces()
        stations = np.linspace(
            max(upper[:, 0].min(), lower[:, 0].min()),
            min(upper[:, 0].max(), lower[:, 0].max()),
            256,
        )
        y_up = np.interp(stations, upper[:, 0], upper[:, 1])
        y_lo = np.interp(stations, lower[:, 0], lower[:, 1])
        return float(np.max(y_up - y_lo))

    def surfaces(self) -> tuple:
        """Split the outline into (upper, lower) surfaces.

        Both returned arrays run from the leading edge to the trailing
        edge and are sorted by increasing ``x`` for interpolation.
        """
        le = self.leading_edge_index
        upper = self.points[: le + 1][::-1]  # TE -> LE reversed to LE -> TE
        lower = self.points[le:]  # LE -> TE (includes closing point)
        upper = upper[np.argsort(upper[:, 0], kind="stable")]
        lower = lower[np.argsort(lower[:, 0], kind="stable")]
        return upper, lower

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------

    def with_name(self, name: str) -> "Airfoil":
        """A copy of this airfoil carrying a different label."""
        return dataclasses.replace(self, name=name)

    def astype(self, dtype) -> "Airfoil":
        """A copy with the coordinate array cast to *dtype*."""
        return Airfoil(points=np.asarray(self.points, dtype=dtype), name=self.name)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Airfoil(name={self.name!r}, n_panels={self.n_panels}, chord={self.chord:.4g})"
