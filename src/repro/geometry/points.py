"""Primitive operations on 2-D points and vectors.

Throughout the library a "point array" is a NumPy array of shape
``(n, 2)`` whose rows are ``(x, y)`` coordinates.  These helpers keep
the rest of the code free of axis bookkeeping.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence, Union

import numpy as np

from repro.errors import GeometryError

ArrayLike2D = Union[np.ndarray, Sequence[Sequence[float]], Iterable]


def as_points(data: ArrayLike2D, dtype=np.float64) -> np.ndarray:
    """Coerce *data* to a contiguous ``(n, 2)`` float array.

    Raises :class:`GeometryError` if the input cannot be interpreted as
    a sequence of 2-D points.
    """
    points = np.ascontiguousarray(data, dtype=dtype)
    if points.ndim == 1 and points.size == 2:
        points = points.reshape(1, 2)
    if points.ndim != 2 or points.shape[1] != 2:
        raise GeometryError(
            f"expected an (n, 2) array of points, got shape {points.shape}"
        )
    return points


def dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot product of two ``(..., 2)`` arrays."""
    return np.einsum("...i,...i->...", a, b)


def cross_z(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """z-component of the cross product of row vectors ``a`` and ``b``."""
    return a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]


def norms(vectors: np.ndarray) -> np.ndarray:
    """Euclidean length of each row vector."""
    return np.sqrt(dot(vectors, vectors))


def normalize(vectors: np.ndarray) -> np.ndarray:
    """Unit vectors parallel to each row of *vectors*.

    Raises :class:`GeometryError` if any row has zero length.
    """
    lengths = norms(vectors)
    if np.any(lengths == 0.0):
        raise GeometryError("cannot normalize a zero-length vector")
    return vectors / lengths[..., None]


def perpendicular(vectors: np.ndarray) -> np.ndarray:
    """Rotate each row vector by -90 degrees (clockwise).

    For panels traversed counter-clockwise around an airfoil (the
    convention of this library, matching the Selig point order: trailing
    edge, over the upper surface to the leading edge, and back along the
    lower surface), the clockwise perpendicular of the panel tangent
    points *outward*, into the flow domain, matching the paper's
    outward-pointing ``h_perp``.
    """
    perp = np.empty_like(vectors)
    perp[..., 0] = vectors[..., 1]
    perp[..., 1] = -vectors[..., 0]
    return perp


def segment_lengths(points: np.ndarray) -> np.ndarray:
    """Lengths of the polyline segments joining consecutive points."""
    points = as_points(points)
    return norms(np.diff(points, axis=0))


def polyline_length(points: np.ndarray) -> float:
    """Total arc length of the open polyline through *points*."""
    return float(segment_lengths(points).sum())


def arc_length_parameter(points: np.ndarray) -> np.ndarray:
    """Cumulative arc length at each point, starting at zero."""
    lengths = segment_lengths(points)
    parameter = np.empty(len(lengths) + 1, dtype=lengths.dtype)
    parameter[0] = 0.0
    np.cumsum(lengths, out=parameter[1:])
    return parameter


def midpoints(points: np.ndarray) -> np.ndarray:
    """Midpoints of consecutive point pairs (the panel control points)."""
    points = as_points(points)
    return 0.5 * (points[:-1] + points[1:])


def coincide(a: np.ndarray, b: np.ndarray, *, atol: float = 1e-8) -> bool:
    """``np.allclose(a, b, atol=atol)`` for two points, in scalar arithmetic.

    Each coordinate passes when ``|a - b| <= atol + 1e-5 * |b|`` (NumPy's
    rule and default ``rtol``) with both finite, or when it is equal;
    NaN never passes.  An airfoil build makes four such checks, and
    ``np.allclose``'s array machinery cost as much as the rest of it.
    """
    def close(u: float, v: float) -> bool:
        return u == v or abs(u - v) <= atol + 1e-5 * abs(v) < math.inf

    (ax, ay), (bx, by) = np.asarray(a).tolist(), np.asarray(b).tolist()
    return close(ax, bx) and close(ay, by)


def signed_polygon_area(points: np.ndarray) -> float:
    """Signed area of the polygon through *points* (shoelace formula).

    Positive for counter-clockwise orientation.  The first point does
    not need to be repeated at the end; a repeated closing point is
    handled correctly because its contribution is zero.
    """
    points = as_points(points)
    x, y = points[:, 0], points[:, 1]
    # np.roll(v, -1) by slicing, at a third of its cost: the same
    # products in the same order, so the same sum to the bit.
    y_next = np.concatenate((y[1:], y[:1]))
    x_next = np.concatenate((x[1:], x[:1]))
    return 0.5 * float(np.sum(x * y_next - x_next * y))


def is_clockwise(points: np.ndarray) -> bool:
    """True when the polygon through *points* is traversed clockwise."""
    return signed_polygon_area(points) < 0.0


def centroid(points: np.ndarray) -> np.ndarray:
    """Arithmetic mean of the points (not the area centroid)."""
    return as_points(points).mean(axis=0)


def bounding_box(points: np.ndarray) -> tuple:
    """``(min_xy, max_xy)`` corners of the axis-aligned bounding box."""
    points = as_points(points)
    return points.min(axis=0), points.max(axis=0)


def segments_intersect(p1, p2, q1, q2, *, tol: float = 1e-12) -> bool:
    """True if open segments ``p1-p2`` and ``q1-q2`` properly intersect.

    Shared endpoints do not count as an intersection, so consecutive
    polyline segments are never reported as intersecting.
    """
    p1 = np.asarray(p1, dtype=np.float64)
    p2 = np.asarray(p2, dtype=np.float64)
    q1 = np.asarray(q1, dtype=np.float64)
    q2 = np.asarray(q2, dtype=np.float64)
    r = p2 - p1
    s = q2 - q1
    denom = cross_z(r, s)
    if abs(denom) < tol:
        return False  # parallel or collinear: treated as non-crossing
    t = cross_z(q1 - p1, s) / denom
    u = cross_z(q1 - p1, r) / denom
    return tol < t < 1.0 - tol and tol < u < 1.0 - tol


def polyline_self_intersects(points: np.ndarray) -> bool:
    """True if any two non-adjacent segments of the polyline cross.

    Quadratic in the number of segments; intended for validation of
    airfoil outlines (a few hundred panels at most).
    """
    points = as_points(points)
    n = len(points) - 1
    closed = coincide(points[0], points[-1])
    for i in range(n):
        for j in range(i + 2, n):
            if closed and i == 0 and j == n - 1:
                continue  # first and last segment share the closing point
            if segments_intersect(points[i], points[i + 1], points[j], points[j + 1]):
                return True
    return False
