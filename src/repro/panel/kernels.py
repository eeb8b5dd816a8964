"""Influence-coefficient kernels: reference and fused.

The paper's central measurement is that filling the influence matrix
dominates CPU time — per entry the closed-form panel integral costs
two ``log`` and two ``arctan2`` evaluations.  This module implements
that integral twice:

``reference``
    Straight-line NumPy written for readability: one array per named
    subexpression, exactly mirroring the derivation.  It is the
    *bit-parity oracle* the fused kernel is tested against.
``fused``
    The default.  Algebraically identical, but it exploits the panel
    structure: panel ``i``'s end point is panel ``i+1``'s start point,
    so the per-endpoint ``log |x - x_k|^2`` terms are computed once on
    the ``(points, n+1)`` endpoint grid and sliced twice (n+1 logs
    instead of 2n), and the two ``arctan2`` of the reference collapse
    into one via the subtended-angle identity (below).  Intermediate
    buffers are reused in place.  The elementwise operation sequence is
    kept identical to ``reference``, which is what makes the two
    kernels ``tobytes()``-identical in both precisions (NumPy ufuncs
    are value-deterministic: the same scalar inputs produce the same
    rounded outputs regardless of array shape or slicing).

Both the stream-function and the velocity kernels use the
**subtended-angle identity**: with ``p_s = <d_s, h>``,
``p_e = <d_e, h>`` and ``I = <d_s, h_perp>`` (the same for both
endpoints since ``<h_perp, h> = 0``),

    arctan2(I, p_e) - arctan2(I, p_s) = arctan2(I |h|^2, p_s p_e + I^2)

because ``p_s - p_e = |h|^2`` and the subtended angle always lies in
``(-pi, pi)``.  One ``arctan2`` replaces two, and the signed-zero
behaviour of ``arctan2`` keeps the on-panel principal values: for a
point on the panel interior ``I = +-0`` and ``p_s p_e < 0``, so the
identity returns ``+-pi`` exactly as the two-call difference does.  At
an exact endpoint every argument vanishes and the angle term is zero.

Every solve assembles with the default.  Only tests and benchmarks
name a kernel: the ``kernel=`` argument of
:func:`repro.panel.influence.stream_influence_matrix`,
:func:`repro.panel.influence.velocity_influence` and
:func:`repro.panel.assembly.assemble` selects ``reference`` for
comparison, and ``None`` means :data:`DEFAULT_KERNEL`.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro.errors import PanelMethodError
from repro.geometry import points as pt

#: Recognized kernel names, in documentation order.
KERNEL_NAMES = ("reference", "fused")

#: The kernel used when no ``kernel=`` argument is passed.
DEFAULT_KERNEL = "fused"


def resolve_kernel(kernel: Optional[str] = None) -> str:
    """Coerce a kernel selection to a validated name.

    ``None`` means :data:`DEFAULT_KERNEL`; anything else must be one of
    :data:`KERNEL_NAMES`.
    """
    if kernel is None:
        return DEFAULT_KERNEL
    name = str(kernel).strip().lower()
    if name not in KERNEL_NAMES:
        raise PanelMethodError(
            f"unknown assembly kernel {kernel!r}; "
            f"expected one of {', '.join(KERNEL_NAMES)}"
        )
    return name


def degenerate_floor(dtype) -> np.floating:
    """Smallest normal magnitude of *dtype* — the degeneracy threshold.

    Used both to mask ``log r^2`` (a squared distance below the floor
    means the point coincides with an endpoint at this precision) and
    to clamp panel-length denominators (a panel shorter than the floor
    has collapsed at this precision; its influence is zero, not NaN).
    """
    dtype = np.dtype(dtype)
    return np.finfo(dtype).tiny.astype(dtype)


def safe_log_sq(r_sq: np.ndarray, dtype) -> np.ndarray:
    """``log(r^2)`` with the convention ``0 * log(0) = 0``.

    At a panel endpoint the prefactor ``<x - x_k, h>`` vanishes, so
    replacing ``log(0)`` by zero yields the correct limit.  The guard
    is dtype-aware: any ``r_sq`` below the smallest *normal* value of
    *dtype* is treated as zero, because a subnormal squared distance
    means the point and the endpoint coincide at this precision and
    the huge-magnitude logarithm would otherwise poison the float32
    path (near-duplicate outline points collapse to exact duplicates
    when cast to single precision).
    """
    out = np.zeros_like(r_sq)
    positive = r_sq >= degenerate_floor(r_sq.dtype)
    np.log(r_sq, where=positive, out=out)
    return out.astype(dtype, copy=False)


# ----------------------------------------------------------------------
# Reference NumPy kernels (the bit-parity oracle)
# ----------------------------------------------------------------------
#
# NOTE: the ``fused`` kernels below perform the *same elementwise
# operation sequence* on the same values; any change here must be
# mirrored there or the tobytes() parity property test will fail.

def _reference_stream(points: np.ndarray, airfoil, dtype) -> np.ndarray:
    """Readable per-panel evaluation of the stream influence."""
    target = pt.as_points(points, dtype=dtype)
    start = np.asarray(airfoil.points[:-1], dtype=dtype)  # x_i
    end = np.asarray(airfoil.points[1:], dtype=dtype)  # x_{i+1}
    h = end - start
    h_perp = pt.perpendicular(h)
    h_len_sq = pt.dot(h, h)
    h_len = np.sqrt(h_len_sq)
    safe_len = np.maximum(h_len, degenerate_floor(dtype))

    # Broadcast to the (points, panels) grid.  Projections are spelled
    # as explicit component sums (not einsum) so signed zeros at exact
    # endpoints come out identical to the fused kernel's: einsum's
    # accumulator starts at +0.0 and turns (-0.0) + (-0.0) into +0.0,
    # which the two-operand sum does not.
    d_start = target[:, None, :] - start[None, :, :]  # x - x_i
    d_end = target[:, None, :] - end[None, :, :]  # x - x_{i+1}

    proj_start = (d_start[..., 0] * h[None, :, 0]
                  + d_start[..., 1] * h[None, :, 1])  # <x - x_i, h>
    proj_end = (d_end[..., 0] * h[None, :, 0]
                + d_end[..., 1] * h[None, :, 1])  # <x - x_{i+1}, h>
    normal = (d_start[..., 0] * h_perp[None, :, 0]
              + d_start[..., 1] * h_perp[None, :, 1])  # I

    r_start_sq = (d_start[..., 0] * d_start[..., 0]
                  + d_start[..., 1] * d_start[..., 1])
    r_end_sq = (d_end[..., 0] * d_end[..., 0]
                + d_end[..., 1] * d_end[..., 1])
    log_start = safe_log_sq(r_start_sq, dtype)
    log_end = safe_log_sq(r_end_sq, dtype)

    # Subtended-angle identity: one arctan2 for the angle difference.
    delta = np.arctan2(normal * h_len_sq,
                       proj_start * proj_end + normal * normal)

    bracket = (
        0.5 * (proj_start * log_start - proj_end * log_end)
        + normal * delta
        - h_len_sq[None, :]
    )
    two_pi = np.asarray(2.0 * np.pi, dtype=dtype)
    return (bracket / (two_pi * safe_len[None, :])).astype(dtype, copy=False)


def _reference_velocity(points: np.ndarray, airfoil, dtype) -> np.ndarray:
    """Readable per-panel evaluation of the velocity influence."""
    target = pt.as_points(points, dtype=dtype)
    start = np.asarray(airfoil.points[:-1], dtype=dtype)
    end = np.asarray(airfoil.points[1:], dtype=dtype)
    h = end - start
    h_len = np.sqrt(pt.dot(h, h))
    safe_len = np.maximum(h_len, degenerate_floor(dtype))
    tangent = h / safe_len[:, None]
    # Right-handed local frame: eta along the +90-degree rotation of the
    # tangent (the *inward* normal for CCW outlines).  A left-handed
    # frame would silently mirror the induced rotation direction.
    normal_dir = -pt.perpendicular(tangent)

    # Component-sum projections (see the note in _reference_stream on
    # why einsum would flip signed zeros at exact endpoints).
    d_start = target[:, None, :] - start[None, :, :]
    d_end = target[:, None, :] - end[None, :, :]
    xi_start = (d_start[..., 0] * tangent[None, :, 0]
                + d_start[..., 1] * tangent[None, :, 1])
    xi_end = (d_end[..., 0] * tangent[None, :, 0]
              + d_end[..., 1] * tangent[None, :, 1])
    eta = (d_start[..., 0] * normal_dir[None, :, 0]
           + d_start[..., 1] * normal_dir[None, :, 1])

    r_start_sq = (d_start[..., 0] * d_start[..., 0]
                  + d_start[..., 1] * d_start[..., 1])
    r_end_sq = (d_end[..., 0] * d_end[..., 0]
                + d_end[..., 1] * d_end[..., 1])
    log_ratio = 0.5 * (safe_log_sq(r_start_sq, dtype)
                       - safe_log_sq(r_end_sq, dtype))
    # theta_end - theta_start by the same subtended-angle identity
    # (xi_start - xi_end = |h|, the panel length, in the panel frame).
    delta = np.arctan2(eta * safe_len, xi_start * xi_end + eta * eta)

    two_pi = np.asarray(2.0 * np.pi, dtype=dtype)
    u_tangential = -delta / two_pi
    u_normal = log_ratio / two_pi
    velocity = (
        u_tangential[..., None] * tangent[None, :, :]
        + u_normal[..., None] * normal_dir[None, :, :]
    )
    return velocity.astype(dtype, copy=False)


# ----------------------------------------------------------------------
# Fused NumPy kernels (the default)
# ----------------------------------------------------------------------

def _fused_stream(points: np.ndarray, airfoil, dtype) -> np.ndarray:
    """Endpoint-sharing, buffer-reusing twin of :func:`_reference_stream`."""
    target = pt.as_points(points, dtype=dtype)
    outline = np.asarray(airfoil.points, dtype=dtype)
    h = outline[1:] - outline[:-1]
    h_len_sq = pt.dot(h, h)
    h_len = np.sqrt(h_len_sq)
    safe_len = np.maximum(h_len, degenerate_floor(dtype))

    # One (points, n+1) endpoint grid: panel i's end is panel i+1's
    # start, so every log is computed once and sliced twice.
    d = target[:, None, :] - outline[None, :, :]
    dx = d[..., 0]
    dy = d[..., 1]
    r_sq = dx * dx + dy * dy
    log_r = safe_log_sq(r_sq, dtype)

    dxs, dys = dx[:, :-1], dy[:, :-1]
    dxe, dye = dx[:, 1:], dy[:, 1:]
    hx, hy = h[:, 0], h[:, 1]
    proj_start = dxs * hx + dys * hy
    proj_end = dxe * hx + dye * hy
    normal = dxs * hy + dys * (-hx)  # <d_start, h_perp>, h_perp=(hy,-hx)

    delta = np.arctan2(normal * h_len_sq,
                       proj_start * proj_end + normal * normal)

    # In-place chain replaying the reference's elementwise op order:
    # 0.5*(ps*ls - pe*le) + I*delta - |h|^2.
    bracket = proj_start * log_r[:, :-1]
    bracket -= proj_end * log_r[:, 1:]
    bracket *= 0.5
    bracket += normal * delta
    bracket -= h_len_sq
    two_pi = np.asarray(2.0 * np.pi, dtype=dtype)
    bracket /= two_pi * safe_len[None, :]
    return bracket.astype(dtype, copy=False)


def _fused_velocity(points: np.ndarray, airfoil, dtype) -> np.ndarray:
    """Endpoint-sharing twin of :func:`_reference_velocity`."""
    target = pt.as_points(points, dtype=dtype)
    outline = np.asarray(airfoil.points, dtype=dtype)
    h = outline[1:] - outline[:-1]
    h_len = np.sqrt(pt.dot(h, h))
    safe_len = np.maximum(h_len, degenerate_floor(dtype))
    tangent = h / safe_len[:, None]
    normal_dir = -pt.perpendicular(tangent)

    d = target[:, None, :] - outline[None, :, :]
    dx = d[..., 0]
    dy = d[..., 1]
    r_sq = dx * dx + dy * dy
    log_r = safe_log_sq(r_sq, dtype)

    dxs, dys = dx[:, :-1], dy[:, :-1]
    dxe, dye = dx[:, 1:], dy[:, 1:]
    tx, ty = tangent[:, 0], tangent[:, 1]
    nx, ny = normal_dir[:, 0], normal_dir[:, 1]
    xi_start = dxs * tx + dys * ty
    xi_end = dxe * tx + dye * ty
    eta = dxs * nx + dys * ny

    log_ratio = 0.5 * (log_r[:, :-1] - log_r[:, 1:])
    delta = np.arctan2(eta * safe_len, xi_start * xi_end + eta * eta)

    two_pi = np.asarray(2.0 * np.pi, dtype=dtype)
    u_tangential = -delta / two_pi
    u_normal = log_ratio / two_pi
    velocity = (
        u_tangential[..., None] * tangent[None, :, :]
        + u_normal[..., None] * normal_dir[None, :, :]
    )
    return velocity.astype(dtype, copy=False)


# ----------------------------------------------------------------------
# Dispatch
# ----------------------------------------------------------------------

_STREAM_KERNELS = {
    "reference": _reference_stream,
    "fused": _fused_stream,
}

_VELOCITY_KERNELS = {
    "reference": _reference_velocity,
    "fused": _fused_velocity,
}


def stream_function_for(kernel: Optional[str] = None) -> Callable:
    """The stream-influence implementation for a kernel selection."""
    return _STREAM_KERNELS[resolve_kernel(kernel)]


def velocity_function_for(kernel: Optional[str] = None) -> Callable:
    """The velocity-influence implementation for a kernel selection."""
    return _VELOCITY_KERNELS[resolve_kernel(kernel)]
