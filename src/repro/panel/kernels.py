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
    into one via the subtended-angle identity (below).  The grid is
    walked in row tiles of :data:`TILE_BYTES` per plane, with the
    endpoint offsets held as contiguous ``dx`` and ``dy`` planes and
    every tile reusing the same few scratch planes, so a call touches
    a cache-sized working set instead of full-grid temporaries.  The
    elementwise operation sequence is kept identical to ``reference``,
    which is what makes the two kernels ``tobytes()``-identical in both
    precisions (NumPy ufuncs are value-deterministic: the same scalar
    inputs produce the same rounded outputs regardless of array shape
    or slicing).

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


def safe_log_sq(r_sq: np.ndarray, dtype,
                out: Optional[np.ndarray] = None) -> np.ndarray:
    """``log(r^2)`` with the convention ``0 * log(0) = 0``.

    At a panel endpoint the prefactor ``<x - x_k, h>`` vanishes, so
    replacing ``log(0)`` by zero yields the correct limit.  The guard
    is dtype-aware: any ``r_sq`` below the smallest *normal* value of
    *dtype* is treated as zero, because a subnormal squared distance
    means the point and the endpoint coincide at this precision and
    the huge-magnitude logarithm would otherwise poison the float32
    path (near-duplicate outline points collapse to exact duplicates
    when cast to single precision).

    *out*, when given, is a buffer of ``r_sq``'s shape and dtype that
    receives the result; it is zeroed first, so an entry the guard
    masks off never keeps the buffer's previous value.
    """
    positive = r_sq >= degenerate_floor(r_sq.dtype)
    if out is None:
        out = np.zeros_like(r_sq)
    else:
        out.fill(0)
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

#: Bytes in one tile plane.  The fused kernels walk the target points in
#: row tiles whose ``(rows, n+1)`` planes hold about this many bytes, so a
#: tile's working set stays in L2 and every plane stays well under
#: glibc's default 128 KiB mmap threshold: the scratch comes from heap
#: memory the previous call freed, not from freshly faulted pages.
TILE_BYTES = 64 * 1024


def _endpoint_tiles(target: np.ndarray, outline: np.ndarray):
    """Walk the ``(points, n+1)`` endpoint grid one row tile at a time.

    Yields ``(rows, dx, dy, log_r_sq, scratch)`` per tile: ``rows`` is
    the slice of *target* the tile covers, ``dx`` and ``dy`` are the
    contiguous ``(m, n+1)`` planes of ``x - x_k`` for every outline point
    ``x_k``, ``log_r_sq`` is their guarded ``log |x - x_k|^2``, and
    ``scratch`` holds five ``(m, n)`` planes for the caller to
    overwrite.  The planes are allocated once per call, one allocation
    each, and overwritten tile after tile, so nothing yielded outlives
    the next step of the walk.
    """
    dtype = outline.dtype
    n_points, width = len(target), len(outline)
    step = max(1, min(n_points, TILE_BYTES // (width * dtype.itemsize)))
    dx_plane, dy_plane, r_sq_plane, log_plane = (
        np.empty((step, width), dtype) for _ in range(4))
    panel = [np.empty((step, width - 1), dtype) for _ in range(5)]
    ox, oy = np.ascontiguousarray(outline.T)
    for start in range(0, n_points, step):
        rows = slice(start, min(start + step, n_points))
        m = rows.stop - start
        dx, dy, r_sq, log_r = (dx_plane[:m], dy_plane[:m], r_sq_plane[:m],
                               log_plane[:m])
        np.subtract(target[rows, 0, None], ox, out=dx)
        np.subtract(target[rows, 1, None], oy, out=dy)
        np.multiply(dx, dx, out=r_sq)
        np.multiply(dy, dy, out=log_r)
        r_sq += log_r
        safe_log_sq(r_sq, dtype, out=log_r)
        yield rows, dx, dy, log_r, [plane[:m] for plane in panel]


def _fused_stream(points: np.ndarray, airfoil, dtype) -> np.ndarray:
    """Endpoint-sharing, row-tiled twin of :func:`_reference_stream`."""
    target = pt.as_points(points, dtype=dtype)
    outline = np.asarray(airfoil.points, dtype=dtype)
    h = outline[1:] - outline[:-1]
    h_len_sq = pt.dot(h, h)
    h_len = np.sqrt(h_len_sq)
    safe_len = np.maximum(h_len, degenerate_floor(dtype))
    hx, hy = np.ascontiguousarray(h.T)
    minus_hx = -hx  # h_perp = (hy, -hx)
    two_pi = np.asarray(2.0 * np.pi, dtype=dtype)
    scale = two_pi * safe_len

    out = np.empty((len(target), len(h)), dtype=dtype)
    for rows, dx, dy, log_r, scratch in _endpoint_tiles(target, outline):
        proj_start, proj_end, normal, a, b = scratch
        dxs, dys, dxe, dye = dx[:, :-1], dy[:, :-1], dx[:, 1:], dy[:, 1:]
        np.multiply(dxs, hx, out=proj_start)
        proj_start += np.multiply(dys, hy, out=a)
        np.multiply(dxe, hx, out=proj_end)
        proj_end += np.multiply(dye, hy, out=a)
        np.multiply(dxs, hy, out=normal)
        normal += np.multiply(dys, minus_hx, out=a)

        # The reference's elementwise order, with the arctan2 arguments
        # taken before proj_start and proj_end turn into the bracket:
        # 0.5*(ps*ls - pe*le) + I*delta - |h|^2,
        # delta = arctan2(I*|h|^2, ps*pe + I*I).
        np.multiply(proj_start, proj_end, out=a)
        a += np.multiply(normal, normal, out=b)
        np.multiply(normal, h_len_sq, out=b)
        proj_start *= log_r[:, :-1]
        proj_end *= log_r[:, 1:]
        proj_start -= proj_end
        proj_start *= 0.5
        delta = np.arctan2(b, a, out=proj_end)
        proj_start += np.multiply(normal, delta, out=a)
        proj_start -= h_len_sq
        np.divide(proj_start, scale, out=out[rows])
    return out


def _fused_velocity(points: np.ndarray, airfoil, dtype) -> np.ndarray:
    """Endpoint-sharing, row-tiled twin of :func:`_reference_velocity`."""
    target = pt.as_points(points, dtype=dtype)
    outline = np.asarray(airfoil.points, dtype=dtype)
    h = outline[1:] - outline[:-1]
    h_len = np.sqrt(pt.dot(h, h))
    safe_len = np.maximum(h_len, degenerate_floor(dtype))
    tangent = h / safe_len[:, None]
    normal_dir = -pt.perpendicular(tangent)
    tx, ty = np.ascontiguousarray(tangent.T)
    nx, ny = np.ascontiguousarray(normal_dir.T)
    two_pi = np.asarray(2.0 * np.pi, dtype=dtype)

    out = np.empty((len(target), len(h), 2), dtype=dtype)
    for rows, dx, dy, log_r, scratch in _endpoint_tiles(target, outline):
        xi_start, xi_end, eta, a, b = scratch
        dxs, dys, dxe, dye = dx[:, :-1], dy[:, :-1], dx[:, 1:], dy[:, 1:]
        np.multiply(dxs, tx, out=xi_start)
        xi_start += np.multiply(dys, ty, out=a)
        np.multiply(dxe, tx, out=xi_end)
        xi_end += np.multiply(dye, ty, out=a)
        np.multiply(dxs, nx, out=eta)
        eta += np.multiply(dys, ny, out=a)

        # delta = arctan2(eta*|h|, xi_s*xi_e + eta*eta); the tangential
        # part is -delta / 2pi and the normal part 0.5*(ls - le) / 2pi.
        xi_start *= xi_end
        xi_start += np.multiply(eta, eta, out=a)
        np.multiply(eta, safe_len, out=a)
        u_tangential = np.arctan2(a, xi_start, out=b)
        np.negative(u_tangential, out=u_tangential)
        u_tangential /= two_pi
        u_normal = np.subtract(log_r[:, :-1], log_r[:, 1:], out=a)
        u_normal *= 0.5
        u_normal /= two_pi
        for axis, (t_axis, n_axis) in enumerate(((tx, nx), (ty, ny))):
            np.add(np.multiply(u_tangential, t_axis, out=xi_start),
                   np.multiply(u_normal, n_axis, out=xi_end),
                   out=out[rows, :, axis])
    return out


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
