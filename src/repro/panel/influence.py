"""Influence coefficients of constant-strength vortex panels.

Implements the closed-form panel integral of the paper (Section 2):
the stream function at ``x`` induced by a unit-strength vortex sheet on
the straight panel from ``x_i`` to ``x_{i+1}`` is

    F_i(x) = 1 / (2 pi |h_i|) * [
          1/2 <x - x_i,     h_i> log |x - x_i|^2
        - 1/2 <x - x_{i+1}, h_i> log |x - x_{i+1}|^2
        - I arctan2(I, <x - x_i,     h_i>)
        + I arctan2(I, <x - x_{i+1}, h_i>)
        - |h_i|^2 ]

with ``h_i = x_{i+1} - x_i`` and ``I = <h_i_perp, x - x_i>``.  The
velocity influence (needed for off-body flow evaluation) follows from
the same integral differentiated analytically.

This assembly is the paper's "expensive" kernel: per matrix entry the
formula above costs two logarithms and two ``arctan2`` calls, which is
why the accelerators beat the CPU at it.  The implementations live in
:mod:`repro.panel.kernels` — the ``fused`` kernel every solve uses
(it shares the per-endpoint logarithms between adjacent panels and
collapses the ``arctan2`` difference into one call via the
subtended-angle identity), and the readable ``reference`` kernel that
tests and benchmarks select with ``kernel="reference"``.

Flop accounting for the hardware model lives in
:func:`assembly_flops_per_entry`.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.geometry.airfoil import Airfoil
from repro.panel import kernels

# Re-exported for the Hess-Smith solver, which evaluates the same
# guarded logarithm on its source-panel grids.
_safe_log_sq = kernels.safe_log_sq

#: Effective floating-point work per matrix entry, used by the hardware
#: cost model.  Counts the polynomial arithmetic (~30 flops) plus two
#: ``log`` and two ``arctan2`` evaluations at a conventional 25
#: flop-equivalents each (vectorized transcendental cost on the
#: architectures of the paper).  This is the *paper's* kernel cost —
#: the model constant is kept even though the fused kernel evaluates
#: roughly half as many transcendentals, because the hardware tables
#: reproduce the paper's accounting, not ours.
ASSEMBLY_FLOPS_PER_ENTRY = 130


def assembly_flops_per_entry() -> int:
    """Effective flops per influence-matrix entry (model constant)."""
    return ASSEMBLY_FLOPS_PER_ENTRY


def assembly_flops(n_points: int, n_panels: int) -> int:
    """Effective flops to fill an ``n_points x n_panels`` influence block."""
    return n_points * n_panels * ASSEMBLY_FLOPS_PER_ENTRY


def stream_influence_matrix(points: np.ndarray, airfoil: Airfoil, *,
                            dtype=np.float64,
                            kernel: Optional[str] = None) -> np.ndarray:
    """Stream-function influence of every panel at every point.

    Returns ``F`` of shape ``(len(points), n_panels)`` where
    ``F[j, i]`` is the stream function at ``points[j]`` induced by panel
    ``i`` carrying unit vortex strength.

    The computation is fully vectorized over the ``points x panels``
    grid; *dtype* selects single or double precision (the paper runs
    both) and the computation stays in that dtype end to end.
    *kernel* picks the implementation (``reference`` / ``fused``;
    ``None`` means ``fused``) — see :mod:`repro.panel.kernels` and
    ``docs/kernels.md`` for the parity guarantee between them.
    """
    return kernels.stream_function_for(kernel)(points, airfoil,
                                               np.dtype(dtype))


def velocity_influence(points: np.ndarray, airfoil: Airfoil, *,
                       dtype=np.float64,
                       kernel: Optional[str] = None) -> np.ndarray:
    """Velocity influence of every panel at every point.

    Returns an array of shape ``(len(points), n_panels, 2)`` whose entry
    ``[j, i]`` is the velocity at ``points[j]`` induced by panel ``i``
    carrying unit vortex strength.  Derived analytically from the same
    panel integral as :func:`stream_influence_matrix`: in the panel
    frame (``xi`` along the panel, ``eta`` normal) a unit sheet induces

        u_xi  = -(theta_2 - theta_1) / (2 pi)
        u_eta =  log(r_1 / r_2) / (2 pi)

    where ``theta_k = arctan2(eta, xi - xi_k)``.  Points exactly on a
    panel see the principal-value tangential velocity (``+-1/2``
    depending on the side the signed zero of ``eta`` remembers); at an
    exact panel endpoint both the angle and the log terms vanish, so
    the panel's own contribution is zero.  *kernel* selects the
    implementation exactly as in :func:`stream_influence_matrix`.
    """
    return kernels.velocity_function_for(kernel)(points, airfoil,
                                                 np.dtype(dtype))
