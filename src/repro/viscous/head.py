"""Head's entrainment method for the turbulent boundary layer.

Downstream of transition the laminar correlations no longer hold; the
paper notes that "more sophisticated schemes have been developed" — this
module implements the classic one (Head 1958, in the Cebeci–Bradshaw
formulation) as the library's optional turbulent extension:

    d theta / ds          = cf/2 - (H + 2) (theta / U) dU/ds
    d (U theta H1) / ds   = U F(H1)

with ``H1(H)`` and the entrainment function ``F`` from
:mod:`repro.viscous.correlations` and Ludwieg–Tillmann skin friction.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

import numpy as np

from repro.errors import ViscousError
from repro.viscous.correlations import (
    head_entrainment,
    head_h1,
    head_h_from_h1,
    ludwieg_tillmann_cf,
)
from repro.viscous.edge_velocity import SurfaceDistribution

# The march steps one station at a time, so it calls the float forms.
_cf = ludwieg_tillmann_cf.pyfunc
_h1 = head_h1.pyfunc
_h_from_h1 = head_h_from_h1.pyfunc
_entrainment = head_entrainment.pyfunc

#: Shape factor beyond which the turbulent layer is considered separated.
H_SEPARATION = 2.4


@dataclasses.dataclass(frozen=True)
class TurbulentResult:
    """Turbulent boundary-layer state from transition to the trailing edge."""

    surface: SurfaceDistribution
    start_index: int  # station where the turbulent integration began
    theta: np.ndarray  # momentum thickness on stations start_index..end
    shape_factor: np.ndarray
    cf: np.ndarray
    separation_index: Optional[int]  # station index (absolute) where H > 2.4

    @property
    def separated(self) -> bool:
        """True when the turbulent layer separated before the trailing edge."""
        return self.separation_index is not None

    @property
    def trailing_theta(self) -> float:
        """Momentum thickness at the trailing edge."""
        return float(self.theta[-1])

    @property
    def trailing_shape_factor(self) -> float:
        """Shape factor at the trailing edge."""
        return float(self.shape_factor[-1])


def solve_head(surface: SurfaceDistribution, nu: float, *, start_index: int,
               theta_start: float, h_start: float = 1.4) -> TurbulentResult:
    """Integrate Head's method from a station to the trailing edge.

    Parameters
    ----------
    surface:
        Edge conditions along the surface.
    nu:
        Kinematic viscosity.
    start_index:
        Station at which the turbulent layer starts (transition point).
    theta_start:
        Momentum thickness handed over from the laminar solution
        (momentum thickness is continuous across transition).
    h_start:
        Initial turbulent shape factor (a freshly transitioned layer is
        close to 1.4).
    """
    if nu <= 0.0:
        raise ViscousError(f"kinematic viscosity must be positive, got {nu}")
    if theta_start <= 0.0:
        raise ViscousError(f"theta at transition must be positive, got {theta_start}")
    if not 0 <= start_index < len(surface.s) - 1:
        raise ViscousError(
            f"start_index {start_index} out of range for {len(surface.s)} stations"
        )
    s = surface.s.tolist()
    u = surface.velocity.tolist()
    if min(u[start_index:]) <= 0.0:
        raise ViscousError(
            f"edge velocity must be positive past station {start_index}"
        )
    du_ds = np.gradient(surface.velocity, surface.s).tolist()
    nu = float(nu)

    def rates(i: int, th: float, h: float) -> tuple:
        """Right-hand sides d(theta)/ds and d(U theta H1)/ds at station i.

        Heun's step needs them only at stations, where interpolating U
        and dU/ds would return the grid values exactly.
        """
        ui = u[i]
        cf = _cf(h, max(ui * th / nu, 1.0))
        h1 = _h1(h)
        d_theta = 0.5 * cf - (h + 2.0) * th / ui * du_ds[i]
        return d_theta, ui * _entrainment(h1), cf, h1

    theta = [float(theta_start)]
    shape = [float(h_start)]
    cf_list = []
    separation_index: Optional[int] = None
    for i in range(start_index, len(s) - 1):
        ds = s[i + 1] - s[i]
        th, h = theta[-1], shape[-1]
        d_theta1, d_uth1_1, cf_here, h1 = rates(i, th, h)
        cf_list.append(cf_here)
        uth1 = u[i] * th * h1
        # Heun (RK2) step on (theta, U theta H1).
        th_pred = max(th + ds * d_theta1, 1e-12)
        uth1_pred = max(uth1 + ds * d_uth1_1, 1e-12)
        h_pred = _h_from_h1(uth1_pred / (u[i + 1] * th_pred))
        d_theta2, d_uth1_2, _, _ = rates(i + 1, th_pred, h_pred)
        th_new = max(th + 0.5 * ds * (d_theta1 + d_theta2), 1e-12)
        uth1_new = max(uth1 + 0.5 * ds * (d_uth1_1 + d_uth1_2), 1e-12)
        h_new = _h_from_h1(uth1_new / (u[i + 1] * th_new))
        theta.append(th_new)
        shape.append(h_new)
        if separation_index is None and h_new > H_SEPARATION:
            separation_index = i + 1
    cf_list.append(_cf(shape[-1], max(u[-1] * theta[-1] / nu, 1.0)))

    return TurbulentResult(
        surface=surface,
        start_index=start_index,
        theta=np.array(theta),
        shape_factor=np.array(shape),
        cf=np.array(cf_list),
        separation_index=separation_index,
    )
