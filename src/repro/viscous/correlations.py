"""Boundary-layer closure correlations.

Thwaites' single-parameter laminar correlations (in the Cebeci–
Bradshaw curve-fit form), the Ludwieg–Tillmann turbulent skin-friction
law, and the shape-factor relations used by Head's entrainment method.
"""

from __future__ import annotations

import functools

import numpy as np

from repro.errors import ViscousError

#: Thwaites' pressure-gradient parameter at laminar separation.
LAMBDA_SEPARATION = -0.09

#: Validity range of the Thwaites correlations.
LAMBDA_MAX = 0.25


def thwaites_l(lam):
    """Thwaites' shear correlation ``l(lambda)``.

    ``cf = 2 nu l / (U theta)``; Cebeci–Bradshaw two-branch fit.
    """
    lam = np.asarray(lam, dtype=np.float64)
    clipped = np.clip(lam, LAMBDA_SEPARATION, LAMBDA_MAX)
    positive = 0.22 + 1.57 * clipped - 1.8 * clipped**2
    negative = 0.22 + 1.402 * clipped + 0.018 * clipped / (0.107 + clipped)
    return np.where(clipped >= 0.0, positive, negative)


def thwaites_h(lam):
    """Thwaites' shape factor ``H(lambda)`` (Cebeci–Bradshaw fit)."""
    lam = np.asarray(lam, dtype=np.float64)
    clipped = np.clip(lam, LAMBDA_SEPARATION, LAMBDA_MAX)
    positive = 2.61 - 3.75 * clipped + 5.24 * clipped**2
    negative = 2.088 + 0.0731 / (0.14 + clipped)
    return np.where(clipped >= 0.0, positive, negative)


#: Head's correlations are defined once, on Python floats, because
#: Head's march (:mod:`repro.viscous.head`) evaluates them one station
#: at a time.  Each public name is the array form NumPy derives from
#: that definition; the float form is its ``pyfunc``.
_on_floats = functools.partial(np.vectorize, otypes=[float])


@_on_floats
def ludwieg_tillmann_cf(h: float, re_theta: float) -> float:
    """Turbulent skin-friction coefficient (Ludwieg–Tillmann).

    ``cf = 0.246 * 10^(-0.678 H) * Re_theta^(-0.268)``
    """
    if re_theta <= 0.0:
        raise ViscousError("Re_theta must be positive for Ludwieg-Tillmann")
    return 0.246 * 10.0 ** (-0.678 * h) * re_theta ** (-0.268)


@_on_floats
def head_h1(h: float) -> float:
    """Head's mass-flow shape factor ``H1(H)`` (Cebeci–Bradshaw fit)."""
    if h <= 1.6:
        return 3.3 + 0.8234 * max(h - 1.1, 1e-6) ** (-1.287)
    return 3.3 + 1.5501 * max(h - 0.6778, 1e-6) ** (-3.064)


#: Below this ``H1`` the fit has no laminar-plausible inverse.
_H1_FLOOR = 3.32
#: The branches of :func:`head_h1` meet at ``H = 1.6``.
_H1_AT_16 = 3.3 + 0.8234 * 0.5 ** (-1.287)


@_on_floats
def head_h_from_h1(h1: float) -> float:
    """Invert :func:`head_h1` (the fit's own closed-form inverse).

    The branch is picked by which one's ``H`` lands in its own validity
    region: ``H <= 1.6`` above ``H1(1.6)``, ``H > 1.6`` below it.
    """
    h1 = max(h1, _H1_FLOOR)
    if h1 >= _H1_AT_16:
        return 1.1 + (0.8234 / (h1 - 3.3)) ** (1.0 / 1.287)
    return 0.6778 + (1.5501 / (h1 - 3.3)) ** (1.0 / 3.064)


@_on_floats
def head_entrainment(h1: float) -> float:
    """Head's entrainment function ``F(H1) = 0.0306 (H1 - 3)^-0.6169``."""
    return 0.0306 * max(h1 - 3.0, 1e-3) ** (-0.6169)


def michel_transition_re_theta(re_s):
    """Michel's criterion: critical ``Re_theta`` at surface Reynolds ``Re_s``.

    Transition is predicted where the running ``Re_theta`` first exceeds
    ``1.174 (1 + 22400 / Re_s) Re_s^0.46``.
    """
    re_s = np.asarray(re_s, dtype=np.float64)
    safe = np.maximum(re_s, 1.0)
    return 1.174 * (1.0 + 22400.0 / safe) * safe**0.46
