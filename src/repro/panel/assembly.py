"""Assembly of the panel-method linear system.

The boundary condition ``phi|_{dOmega} = C`` is enforced at the panel
midpoints, giving (paper, Sec. 2)

    sum_i A_ji gamma_i + C = phi_v(x_{j+1/2}),    A_ji = -F_i(x_{j+1/2})

supplemented by the Kutta condition ``gamma_0 = -gamma_{n-1}``.  As in
the paper, ``gamma_{n-1}`` is eliminated, leaving the square ``n x n``
system in the unknowns ``gamma_0 .. gamma_{n-2}, C``.

A zero-circulation closure (``sum_i gamma_i |h_i| = 0``) is also
provided: it represents non-lifting flow and is what analytic
validation against the circular cylinder requires.
"""

from __future__ import annotations

import dataclasses
import enum

import numpy as np

from repro.errors import PanelMethodError
from repro.geometry.airfoil import Airfoil
from repro.panel.freestream import Freestream
from repro.panel.influence import stream_influence_matrix


class Closure(enum.Enum):
    """How the underdetermined system is closed."""

    #: The paper's closure: ``gamma_0 = -gamma_{n-1}`` (lifting flow,
    #: smooth flow off the trailing edge).
    KUTTA = "kutta"
    #: Zero total circulation (non-lifting flow; for validation).
    ZERO_CIRCULATION = "zero-circulation"

    @classmethod
    def parse(cls, value) -> "Closure":
        """Accept a member or its string value."""
        if isinstance(value, cls):
            return value
        try:
            return cls(str(value).strip().lower())
        except ValueError:
            names = ", ".join(member.value for member in cls)
            raise PanelMethodError(f"unknown closure {value!r}; expected one of {names}")


@dataclasses.dataclass(frozen=True)
class PanelSystem:
    """The assembled linear system for one airfoil and free stream.

    Attributes
    ----------
    matrix, rhs:
        The square system ``matrix @ unknowns = rhs``.
    airfoil, freestream, closure:
        The inputs, kept so the solution can be post-processed.
    influence:
        The raw ``(n, n)`` influence matrix ``A_ji`` (before closure),
        retained for diagnostics and velocity reconstruction.
    """

    matrix: np.ndarray
    rhs: np.ndarray
    airfoil: Airfoil
    freestream: Freestream
    closure: Closure
    influence: np.ndarray

    @property
    def n_unknowns(self) -> int:
        """Dimension of the square system."""
        return self.matrix.shape[0]

    def expand_solution(self, unknowns: np.ndarray) -> tuple:
        """Recover ``(gamma, C)`` for all ``n`` panels from the unknowns.

        For the Kutta closure the eliminated ``gamma_{n-1} = -gamma_0``
        is reinstated; for the zero-circulation closure the unknown
        vector already holds every strength.
        """
        unknowns = np.asarray(unknowns)
        constant = float(unknowns[-1])
        if self.closure is Closure.KUTTA:
            gamma = np.empty(self.airfoil.n_panels, dtype=unknowns.dtype)
            gamma[:-1] = unknowns[:-1]
            gamma[-1] = -unknowns[0]
        else:
            gamma = unknowns[:-1].copy()
        return gamma, constant


def influence_matrix(airfoil: Airfoil, *, dtype=np.float64,
                     kernel=None) -> np.ndarray:
    """The ``A_ji = -F_i(x_{j+1/2})`` matrix at the control points."""
    a = stream_influence_matrix(airfoil.control_points, airfoil,
                                dtype=dtype, kernel=kernel)
    return np.negative(a, out=a)


def assemble(airfoil: Airfoil, freestream: Freestream, *,
             closure=Closure.KUTTA, dtype=np.float64,
             kernel=None) -> PanelSystem:
    """Assemble the closed square system for one configuration.

    For the Kutta closure the system is ``n x n`` in
    ``gamma_0 .. gamma_{n-2}, C`` (one unknown per panel after the
    trailing-edge elimination, plus the boundary constant).  For the
    zero-circulation closure it is ``(n+1) x (n+1)`` with the
    circulation constraint appended as an extra row.

    *kernel* selects the influence-matrix implementation (see
    :mod:`repro.panel.kernels`); the right-hand side is computed
    natively in *dtype* — no float64 detour on the float32 path.
    """
    closure = Closure.parse(closure)
    dtype = np.dtype(dtype)
    n = airfoil.n_panels
    a = influence_matrix(airfoil, dtype=dtype, kernel=kernel)
    rhs_bc = freestream.stream_function(airfoil.control_points, dtype=dtype)

    if closure is Closure.KUTTA:
        matrix = np.empty((n, n), dtype=dtype)
        matrix[:, 0] = a[:, 0] - a[:, n - 1]  # gamma_{n-1} = -gamma_0 folded in
        matrix[:, 1:n - 1] = a[:, 1:n - 1]
        matrix[:, n - 1] = 1.0  # coefficient of the boundary constant C
        rhs = rhs_bc
    else:
        matrix = np.zeros((n + 1, n + 1), dtype=dtype)
        matrix[:n, :n] = a
        matrix[:n, n] = 1.0
        matrix[n, :n] = airfoil.panel_lengths.astype(dtype)  # total circulation
        rhs = np.concatenate([rhs_bc, np.zeros(1, dtype=dtype)])

    return PanelSystem(
        matrix=matrix,
        rhs=rhs,
        airfoil=airfoil,
        freestream=freestream,
        closure=closure,
        influence=a,
    )


def assemble_batch(airfoils, freestream: Freestream, *,
                   closure=Closure.KUTTA, dtype=np.float64) -> tuple:
    """Assemble many same-size systems into contiguous stacks.

    Returns ``(matrices, rhs, systems)`` where ``matrices`` has shape
    ``(batch, m, m)`` and ``rhs`` has shape ``(batch, m)`` — the memory
    layout the batched LU kernels (and the hardware model's transfer
    size accounting) operate on.  All airfoils must share a panel count.
    """
    airfoils = list(airfoils)
    if not airfoils:
        raise PanelMethodError("assemble_batch needs at least one airfoil")
    n = airfoils[0].n_panels
    for foil in airfoils[1:]:
        if foil.n_panels != n:
            raise PanelMethodError(
                "all airfoils in a batch must share the same panel count; "
                f"got {foil.n_panels} != {n}"
            )
    systems = [
        assemble(foil, freestream, closure=closure, dtype=dtype)
        for foil in airfoils
    ]
    matrices = np.stack([system.matrix for system in systems])
    rhs = np.stack([system.rhs for system in systems])
    return matrices, rhs, systems
