"""Multi-element airfoils: several bodies in one panel solve.

High-lift systems (main element + flap, or slat + main) are the
classic application of 2-D panel codes beyond single sections.  The
stream-function formulation extends naturally: each body carries its
own vortex sheet and its own boundary constant ``C_k``, every control
point sees the influence of *all* panels, and each body contributes
one Kutta condition.  After eliminating the last strength of each body
(``gamma_last = -gamma_first``), the system is square:

    unknowns:  sum_k (n_k - 1) strengths  +  K constants
    equations: sum_k n_k control points   (one per panel)

Lift follows from the total circulation; per-element contributions
from each body's own sheet.
"""

from __future__ import annotations

import dataclasses
from typing import List, Sequence

import numpy as np

from repro.errors import PanelMethodError
from repro.geometry.airfoil import Airfoil
from repro.linalg import solve_stack
from repro.panel.freestream import Freestream
from repro.panel.influence import stream_influence_matrix, velocity_influence


@dataclasses.dataclass(frozen=True)
class MultiElementSolution:
    """Vortex strengths and constants for a multi-body configuration."""

    elements: List[Airfoil]
    freestream: Freestream
    gammas: List[np.ndarray]  # one strength array per element
    constants: List[float]  # one boundary constant per element

    @property
    def n_elements(self) -> int:
        """Number of bodies in the configuration."""
        return len(self.elements)

    def element_circulation(self, index: int) -> float:
        """Circulation of one element (clockwise-positive)."""
        return float(self.gammas[index] @ self.elements[index].panel_lengths)

    @property
    def total_circulation(self) -> float:
        """Sum of all element circulations."""
        return sum(self.element_circulation(i) for i in range(self.n_elements))

    def lift_coefficient(self, reference_chord: float = None) -> float:
        """System ``cl`` referenced to *reference_chord*.

        Defaults to the first (main) element's chord, the usual
        convention for high-lift polars.
        """
        chord = reference_chord or self.elements[0].chord
        return 2.0 * self.total_circulation / (self.freestream.speed * chord)

    def element_lift_coefficient(self, index: int,
                                 reference_chord: float = None) -> float:
        """One element's share of the lift."""
        chord = reference_chord or self.elements[0].chord
        return 2.0 * self.element_circulation(index) / (
            self.freestream.speed * chord
        )

    def stream_function_at(self, points) -> np.ndarray:
        """Total stream function at arbitrary field points."""
        points = np.asarray(points, dtype=np.float64)
        total = self.freestream.stream_function(points)
        for element, gamma in zip(self.elements, self.gammas):
            total = total + stream_influence_matrix(points, element) @ gamma
        return total

    def velocity_at(self, points) -> np.ndarray:
        """Total velocity at arbitrary field points."""
        points = np.asarray(points, dtype=np.float64)
        velocity = np.broadcast_to(
            self.freestream.velocity, (len(points), 2)
        ).copy()
        for element, gamma in zip(self.elements, self.gammas):
            influence = velocity_influence(points, element)
            velocity -= np.einsum("mpc,p->mc", influence, gamma)
        return velocity

    def boundary_residual(self) -> float:
        """Max deviation of each surface's stream function from its C."""
        worst = 0.0
        for element, constant in zip(self.elements, self.constants):
            surface = self.stream_function_at(element.control_points)
            worst = max(worst, float(np.max(np.abs(surface - constant))))
        return worst


def solve_multielement(elements: Sequence[Airfoil],
                       freestream: Freestream = None) -> MultiElementSolution:
    """Solve the coupled system for several non-overlapping bodies."""
    elements = list(elements)
    if not elements:
        raise PanelMethodError("need at least one element")
    freestream = freestream or Freestream()
    counts = [element.n_panels for element in elements]
    n_total = sum(counts)
    n_bodies = len(elements)
    size = n_total  # sum_k (n_k - 1) strengths + n_bodies constants

    # Raw influence of every body's panels at every control point:
    # A[j, i] = -F_i(c_j), control points stacked body by body.
    control = np.vstack([element.control_points for element in elements])
    blocks = [
        -stream_influence_matrix(control, element) for element in elements
    ]

    matrix = np.zeros((size, size))
    rhs = freestream.stream_function(control)

    column = 0
    for body, (element, block) in enumerate(zip(elements, blocks)):
        n = element.n_panels
        reduced = np.empty((n_total, n - 1))
        reduced[:, 0] = block[:, 0] - block[:, n - 1]  # Kutta elimination
        reduced[:, 1:] = block[:, 1:n - 1]
        matrix[:, column:column + n - 1] = reduced
        column += n - 1
    # Constant columns: C_k multiplies 1 on body k's control rows.
    row = 0
    for body, count in enumerate(counts):
        matrix[row:row + count, column + body] = 1.0
        row += count

    unknowns = solve_stack(matrix[None], rhs[None])[0]

    gammas: List[np.ndarray] = []
    cursor = 0
    for count in counts:
        strengths = np.empty(count)
        strengths[:-1] = unknowns[cursor:cursor + count - 1]
        strengths[-1] = -strengths[0]
        gammas.append(strengths)
        cursor += count - 1
    constants = [float(value) for value in unknowns[cursor:]]

    return MultiElementSolution(
        elements=elements,
        freestream=freestream,
        gammas=gammas,
        constants=constants,
    )
