"""High-level panel-method solver.

Ties together assembly (:mod:`repro.panel.assembly`) and the stacked
LAPACK solve (:func:`repro.linalg.solve_stack`) and returns a
:class:`~repro.panel.solution.PanelSolution`.  This is the "inner
solver" the paper's genetic optimizer calls thousands of times.
"""

from __future__ import annotations

import dataclasses
from typing import List, Sequence

import numpy as np

from repro.geometry.airfoil import Airfoil
from repro.linalg import solve_stack
from repro.panel.assembly import Closure, assemble_batch
from repro.panel.freestream import Freestream
from repro.panel.solution import PanelSolution
from repro.precision import Precision, PrecisionLike


@dataclasses.dataclass(frozen=True)
class PanelSolver:
    """Configurable 2-D vortex panel solver.

    Parameters
    ----------
    closure:
        System closure; the Kutta condition by default.
    precision:
        Arithmetic precision for assembly and solve (paper: both).
        Results are always post-processed in double precision.
    """

    closure: Closure = Closure.KUTTA
    precision: Precision = Precision.DOUBLE

    def __post_init__(self) -> None:
        object.__setattr__(self, "closure", Closure.parse(self.closure))
        object.__setattr__(self, "precision", Precision.parse(self.precision))

    @classmethod
    def with_precision(cls, precision: PrecisionLike, **kwargs) -> "PanelSolver":
        """Construct a solver accepting any precision spelling."""
        return cls(precision=Precision.parse(precision), **kwargs)

    def solve(self, airfoil: Airfoil, freestream: Freestream = None) -> PanelSolution:
        """Solve one airfoil/free-stream configuration (a stack of one,
        so the bits match the same airfoil inside any larger stack)."""
        return self.solve_batch([airfoil], freestream)[0]

    def solve_batch(self, airfoils: Sequence[Airfoil],
                    freestream: Freestream = None) -> List[PanelSolution]:
        """Solve many same-size configurations as one stack.

        This is the code path the hardware model's timing describes:
        assemble a stack of matrices, then LU-solve the stack with
        LAPACK.
        """
        freestream = freestream or Freestream()
        matrices, rhs, systems = assemble_batch(
            airfoils, freestream, closure=self.closure, dtype=self.precision.dtype
        )
        unknowns = solve_stack(matrices, rhs)
        solutions = []
        for system, row in zip(systems, unknowns):
            gamma, constant = system.expand_solution(row)
            solutions.append(PanelSolution(
                airfoil=system.airfoil,
                freestream=freestream,
                closure=self.closure,
                gamma=np.asarray(gamma, dtype=np.float64),
                constant=constant,
            ))
        return solutions


def solve_airfoil(airfoil: Airfoil, alpha_degrees: float = 0.0, *,
                  speed: float = 1.0, closure=Closure.KUTTA,
                  precision: PrecisionLike = Precision.DOUBLE) -> PanelSolution:
    """One-call convenience API: solve an airfoil at an angle of attack."""
    solver = PanelSolver(closure=Closure.parse(closure), precision=Precision.parse(precision))
    return solver.solve(airfoil, Freestream.from_degrees(alpha_degrees, speed=speed))
