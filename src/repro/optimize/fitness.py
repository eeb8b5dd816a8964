"""Fitness evaluation: lift-to-drag ratio at zero angle of attack.

The paper's fitness function "is proportional to the lift-to-drag ratio
at zero angle of attack".  Each evaluation is one full inner-solver
pass: discretize the B-spline candidate, assemble and solve the panel
system, run the viscous correction, and read off ``cl / cd``.
Infeasible or failed candidates receive ``-inf``.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Optional

import numpy as np

from repro.errors import GeometryError, LinalgError, ViscousError
from repro.optimize.genome import GenomeLayout
from repro.panel.freestream import Freestream
from repro.panel.solver import PanelSolver
from repro.viscous.drag import analyze_viscous

#: Fitness assigned to candidates that cannot be evaluated.
INFEASIBLE_FITNESS = -math.inf


@dataclasses.dataclass(frozen=True)
class EvaluationRecord:
    """Everything learned about one candidate."""

    fitness: float
    cl: Optional[float] = None
    cd: Optional[float] = None
    failure: Optional[str] = None

    @property
    def feasible(self) -> bool:
        """True when the candidate produced a finite fitness."""
        return math.isfinite(self.fitness)


@dataclasses.dataclass(frozen=True)
class FitnessEvaluator:
    """Configured lift-to-drag evaluator.

    Parameters
    ----------
    layout:
        Genome interpretation (coefficient counts, bounds, degree).
    n_panels:
        Discretization of each candidate (the paper uses 200).
    reynolds:
        Chord Reynolds number of the viscous correction.
    alpha_degrees:
        Angle of attack of the evaluation (the paper uses zero).
    min_thickness:
        Feasibility floor on the candidate's interior thickness.
    use_head:
        Continue the boundary layer turbulently past transition.
    """

    layout: GenomeLayout
    n_panels: int = 200
    reynolds: float = 5e5
    alpha_degrees: float = 0.0
    min_thickness: float = 0.01
    use_head: bool = True
    solver: PanelSolver = dataclasses.field(default_factory=PanelSolver)

    def build_airfoil(self, genome: np.ndarray):
        """Discretize one genome, or return the failed record instead.

        Returns ``(airfoil, None)`` for a feasible candidate and
        ``(None, record)`` when the genome fails before the solve.  The
        split lets the jobs subsystem collect a generation's airfoils
        into one stacked batch while keeping the exact pre-solve
        semantics of :meth:`evaluate`.
        """
        parametrization = self.layout.to_parametrization(genome)
        if not parametrization.is_feasible(min_thickness=self.min_thickness):
            return None, EvaluationRecord(
                INFEASIBLE_FITNESS, failure="thin or crossed section"
            )
        try:
            return parametrization.to_airfoil(self.n_panels), None
        except GeometryError as error:
            return None, EvaluationRecord(
                INFEASIBLE_FITNESS, failure=f"geometry: {error}"
            )

    def classify_solution(self, solution) -> EvaluationRecord:
        """Turn one solved panel system into its evaluation record.

        Shared between the serial path and the batched generation
        evaluator so both classify identically (bit-for-bit).
        """
        cl = solution.lift_coefficient
        if cl <= 0.0:
            # Negative lift at the design point: valid geometry, hopeless
            # candidate.  Rank it below every lifting candidate but above
            # the infeasible ones.
            return EvaluationRecord(cl, cl=cl, failure="non-positive lift")
        try:
            viscous = analyze_viscous(solution, self.reynolds, use_head=self.use_head)
            cd = viscous.drag_coefficient
        except ViscousError as error:
            return EvaluationRecord(INFEASIBLE_FITNESS, cl=cl,
                                    failure=f"boundary layer: {error}")
        if cd <= 0.0:
            return EvaluationRecord(INFEASIBLE_FITNESS, cl=cl, cd=cd,
                                    failure="non-positive drag")
        return EvaluationRecord(cl / cd, cl=cl, cd=cd)

    def evaluate(self, genome: np.ndarray) -> EvaluationRecord:
        """Score one genome, returning the full record.

        The solve runs through :meth:`PanelSolver.solve_batch` as a
        stack of one: LAPACK solves each member of a stack on its own,
        so this produces the same bits as a genome evaluated in the
        middle of a full-generation batch — the invariant the jobs
        subsystem's batched evaluator relies on.
        """
        airfoil, failed = self.build_airfoil(genome)
        if failed is not None:
            return failed
        freestream = Freestream.from_degrees(self.alpha_degrees)
        try:
            solution = self.solver.solve_batch([airfoil], freestream)[0]
        except LinalgError as error:
            return EvaluationRecord(INFEASIBLE_FITNESS, failure=f"solve: {error}")
        return self.classify_solution(solution)

    def __call__(self, genome: np.ndarray) -> float:
        """Score one genome, returning only the fitness value."""
        return self.evaluate(genome).fitness
