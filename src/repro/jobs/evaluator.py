"""Batched generation evaluation through the shared serving path.

The serial GA loop scores a generation one
:meth:`~repro.optimize.fitness.FitnessEvaluator.evaluate` call at a
time.  :class:`BatchedGenerationEvaluator` is the drop-in replacement
(:attr:`repro.optimize.ga.GeneticOptimizer.evaluate_all`) that stacks
every feasible genome of a generation into one batch and routes it
through :func:`repro.core.api.solve_request_systems` — the same
stacked assembly and LAPACK solve the HTTP ``/analyze`` traffic uses,
sharded across threads when the generation is large enough.

**Bit-for-bit parity.**  LAPACK solves each member of a stack on its
own (with BLAS pinned to one thread), and the serial path evaluates
through :meth:`PanelSolver.solve_batch` as a stack of one, so a genome
scored here produces *exactly* the bytes it would produce serially:

* pre-solve feasibility/geometry failures come from the shared
  :meth:`FitnessEvaluator.build_airfoil`;
* the solve itself is ``assemble`` + :func:`repro.linalg.solve_stack`
  in both paths, and a matrix's factorization does not depend on its
  stackmates;
* post-solve classification (lift sign, viscous drag, ratios) is the
  shared :meth:`FitnessEvaluator.classify_solution`.

A singular matrix fails only its own genome: the solve path re-solves
a failed stack one system at a time.  That genome's
:class:`~repro.errors.LinalgError` names the airfoil, not the serial
loop's wording, so it is re-evaluated serially — a stack of one — and
gets exactly the record the serial loop would have produced.
"""

from __future__ import annotations

from typing import Callable, List, Optional

import numpy as np

from repro.core.api import AnalyzeRequest, solve_request_systems
from repro.errors import LinalgError
from repro.optimize.fitness import EvaluationRecord, FitnessEvaluator
from repro.panel.assembly import Closure
from repro.panel.solution import PanelSolution
from repro.precision import Precision


class BatchedGenerationEvaluator:
    """Evaluate whole GA generations through the batched solve path.

    Parameters
    ----------
    evaluator:
        The fitness evaluator whose semantics are reproduced.
    stage_hook:
        Optional ``(stage, start, end, count)`` callback receiving the
        solve path's assembly/solve stamps (fed into per-generation
        trace spans by the runner).
    """

    def __init__(self, evaluator: FitnessEvaluator, *,
                 stage_hook: Optional[Callable] = None) -> None:
        self.evaluator = evaluator
        self.stage_hook = stage_hook
        # The shared solve path assembles with the Kutta closure in
        # the request's precision; an evaluator configured differently
        # must keep the (equally correct) serial stack-of-one path.
        solver = evaluator.solver
        self.batchable = (solver.closure == Closure.KUTTA
                          and solver.precision == Precision.DOUBLE)

    def __call__(self, population) -> List[EvaluationRecord]:
        """One :class:`EvaluationRecord` per genome, in order."""
        if not self.batchable:
            return [self.evaluator.evaluate(genome) for genome in population]
        records: List[Optional[EvaluationRecord]] = [None] * len(population)
        pending = []  # (index, genome, request) for solvable candidates
        for index, genome in enumerate(population):
            airfoil, failed = self.evaluator.build_airfoil(genome)
            if failed is not None:
                records[index] = failed
                continue
            pending.append((index, genome, AnalyzeRequest(
                airfoil=airfoil,
                alpha_degrees=self.evaluator.alpha_degrees,
                reynolds=None,
                n_panels=airfoil.n_panels,
            )))
        if pending:
            solved = solve_request_systems(
                [request for _, _, request in pending],
                stage_hook=self.stage_hook,
            )
            for (index, genome, _request), entry in zip(pending, solved):
                records[index] = self._classify(genome, entry)
        return records

    def _classify(self, genome: np.ndarray, entry) -> EvaluationRecord:
        if isinstance(entry, LinalgError):
            # This genome's own singular system.  Retry serially — a
            # stack of one — so the record carries exactly the serial
            # loop's failure text.
            return self.evaluator.evaluate(genome)
        if isinstance(entry, BaseException):
            # Anything else (assembly/geometry faults past the
            # feasibility gate) would propagate out of the serial loop
            # too: keep that contract.
            raise entry
        solution = PanelSolution(
            airfoil=entry.airfoil,
            freestream=entry.freestream,
            closure=entry.closure,
            gamma=np.asarray(entry.gamma, dtype=np.float64),
            constant=entry.constant,
        )
        return self.evaluator.classify_solution(solution)
