"""Independent checks of the server's answers.

An ``/analyze`` answer is recomputed on a path that shares no assembly
kernel or solver with the server: the ``reference`` influence kernel and
LAPACK (``np.linalg.solve``), whose solve is accepted only when its
scaled residual is at machine-precision level.  ``cl``/``cm``/``cd``
must agree within :data:`RTOL`, so a server that changes its LU keeps
passing while a wrong answer does not.  A GA job is checked by its
history length, a finite champion, and re-scoring the champion genome
with :meth:`FitnessEvaluator.evaluate`.
"""

from __future__ import annotations

import json
import math
from typing import Optional

import numpy as np

from repro.core.api import AnalyzeRequest
from repro.jobs.model import JobSpec
from repro.linalg.analysis import relative_residual
from repro.panel.assembly import assemble
from repro.panel.solution import PanelSolution
from repro.viscous.drag import analyze_viscous

#: Relative agreement required between the server and the oracle.
RTOL = 1e-6
#: Absolute slack for coefficients that sit near zero.
ATOL = 1e-9
#: Largest scaled residual ``||Ax-b|| / (||A|| ||x|| + ||b||)`` accepted
#: from the oracle's own solve.
MAX_RESIDUAL = 1e-12


def strict_loads(body: bytes):
    """Parse JSON, rejecting NaN/Infinity tokens and ``"NaN"`` strings."""
    def reject(token):
        raise ValueError(f"non-finite number {token} in response")

    value = json.loads(body, parse_constant=reject)
    if _has_nan(value):
        raise ValueError("NaN in response")
    return value


def _has_nan(value) -> bool:
    if isinstance(value, dict):
        return any(_has_nan(item) for item in value.values())
    if isinstance(value, list):
        return any(_has_nan(item) for item in value)
    return value == "NaN"


def _close(got, want) -> bool:
    if want is None or got is None:
        return got is None and want is None
    return abs(got - want) <= RTOL * abs(want) + ATOL


def expected_analysis(payload: dict) -> dict:
    """The oracle's record for one ``/analyze`` payload."""
    request = AnalyzeRequest.from_dict(payload)
    airfoil, freestream = request.build_airfoil(), request.freestream()
    system = assemble(airfoil, freestream, kernel="reference")
    unknowns = np.linalg.solve(system.matrix, system.rhs)
    residual = relative_residual(system.matrix, unknowns, system.rhs)
    if residual > MAX_RESIDUAL:
        raise ValueError(f"oracle solve residual {residual:.2e} too large")
    gamma, constant = system.expand_solution(unknowns)
    solution = PanelSolution(airfoil=airfoil, freestream=freestream,
                             closure=system.closure, gamma=gamma,
                             constant=constant)
    record = {
        "airfoil": airfoil.name, "alpha_degrees": request.alpha_degrees,
        "n_panels": airfoil.n_panels, "precision": request.precision.value,
        "reynolds": request.reynolds, "use_head": request.use_head,
        "cl": solution.lift_coefficient, "cm": solution.moment_coefficient(),
        "cd": None, "lift_to_drag": None, "separated": None,
    }
    if request.reynolds is not None:
        viscous = analyze_viscous(solution, request.reynolds,
                                  use_head=request.use_head)
        record.update(cd=viscous.drag_coefficient,
                      lift_to_drag=viscous.lift_to_drag,
                      separated=viscous.separated)
    return record


def check_analysis(body: bytes, expected: dict) -> Optional[str]:
    """None when *body* matches the oracle's *expected* record, else why not."""
    try:
        got = strict_loads(body)
    except ValueError as error:
        return str(error)
    for field in ("airfoil", "alpha_degrees", "n_panels", "precision",
                  "reynolds", "use_head", "separated"):
        if got.get(field) != expected[field]:
            return f"{field}: got {got.get(field)!r}, want {expected[field]!r}"
    for field in ("cl", "cm", "cd", "lift_to_drag"):
        if not _close(got.get(field), expected[field]):
            return f"{field}: got {got.get(field)!r}, want {expected[field]!r}"
    return None


def check_job(spec: dict, body: bytes) -> Optional[str]:
    """None when a finished job's record is right, else why not."""
    try:
        record = strict_loads(body)
    except ValueError as error:
        return str(error)
    if record.get("state") != "DONE":
        return f"job ended {record.get('state')}: {record.get('error')}"
    result = record["result"]
    generations = spec["ga"]["generations"]
    if len(result["history"]["generations"]) != generations:
        return (f"history has {len(result['history']['generations'])} "
                f"generations, want {generations}")
    champion = result["champion"]
    if not isinstance(champion["fitness"], float) or \
            not math.isfinite(champion["fitness"]):
        return f"champion fitness {champion['fitness']!r} is not finite"
    evaluator = JobSpec.from_dict(spec).fitness_evaluator()
    rescored = evaluator.evaluate(np.asarray(champion["genome"])).fitness
    if not _close(champion["fitness"], rescored):
        return f"champion fitness {champion['fitness']!r}, re-scored {rescored!r}"
    return None
