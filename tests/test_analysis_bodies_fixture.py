"""Recorded analysis bodies: the viscous pass must not drift.

``tests/data/analysis_bodies.json`` holds the canonical response bodies
of a seeded request mix — NACA 4- and 5-digit sections by designation,
B-spline sections passed as :class:`Airfoil` objects, n 40–300,
Re 1e5–5e6, alpha −4 to 12 degrees, Head's method on and off — with
each surface's transition and separation indices.  perfbench's oracle
recomputes cd through the same ``analyze_viscous``, so it cannot see a
change in the boundary-layer arithmetic; this fixture can.

Every float must stay within :data:`MAX_ULPS` units in the last place of
the recording, and every index, flag and error must be equal.  Bodies
are not compared byte for byte because the recording depends on the
host: NumPy's SIMD ``power`` and libm's ``pow`` (Python's ``**``) may
round the same power 1 ulp apart.

Record the file again with ``PYTHONPATH=src python -m
tests.test_analysis_bodies_fixture`` only when a change is *meant* to
alter the numbers, and say so in the change's notes.
"""

import json
import math
import os

import numpy as np
import pytest

from repro.core.api import (
    AnalyzeRequest,
    canonical_json,
    evaluate_requests,
    serialize_analysis,
)
from repro.optimize import GenomeLayout

FIXTURE = os.path.join(os.path.dirname(__file__), "data", "analysis_bodies.json")

#: Seed of the request mix and its size.
SEED = 1511
N_REQUESTS = 400

#: Largest allowed distance from the recording, in units in the last place.
MAX_ULPS = 4

FIVE_DIGIT_CODES = ("210", "220", "230", "240", "250")


def _designation(rng: np.random.Generator) -> str:
    thickness = int(rng.integers(6, 22))
    if rng.random() < 0.3:
        code = FIVE_DIGIT_CODES[int(rng.integers(len(FIVE_DIGIT_CODES)))]
        return f"{code}{thickness:02d}"
    camber = int(rng.integers(0, 7))
    position = int(rng.integers(1, 8))
    return f"{camber}{position}{thickness:02d}"


def _bspline_airfoil(rng: np.random.Generator, layout: GenomeLayout,
                     n_panels: int):
    while True:
        section = layout.to_parametrization(layout.random_genome(rng))
        if section.is_feasible(min_thickness=0.01):
            return section.to_airfoil(n_panels)


def request_mix():
    """The seeded requests whose bodies the fixture records."""
    rng = np.random.default_rng(SEED)
    layout = GenomeLayout()
    requests = []
    for index in range(N_REQUESTS):
        n_panels = 2 * int(rng.integers(20, 151))
        if index % 4 == 3:
            airfoil = _bspline_airfoil(rng, layout, n_panels)
        else:
            airfoil = _designation(rng)
        requests.append(AnalyzeRequest(
            airfoil=airfoil,
            alpha_degrees=float(rng.uniform(-4.0, 12.0)),
            reynolds=float(10.0 ** rng.uniform(5.0, math.log10(5e6))),
            n_panels=n_panels,
            use_head=bool(rng.random() < 0.75),
        ))
    return requests


def _surface_indices(surface) -> dict:
    turbulent = surface.turbulent
    return {
        "transition": surface.laminar.transition_index,
        "laminar_separation": surface.laminar.separation_index,
        "head_start": None if turbulent is None else turbulent.start_index,
        "turbulent_separation": (None if turbulent is None
                                 else turbulent.separation_index),
    }


def record(request, outcome) -> dict:
    """One request's body and boundary-layer indices (or its error)."""
    if isinstance(outcome, Exception):
        return {"error": type(outcome).__name__, "message": str(outcome)}
    return {
        "body": canonical_json(serialize_analysis(request, outcome)),
        "upper": _surface_indices(outcome.viscous.upper),
        "lower": _surface_indices(outcome.viscous.lower),
    }


def current_records():
    requests = request_mix()
    return [record(request, outcome) for request, outcome
            in zip(requests, evaluate_requests(requests))]


def ulps_apart(actual: float, expected: float) -> float:
    """``|actual - expected|`` in units in the last place of *expected*."""
    if actual == expected:
        return 0.0
    return abs(actual - expected) / math.ulp(expected)


@pytest.fixture(scope="module")
def recorded():
    with open(FIXTURE, "r", encoding="utf-8") as handle:
        return json.load(handle)["records"]


@pytest.fixture(scope="module")
def current():
    return current_records()


def test_the_mix_covers_what_the_recording_promises(recorded):
    requests = request_mix()
    assert len(recorded) == len(requests) == N_REQUESTS
    kinds = {type(r.airfoil).__name__ for r in requests}
    assert kinds == {"str", "Airfoil"}
    assert {len(r.airfoil) for r in requests if isinstance(r.airfoil, str)} == {4, 5}
    assert {r.use_head for r in requests} == {True, False}
    marched = [rec for rec in recorded if "body" in rec and (
        rec["upper"]["head_start"] is not None
        or rec["lower"]["head_start"] is not None)]
    assert len(marched) >= N_REQUESTS // 5, "too few requests reach Head's march"


def mismatch(expected: dict, actual: dict):
    """Why *actual* is not the recorded *expected*, or ``None``."""
    if set(actual) != set(expected) or "error" in expected:
        return None if actual == expected else "outcome differs"
    for surface in ("upper", "lower"):
        if actual[surface] != expected[surface]:
            return f"{surface} indices {actual[surface]} != {expected[surface]}"
    want, got = json.loads(expected["body"]), json.loads(actual["body"])
    if set(got) != set(want):
        return "body fields differ"
    for field, value in want.items():
        if isinstance(value, float):
            if not isinstance(got[field], float):
                return f"{field} is {got[field]!r}, recorded {value!r}"
            if ulps_apart(got[field], value) > MAX_ULPS:
                return f"{field} is {got[field]!r}, recorded {value!r}"
        elif got[field] != value:
            return f"{field} is {got[field]!r}, recorded {value!r}"
    return None


def test_every_body_matches_the_recording(recorded, current):
    failures = {index: why for index, (expected, actual)
                in enumerate(zip(recorded, current))
                if (why := mismatch(expected, actual)) is not None}
    assert not failures


if __name__ == "__main__":
    os.makedirs(os.path.dirname(FIXTURE), exist_ok=True)
    with open(FIXTURE, "w", encoding="utf-8") as handle:
        json.dump({"records": current_records()}, handle, indent=1,
                  sort_keys=True)
        handle.write("\n")
