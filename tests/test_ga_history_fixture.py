"""Recorded GA histories: the optimizer's output must not move by a bit.

``tests/data/ga_histories.json`` holds optimization histories recorded
before the B-spline basis became cached.  Every genome of a layout is
discretized through the same few bases, so a cache that returned a
different array — or a stale one — would change these histories.  Both
evaluation paths (the serial loop and the batched generation evaluator)
must reproduce each recorded history byte for byte.

Record the file again with ``PYTHONPATH=src python -m
tests.test_ga_history_fixture`` only when a change is *meant* to alter
the optimizer's arithmetic, and say so in the change's notes.
"""

import json
import os

import numpy as np
import pytest

from repro.core.api import canonical_json
from repro.jobs import BatchedGenerationEvaluator
from repro.jobs.model import history_to_dict
from repro.optimize import FitnessEvaluator, GAConfig, GeneticOptimizer, GenomeLayout

FIXTURE = os.path.join(os.path.dirname(__file__), "data", "ga_histories.json")

#: (seed, n_panels) cases; population 8 over 4 generations each.
CASES = [(3, 60), (3, 100), (11, 60), (11, 100)]


def run_history(seed: int, n_panels: int, *, batched: bool) -> str:
    """One seeded GA run rendered as canonical JSON."""
    evaluator = FitnessEvaluator(layout=GenomeLayout(n_upper=5, n_lower=5),
                                 n_panels=n_panels, reynolds=4e5)
    config = GAConfig(population_size=8, generations=4)
    optimizer = GeneticOptimizer(
        evaluator=evaluator, config=config,
        evaluate_all=BatchedGenerationEvaluator(evaluator) if batched else None)
    history = optimizer.run(np.random.default_rng(seed))
    return canonical_json(history_to_dict(history))


def _case_id(seed: int, n_panels: int) -> str:
    return f"seed{seed}-n{n_panels}"


@pytest.fixture(scope="module")
def recorded():
    with open(FIXTURE, "r", encoding="utf-8") as handle:
        return json.load(handle)["histories"]


@pytest.mark.parametrize("batched", [False, True], ids=["serial", "batched"])
@pytest.mark.parametrize("seed,n_panels", CASES)
def test_history_matches_the_recording(recorded, seed, n_panels, batched):
    expected = recorded[_case_id(seed, n_panels)]
    assert run_history(seed, n_panels, batched=batched) == expected


if __name__ == "__main__":
    document = {"histories": {_case_id(seed, n): run_history(seed, n, batched=False)
                              for seed, n in CASES}}
    os.makedirs(os.path.dirname(FIXTURE), exist_ok=True)
    with open(FIXTURE, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")
