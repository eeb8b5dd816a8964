"""Seeded inputs of the three workloads.

The server sees only these generated payloads; the same ``--seed``
always yields the same payloads, schedule, key draws and job spec.
"""

from __future__ import annotations

import json
from typing import Iterator, List, Sequence, Set, Tuple

import numpy as np

import stats
from loadgen import CONNECTIONS

#: analyze_cold: fixed offered load (requests/s), open loop.  The server
#: holds a lone request up to its 50 ms batching window, so one request
#: costs ~130 ms and two connections top out near 15 rps.
COLD_RATE = 10.0
COLD = {"n_panels": 200, "reynolds": 1e6}
#: analyze_hot: requests are drawn from this many cached keys.
HOT_KEYS = 32
HOT = {"n_panels": 60, "reynolds": None}
#: ga_job: population (one stack of tens of systems per generation),
#: generations per second of run time, and the fitness defaults.
GA_POPULATION = 32
GA_GENERATIONS_PER_SECOND = 4
GA = {"n_panels": 120, "reynolds": 5e5}

#: Warm-up requests sent before any measurement (part of ``setup_s``).
WARMUP = 4
#: Fresh payloads per probe in the traced run (layer replay).
PROBES = 12


def encode(payload) -> bytes:
    """Canonical JSON bytes (sorted keys, compact) of a payload."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()


def _rng(seed: int, stream: int, *more: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream, *more])


def naca_payloads(rng: np.random.Generator, count: int, *, n_panels: int,
                  reynolds, seen: Set[Tuple[str, float]]) -> List[dict]:
    """*count* distinct NACA 4-digit ``/analyze`` payloads.

    Camber 0-6 %, camber position 20-60 %, thickness 8-20 %, angle of
    attack -2..8 degrees; pairs already in *seen* are skipped (and the
    new ones added), so payloads stay distinct across calls.
    """
    payloads = []
    while len(payloads) < count:
        camber = int(rng.integers(0, 7))
        position = int(rng.integers(2, 7)) if camber else 0
        designation = f"{camber}{position}{int(rng.integers(8, 21)):02d}"
        alpha = round(float(rng.uniform(-2.0, 8.0)), 3)
        if (designation, alpha) in seen:
            continue
        seen.add((designation, alpha))
        payloads.append({"airfoil": designation, "alpha_degrees": alpha,
                         "n_panels": n_panels, "reynolds": reynolds})
    return payloads


class Inputs:
    """Everything one run sends, derived from ``(workload, seed, seconds)``."""

    def __init__(self, workload: str, seed: int, seconds: float) -> None:
        self.workload, self.seed = workload, seed
        seen: Set[Tuple[str, float]] = set()
        profile = {"analyze_cold": COLD, "analyze_hot": HOT, "ga_job": GA}[workload]
        self.n_panels, self.reynolds = profile["n_panels"], profile["reynolds"]
        rng = _rng(seed, 1)
        self.warmup = naca_payloads(rng, WARMUP, seen=seen, **profile)
        # Fresh payloads for the traced run's layer replay: never sent
        # before the replay, so they miss the cache there too.
        self.probes = naca_payloads(rng, PROBES, seen=seen, **profile)
        self.schedule: List[Tuple[float, dict]] = []
        self.keys: List[dict] = []
        self.job_spec = None
        #: Seconds one connection idles between requests (open loop only).
        self.gap = 0.0
        if workload == "analyze_cold":
            self.gap = CONNECTIONS / COLD_RATE
            dues = stats.open_loop_schedule(COLD_RATE, seconds)
            payloads = naca_payloads(rng, len(dues), seen=seen, **COLD)
            self.schedule = list(zip(dues, payloads))
        elif workload == "analyze_hot":
            self.keys = naca_payloads(rng, HOT_KEYS, seen=seen, **HOT)
            self.probes = self.keys[:PROBES]
        else:
            self.job_spec = {
                "seed": seed, "checkpoint_every": 1,
                "ga": {"population_size": GA_POPULATION,
                       "generations": max(2, round(GA_GENERATIONS_PER_SECOND
                                                   * seconds))},
                "fitness": {"n_panels": GA["n_panels"]},
            }

    def draws(self, connection: int) -> Iterator[int]:
        """Endless seeded key indices for one closed-loop connection."""
        rng = _rng(self.seed, 2, connection)
        while True:
            yield from (int(k) for k in rng.integers(0, len(self.keys), 256))

    def record(self) -> dict:
        """The generated inputs, for the run's output record."""
        return {
            "warmup": self.warmup,
            "schedule": [[round(due, 6), payload["airfoil"],
                          payload["alpha_degrees"]]
                         for due, payload in self.schedule],
            "keys": [[payload["airfoil"], payload["alpha_degrees"]]
                     for payload in self.keys],
            "job_spec": self.job_spec,
        }


def bodies(payloads: Sequence[dict]) -> List[bytes]:
    """Pre-encoded request bodies (encoding stays out of the timed loop)."""
    return [encode(payload) for payload in payloads]
