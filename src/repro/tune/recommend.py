"""Grid sweeps over serving knobs, ranked by the calibrated model.

The same shape as the paper's :func:`repro.pipeline.autotune.tune_slices`
— validate the candidate grid up front, simulate every candidate, rank
by predicted wall time — but the "simulator" is a
:class:`~repro.tune.calibrate.CalibratedWorkstation` fitted from live
traffic and the knobs are the serving ones: ``BatchPolicy(max_batch,
max_wait)``.  Cluster mode adds :func:`recommend_weights`, the serving
analogue of :func:`repro.pipeline.heterogeneous.balanced_fractions`:
per-replica routing weights proportional to each replica's measured
service rate.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterable, List, Optional, Tuple

from repro.errors import TuneError
from repro.serve.batcher import MAX_BATCH_CEILING, BatchPolicy
from repro.tune.calibrate import CalibratedWorkstation, ServingPrediction

#: Default max-batch sweep (clamped to the batcher's hard ceiling).
DEFAULT_BATCH_GRID = (1, 2, 4, 8, 16, 24, 32, 48, 64)

#: Default flush-deadline sweep, milliseconds.
DEFAULT_WAIT_GRID_MS = (0.5, 1.0, 2.0, 5.0, 10.0, 20.0)


@dataclasses.dataclass(frozen=True)
class CandidateConfig:
    """One point of the serving-knob grid."""

    max_batch: int
    max_wait: float

    def policy(self) -> BatchPolicy:
        return BatchPolicy(max_batch=self.max_batch, max_wait=self.max_wait)

    def to_dict(self) -> dict:
        return {
            "max_batch": self.max_batch,
            "max_wait_ms": round(1e3 * self.max_wait, 3),
        }


def _validated_batch_grid(candidates: Iterable[int]) -> List[int]:
    grid = list(candidates)
    if not grid:
        raise TuneError("no feasible max_batch candidates: empty grid")
    for value in grid:
        if value != int(value) or int(value) < 1:
            raise TuneError(
                f"invalid max_batch {value!r} in grid {tuple(grid)}: "
                "batch sizes must be positive integers"
            )
    unique = sorted({int(value) for value in grid})
    feasible = [value for value in unique if value <= MAX_BATCH_CEILING]
    if not feasible:
        raise TuneError(
            f"every max_batch in grid {tuple(unique)} exceeds the batcher "
            f"ceiling {MAX_BATCH_CEILING}; nothing to tune over"
        )
    return feasible


def _validated_wait_grid(candidates_ms: Iterable[float]) -> List[float]:
    grid = list(candidates_ms)
    if not grid:
        raise TuneError("no feasible max_wait candidates: empty grid")
    for value in grid:
        if not (0.0 <= float(value) < 1e4):
            raise TuneError(
                f"invalid max_wait {value!r} ms in grid {tuple(grid)}: "
                "flush deadlines must be in [0, 10000) milliseconds"
            )
    return sorted({float(value) for value in grid})


@dataclasses.dataclass(frozen=True)
class TuneRecommendation:
    """A ranked sweep with the predicted gain over the current config."""

    current: CandidateConfig
    current_prediction: ServingPrediction
    best: CandidateConfig
    best_prediction: ServingPrediction
    sweep: List[Tuple[CandidateConfig, ServingPrediction]]
    objective: str = "latency"

    @property
    def predicted_improvement(self) -> float:
        """Fractional predicted latency reduction (0.25 = 25% faster).

        An infeasible current config (predicted capacity below the
        arrival rate) has unbounded real latency regardless of its
        nominal service time, so escaping it into any feasible config
        counts as a full improvement; between two infeasible configs
        the comparison falls back to predicted capacity.
        """
        now, best = self.current_prediction, self.best_prediction
        if not now.feasible:
            if best.feasible:
                return 1.0
            if now.throughput_rps <= 0.0:
                return 0.0
            return max(0.0, 1.0 - now.throughput_rps / best.throughput_rps)
        now_latency = now.latency_seconds
        if now_latency <= 0.0:
            return 0.0
        return (now_latency - best.latency_seconds) / now_latency

    @property
    def predicted_delta_ms(self) -> float:
        """Predicted per-request wall-time delta, milliseconds (< 0 = faster)."""
        return (self.best_prediction.latency_ms
                - self.current_prediction.latency_ms)

    def to_dict(self, *, sweep_limit: Optional[int] = 12) -> dict:
        rows = self.sweep if sweep_limit is None else self.sweep[:sweep_limit]
        return {
            "objective": self.objective,
            "current": self.current.to_dict(),
            "current_prediction": self.current_prediction.to_dict(),
            "best": self.best.to_dict(),
            "best_prediction": self.best_prediction.to_dict(),
            "predicted_improvement": round(self.predicted_improvement, 4),
            "predicted_delta_ms": round(self.predicted_delta_ms, 3),
            "sweep": [
                {"config": config.to_dict(), **prediction.to_dict()}
                for config, prediction in rows
            ],
            "sweep_size": len(self.sweep),
        }


def recommend_policy(calibrated: CalibratedWorkstation,
                     current: BatchPolicy, *,
                     arrival_rate: Optional[float] = None,
                     n_workers: int = 1,
                     batch_grid: Iterable[int] = DEFAULT_BATCH_GRID,
                     wait_grid_ms: Iterable[float] = DEFAULT_WAIT_GRID_MS,
                     ) -> TuneRecommendation:
    """Sweep the policy grid and rank candidates by predicted latency.

    Infeasible candidates (predicted capacity below the arrival rate —
    the queue would grow without bound) rank strictly after feasible
    ones regardless of their nominal latency.
    """
    batches = _validated_batch_grid(batch_grid)
    waits = [ms / 1e3 for ms in _validated_wait_grid(wait_grid_ms)]

    sweep: List[Tuple[CandidateConfig, ServingPrediction]] = []
    for max_batch in batches:
        for max_wait in waits:
            config = CandidateConfig(max_batch=max_batch, max_wait=max_wait)
            prediction = calibrated.simulate(
                config.policy(), arrival_rate=arrival_rate,
                n_workers=n_workers,
            )
            sweep.append((config, prediction))

    def rank(item: Tuple[CandidateConfig, ServingPrediction]):
        _config, prediction = item
        if prediction.feasible:
            return (0, prediction.latency_seconds)
        # All-infeasible regime: nominal latency is meaningless under
        # overload; prefer whatever drains the queue fastest.
        return (1, -prediction.throughput_rps)

    sweep.sort(key=rank)
    current_config = CandidateConfig(max_batch=current.max_batch,
                                     max_wait=current.max_wait)
    current_prediction = calibrated.simulate(
        current, arrival_rate=arrival_rate, n_workers=n_workers,
    )
    best_config, best_prediction = sweep[0]
    return TuneRecommendation(
        current=current_config,
        current_prediction=current_prediction,
        best=best_config,
        best_prediction=best_prediction,
        sweep=sweep,
    )


# ----------------------------------------------------------------------
# Cluster mode: per-replica weights
# ----------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class WeightRecommendation:
    """Routing weights proportional to measured per-replica service rate.

    ``shift`` is half the L1 distance from the uniform split — the
    fraction of traffic that would move if the weights were applied —
    which is what the cluster controller's hysteresis thresholds on.
    """

    weights: Dict[str, float]
    rates: Dict[str, float]
    shift: float

    def to_dict(self) -> dict:
        return {
            "weights": {name: round(weight, 4)
                        for name, weight in sorted(self.weights.items())},
            "service_rates_rps": {name: round(rate, 2)
                                  for name, rate in sorted(self.rates.items())},
            "shift": round(self.shift, 4),
        }


def recommend_weights(replica_windows: Dict[str, dict]) -> WeightRecommendation:
    """Per-replica weights from ``/metrics`` windows.

    *replica_windows* maps replica name to a dict with the window's
    ``completed`` count and ``latency_sum_ms`` (the cluster controller
    deltas these from successive scrapes).  A replica's service rate is
    ``completed / in-request seconds`` — requests finished per second
    of time actually spent serving them — the live analogue of
    :func:`repro.pipeline.heterogeneous.balanced_fractions`'s
    throughput-proportional split.  Replicas with no completions in the
    window keep a uniform share (no evidence either way).
    """
    if not replica_windows:
        raise TuneError("no replica windows to recommend weights from")
    rates: Dict[str, float] = {}
    for name, window in replica_windows.items():
        completed = float(window.get("completed", 0.0))
        busy_seconds = float(window.get("latency_sum_ms", 0.0)) / 1e3
        rates[name] = completed / busy_seconds if busy_seconds > 0.0 else 0.0
    positive = [rate for rate in rates.values() if rate > 0.0]
    fallback = (sum(positive) / len(positive)) if positive else 1.0
    effective = {name: (rate if rate > 0.0 else fallback)
                 for name, rate in rates.items()}
    total = sum(effective.values())
    weights = {name: rate / total for name, rate in effective.items()}
    uniform = 1.0 / len(weights)
    shift = 0.5 * sum(abs(weight - uniform) for weight in weights.values())
    return WeightRecommendation(weights=weights, rates=rates, shift=shift)
