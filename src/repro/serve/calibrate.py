"""Fitting the simulator's stage model from live ``/metrics`` windows.

The pipeline simulator and the serving tracer already speak the same
W/A/L/O vocabulary (assembly / solve / postprocess / serialize spans on
both sides); this module *fits* that model from production aggregates:

* :func:`fit_stage_means` reduces a ``/metrics`` window (one snapshot,
  or the delta between two) to mean per-request stage costs, the
  request-weighted mean batch and stack sizes, the arrival rate, and
  the dominant ``(n_panels, precision)`` mix — everything the snapshot
  already exposes, nothing instrumented twice.
* :func:`probe_stage_curves` measures the *shape* of each stage's cost
  versus batch size (fixed per-flush setup + per-request marginal) by
  timing the service's own evaluation path at a few batch sizes.  A
  single steady operating point cannot identify setup separately from
  marginal cost — every live batch has the same size — so the probe
  supplies the curve and the live window pins its level.
* :class:`CalibratedWorkstation` combines the two into per-stage
  :class:`StageCost` models whose :meth:`~CalibratedWorkstation.simulate`
  predicts per-request latency and throughput capacity of the batcher's
  drain rule at any ``max_batch``, and whose
  :meth:`~CalibratedWorkstation.validate` checks the prediction against
  the measured latency of the window.
* :func:`recommend_weights` turns per-replica windows into routing
  weights proportional to each replica's measured service rate.

The fitted throughputs also flow back into the paper's own tuner:
:meth:`CalibratedWorkstation.as_workstation` rebuilds a simulator
:class:`~repro.hardware.host.Workstation` around the measured host
throughputs (via :func:`repro.hardware.calibration.calibrate_from_measurement`)
so ``tune_slices`` can recompute the paper's interleaving optimum for
the hardware actually serving traffic.
"""

from __future__ import annotations

import dataclasses
import math
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import CalibrationError

#: Stage names the serving path records and the model fits.
FITTED_STAGES = ("assembly", "solve", "postprocess", "serialize")

#: Minimum traced requests in a window before a fit is attempted.
DEFAULT_MIN_SAMPLES = 16


# ----------------------------------------------------------------------
# Window reduction (pure /metrics arithmetic)
# ----------------------------------------------------------------------

def delta_counter(snapshot: dict, previous: Optional[dict],
                  *path: str) -> float:
    """A cumulative counter's increase over the window (>= 0)."""
    def walk(document: Optional[dict]) -> float:
        node = document
        for key in path:
            if not isinstance(node, dict) or key not in node:
                return 0.0
            node = node[key]
        return float(node) if isinstance(node, (int, float)) else 0.0

    return max(0.0, walk(snapshot) - (walk(previous) if previous else 0.0))


def _delta_histogram(snapshot: dict, previous: Optional[dict],
                     *path: str) -> Dict[str, float]:
    """Window delta of a ``{label: count}`` histogram (positive bins only)."""
    def walk(document: Optional[dict]) -> dict:
        node = document
        for key in path:
            if not isinstance(node, dict):
                return {}
            node = node.get(key)
        return node if isinstance(node, dict) else {}

    current, earlier = walk(snapshot), walk(previous)
    window: Dict[str, float] = {}
    for label, count in current.items():
        gained = float(count) - float(earlier.get(label, 0))
        if gained > 0.0:
            window[str(label)] = gained
    return window


def _sized(histogram: Dict[str, float]) -> Dict[int, float]:
    return {int(size): count for size, count in histogram.items()}


def _request_weighted_mean(histogram: Dict[int, float]) -> float:
    """Mean size *as a request experiences it* (size-weighted).

    A flush histogram counts batches; a request rides a batch with
    probability proportional to that batch's size, so the mean batch
    size seen by requests is ``sum(size^2 * flushes) / sum(size *
    flushes)``.
    """
    weight = sum(size * count for size, count in histogram.items())
    if weight <= 0.0:
        return 1.0
    return sum(size * size * count for size, count in histogram.items()) / weight


def _stage_window(snapshot: dict, previous: Optional[dict],
                  stage: str) -> Tuple[float, float]:
    """(observations, mean seconds per observation) for one stage."""
    count = delta_counter(snapshot, previous, "stages_hist_ms", stage, "count")
    sum_ms = delta_counter(snapshot, previous, "stages_hist_ms", stage, "sum_ms")
    if count <= 0.0:
        return 0.0, 0.0
    return count, sum_ms / count / 1e3


@dataclasses.dataclass(frozen=True)
class ObservedMix:
    """What the window's traffic looked like.

    ``mean_batch`` and ``mean_stack`` are request-weighted (see
    :func:`_request_weighted_mean`); ``measured_latency_ms`` is the
    mean over requests that reached a worker — admission hits resolve
    in microseconds and would otherwise drag the mean below anything a
    solve model could predict.
    """

    window_seconds: float
    admitted: float
    completed: float
    arrival_rate: float
    cache_hit_fraction: float
    mean_batch: float
    mean_stack: float
    traced: float
    n_panels: int
    precision: str
    measured_latency_ms: Optional[float]

    @property
    def concurrency(self) -> float:
        """Mean in-flight requests over the window (Little's law).

        ``arrival_rate * latency`` counts the requests that are queued
        or in service at any instant.  Under light load this is well
        below 1 and changes nothing; under a standing queue (closed-loop
        clients, overload) it is the population the batcher can actually
        drain per flush — information the arrival-rate fixed point alone
        cannot see, because a saturated system's measured arrival rate
        equals its throughput.
        """
        if self.measured_latency_ms is None or self.arrival_rate <= 0.0:
            return 0.0
        return self.arrival_rate * (self.measured_latency_ms / 1e3)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclasses.dataclass(frozen=True)
class StageMeans:
    """Mean per-request span seconds at the window's operating point."""

    seconds: Dict[str, float]
    observations: Dict[str, float]
    mix: ObservedMix

    def mean(self, stage: str) -> float:
        return self.seconds.get(stage, 0.0)


def fit_stage_means(snapshot: dict, previous: Optional[dict] = None, *,
                    min_samples: int = DEFAULT_MIN_SAMPLES,
                    default_n_panels: int = 200) -> StageMeans:
    """Reduce a ``/metrics`` window to per-stage mean costs and the mix.

    *snapshot* (and optionally *previous*, for a delta window) are
    ``AnalysisService.metrics_snapshot()`` documents.  Raises
    :class:`~repro.errors.CalibrationError` when the window holds fewer
    than *min_samples* traced solve observations — fitting throughputs
    from a handful of spans would just launder noise into the model.
    """
    solve_count, _solve_mean = _stage_window(snapshot, previous, "solve")
    if solve_count < min_samples:
        raise CalibrationError(
            f"window has {int(solve_count)} traced solve spans; need at "
            f"least {min_samples} to fit stage throughputs"
        )
    seconds: Dict[str, float] = {}
    observations: Dict[str, float] = {}
    for stage in FITTED_STAGES:
        count, mean = _stage_window(snapshot, previous, stage)
        seconds[stage] = mean
        observations[stage] = count

    window_seconds = delta_counter(snapshot, previous, "uptime_seconds")
    admitted = delta_counter(snapshot, previous, "requests", "admitted")
    completed = delta_counter(snapshot, previous, "requests", "completed")
    hits = delta_counter(snapshot, previous, "cache", "hits")
    arrival_rate = admitted / window_seconds if window_seconds > 0.0 else 0.0
    hit_fraction = min(1.0, hits / admitted) if admitted > 0.0 else 0.0

    batch_hist = _sized(_delta_histogram(snapshot, previous,
                                         "batching", "batch_size_histogram"))
    stack_hist = _sized(_delta_histogram(snapshot, previous,
                                         "batching", "stack_size_histogram"))
    n_hist = _sized(_delta_histogram(snapshot, previous,
                                     "workload", "n_panels_histogram"))
    precision_hist = _delta_histogram(snapshot, previous,
                                      "workload", "precision_histogram")
    n_panels = (max(n_hist.items(), key=lambda item: (item[1], item[0]))[0]
                if n_hist else default_n_panels)
    precision = (max(precision_hist.items(), key=lambda item: item[1])[0]
                 if precision_hist else "double")

    # Mean latency of the requests that reached a worker, which the
    # batch histogram counts.  The latency histogram also counts the
    # admission hits, but they complete in ~microseconds and add next to
    # no latency mass.  ``cache.hits`` cannot stand in for them: it also
    # counts batchmates answered by another request's solve, and those
    # waited through it.
    latency_sum = delta_counter(snapshot, previous, "latency_hist_ms", "sum_ms")
    pooled = sum(size * count for size, count in batch_hist.items())
    measured = latency_sum / pooled if pooled > 0.0 else None

    mix = ObservedMix(
        window_seconds=window_seconds,
        admitted=admitted,
        completed=completed,
        arrival_rate=arrival_rate,
        cache_hit_fraction=hit_fraction,
        mean_batch=_request_weighted_mean(batch_hist),
        mean_stack=_request_weighted_mean(stack_hist),
        traced=solve_count,
        n_panels=n_panels,
        precision=precision,
        measured_latency_ms=measured,
    )
    return StageMeans(seconds=seconds, observations=observations, mix=mix)


# ----------------------------------------------------------------------
# Probing (measuring the batch-scaling curve on the real machine)
# ----------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class StageCost:
    """One stage's cost model: fixed per-flush setup + per-request unit."""

    setup: float
    unit: float

    def __post_init__(self) -> None:
        if (not math.isfinite(self.setup) or not math.isfinite(self.unit)
                or self.setup < 0.0 or self.unit < 0.0):
            raise CalibrationError(
                f"stage costs must be finite and >= 0, "
                f"got setup={self.setup!r} unit={self.unit!r}"
            )

    def batch_seconds(self, batch: float) -> float:
        """Seconds one flush of *batch* requests spends in this stage."""
        return self.setup + batch * self.unit

    def scaled(self, factor: float) -> "StageCost":
        return StageCost(setup=self.setup * factor, unit=self.unit * factor)

    def to_dict(self) -> dict:
        return {"setup_ms": 1e3 * self.setup, "unit_ms": 1e3 * self.unit}


def probe_stage_curves(*, n_panels: int, precision: str = "double",
                       kernel: Optional[str] = None,
                       sizes: Sequence[int] = (1, 8), repeats: int = 2,
                       timer: Callable[[], float] = time.perf_counter,
                       ) -> Dict[str, StageCost]:
    """Measure per-stage (setup, unit) costs by timing real evaluations.

    Runs the service's own evaluation path
    (:func:`repro.core.api.evaluate_requests`, same assembly kernel,
    threads shard the larger sizes as they do live) at each batch size
    in *sizes* and fits one
    ``setup + batch * unit`` line per stage through the best-of-
    *repeats* timings.  Cost is bounded: ``sum(sizes) * repeats``
    inviscid evaluations, a few milliseconds at serving problem sizes.
    """
    from repro.core.api import AnalyzeRequest, evaluate_requests

    sizes = sorted({int(size) for size in sizes})
    if len(sizes) < 2 or sizes[0] < 1:
        raise CalibrationError(
            f"probe sizes must be >= 2 distinct positive batch sizes, "
            f"got {sizes!r}"
        )
    samples: Dict[str, List[Tuple[float, float]]] = {
        stage: [] for stage in FITTED_STAGES
    }
    for size in sizes:
        best: Dict[str, float] = {}
        for repeat in range(max(1, int(repeats))):
            requests = [
                AnalyzeRequest("0012", alpha_degrees=0.25 * index + 0.1 * repeat,
                               reynolds=None, n_panels=int(n_panels),
                               precision=precision)
                for index in range(size)
            ]
            spans: Dict[str, float] = {}

            def hook(stage, start, end, count=0):
                if stage in samples:
                    spans[stage] = spans.get(stage, 0.0) + (end - start)

            started = timer()
            evaluate_requests(requests, stage_hook=hook, kernel=kernel)
            elapsed = timer() - started
            spans.setdefault("serialize", 0.0)
            # The response-shaping tail (everything outside the hooked
            # spans) stands in for the serving path's serialize stage.
            spans["serialize"] += max(
                0.0, elapsed - sum(spans.get(s, 0.0)
                                   for s in ("assembly", "solve", "postprocess"))
            )
            for stage, span_seconds in spans.items():
                if stage not in best or span_seconds < best[stage]:
                    best[stage] = span_seconds
        for stage in FITTED_STAGES:
            samples[stage].append((float(size), best.get(stage, 0.0)))

    return {stage: _fit_line(points) for stage, points in samples.items()}


def _fit_line(points: Sequence[Tuple[float, float]]) -> StageCost:
    """Least-squares ``setup + batch * unit`` through (batch, seconds)."""
    n = len(points)
    mean_x = sum(x for x, _ in points) / n
    mean_y = sum(y for _, y in points) / n
    var = sum((x - mean_x) ** 2 for x, _ in points)
    if var <= 0.0:
        return StageCost(setup=0.0, unit=max(0.0, mean_y / max(mean_x, 1.0)))
    unit = sum((x - mean_x) * (y - mean_y) for x, y in points) / var
    setup = mean_y - unit * mean_x
    # Timing noise can tip either coefficient slightly negative; clamp
    # and fold the mass into the other term so predictions stay sane.
    if unit < 0.0:
        return StageCost(setup=max(0.0, mean_y), unit=0.0)
    return StageCost(setup=max(0.0, setup), unit=unit)


# ----------------------------------------------------------------------
# The calibrated model
# ----------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class ServingPrediction:
    """What the model expects one ``max_batch`` to do under the observed mix."""

    max_batch: int
    batch_size: float
    service_seconds: float
    latency_seconds: float
    throughput_rps: float
    feasible: bool
    utilization: float

    @property
    def latency_ms(self) -> float:
        return 1e3 * self.latency_seconds

    def to_dict(self) -> dict:
        return {
            "max_batch": self.max_batch,
            "predicted_batch": round(self.batch_size, 2),
            "predicted_latency_ms": round(self.latency_ms, 3),
            "predicted_throughput_rps": round(self.throughput_rps, 1),
            "feasible": self.feasible,
            "utilization": round(self.utilization, 3),
        }


@dataclasses.dataclass(frozen=True)
class CalibrationReport:
    """Predicted-vs-measured latency check of a fitted model."""

    predicted_latency_ms: float
    measured_latency_ms: Optional[float]
    tolerance: float

    @property
    def ratio(self) -> Optional[float]:
        if not self.measured_latency_ms or self.measured_latency_ms <= 0.0:
            return None
        return self.predicted_latency_ms / self.measured_latency_ms

    @property
    def within_tolerance(self) -> bool:
        ratio = self.ratio
        if ratio is None:
            return False
        band = 1.0 + self.tolerance
        return (1.0 / band) <= ratio <= band

    def to_dict(self) -> dict:
        return {
            "predicted_latency_ms": round(self.predicted_latency_ms, 3),
            "measured_latency_ms": (
                None if self.measured_latency_ms is None
                else round(self.measured_latency_ms, 3)
            ),
            "ratio": None if self.ratio is None else round(self.ratio, 3),
            "tolerance": self.tolerance,
            "within_tolerance": self.within_tolerance,
        }


@dataclasses.dataclass(frozen=True)
class CalibratedWorkstation:
    """The simulator's stage model, fitted to one machine's live traffic.

    ``costs`` maps each :data:`FITTED_STAGES` name to a
    :class:`StageCost`; ``mix`` is the traffic window the fit came
    from; ``source`` records whether a probe supplied the batch-scaling
    curve (``"live+probe"``) or the model is the zero-setup live fit
    (``"live"``, which cannot see batching gains and is only good for
    validation).
    """

    costs: Dict[str, StageCost]
    mix: ObservedMix
    source: str = "live"

    @classmethod
    def fit(cls, snapshot: dict, previous: Optional[dict] = None, *,
            probe: Optional[Dict[str, StageCost]] = None,
            min_samples: int = DEFAULT_MIN_SAMPLES) -> "CalibratedWorkstation":
        """Fit from a ``/metrics`` window, optionally shaped by a probe.

        The live window pins each stage's *level*: the mean traced span
        equals ``setup + mean_batch * unit`` at the observed operating
        point (batch spans are shared verbatim with every request that
        rode the batch).  With a probe, its (setup, unit) pair is
        rescaled so the curve passes through the live point; without
        one, setup is zero and the whole mean is marginal cost.
        """
        means = fit_stage_means(snapshot, previous, min_samples=min_samples)
        costs: Dict[str, StageCost] = {}
        for stage in FITTED_STAGES:
            anchor = means.mix.mean_stack if stage == "solve" else means.mix.mean_batch
            live_mean = means.mean(stage)
            if probe is not None and stage in probe:
                curve = probe[stage]
                predicted_at_anchor = curve.batch_seconds(anchor)
                if predicted_at_anchor > 0.0 and live_mean > 0.0:
                    costs[stage] = curve.scaled(live_mean / predicted_at_anchor)
                else:
                    costs[stage] = curve
            else:
                costs[stage] = StageCost(setup=0.0,
                                         unit=live_mean / max(anchor, 1.0))
        return cls(costs=costs, mix=means.mix,
                   source="live+probe" if probe else "live")

    # ------------------------------------------------------------------
    # Prediction
    # ------------------------------------------------------------------

    def service_seconds(self, batch: float) -> float:
        """Predicted seconds one worker spends on a *batch*-sized flush."""
        stack = batch * (self.mix.mean_stack / max(self.mix.mean_batch, 1.0))
        stack = max(1.0, min(batch, stack))
        return sum(cost.batch_seconds(stack if stage == "solve" else batch)
                   for stage, cost in self.costs.items())

    def simulate(self, max_batch: int, *,
                 arrival_rate: Optional[float] = None,
                 n_workers: int = 1) -> ServingPrediction:
        """Steady-state prediction of the drain rule under the observed mix.

        The batcher drains what is queued, so the expected flush size is
        the fixed point of ``B = min(max_batch, max(1, rate *
        service(B)))``: arrivals accumulate only while the worker is
        busy, capped by *max_batch*.

        The window's measured in-flight population
        (:attr:`ObservedMix.concurrency`) then floors the flush size: a
        standing queue is drained ``min(max_batch, pending)`` at a time,
        and the arrival-rate fixed point alone cannot see that queue
        because a saturated system admits exactly as fast as it
        completes.  The same population bounds latency from below via
        Little's law (``pending / throughput``), which is what
        closed-loop clients actually observe.
        """
        rate = self.mix.arrival_rate if arrival_rate is None else float(arrival_rate)
        workers = max(1, int(n_workers))
        batch = 1.0
        for _ in range(32):
            busy = self.service_seconds(batch) / workers
            target = min(float(max_batch), max(1.0, rate * busy))
            if abs(target - batch) < 1e-6:
                batch = target
                break
            batch = target
        pending = self.mix.concurrency
        if pending > batch:
            batch = min(float(max_batch), pending)
        service = self.service_seconds(batch)
        throughput = workers * batch / service if service > 0.0 else math.inf
        latency = service
        if pending > 0.0 and throughput > 0.0:
            latency = max(latency, pending / throughput)
        utilization = rate / throughput if throughput > 0.0 else math.inf
        return ServingPrediction(
            max_batch=int(max_batch),
            batch_size=batch,
            service_seconds=service,
            latency_seconds=latency,
            throughput_rps=throughput,
            feasible=utilization <= 1.0,
            utilization=utilization,
        )

    def validate(self, max_batch: int, *, n_workers: int = 1,
                 tolerance: float = 0.5) -> CalibrationReport:
        """Check the model against the window's measured latency."""
        prediction = self.simulate(max_batch, n_workers=n_workers)
        return CalibrationReport(
            predicted_latency_ms=prediction.latency_ms,
            measured_latency_ms=self.mix.measured_latency_ms,
            tolerance=float(tolerance),
        )

    # ------------------------------------------------------------------
    # Back to the paper's tuner
    # ------------------------------------------------------------------

    def as_workstation(self, *, accelerator: str = "k80-half"):
        """A simulator Workstation whose host runs at the *fitted* rates.

        Lets the paper's own :func:`repro.pipeline.autotune.tune_slices`
        recompute the interleaving optimum (Figures 3-4) for the
        measured host throughputs; the accelerator stays the paper's,
        since serving has none to measure.
        """
        from repro.hardware.calibration import calibrate_from_measurement
        from repro.hardware.host import paper_workstation

        station = paper_workstation(sockets=2, accelerator=accelerator,
                                    precision=self.mix.precision)
        fitted = calibrate_from_measurement(
            station.cpu.spec, self.mix.precision,
            assembly_seconds=self.costs["assembly"].unit,
            solve_seconds=self.costs["solve"].unit,
            batch=1, n=self.mix.n_panels,
        )
        return station.with_cpu_calibration(fitted)

    def to_dict(self) -> dict:
        return {
            "source": self.source,
            "stages": {stage: cost.to_dict()
                       for stage, cost in sorted(self.costs.items())},
            "mix": self.mix.to_dict(),
        }


# ----------------------------------------------------------------------
# Cluster windows: per-replica service rates
# ----------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class WeightRecommendation:
    """Routing weights proportional to measured per-replica service rate.

    ``shift`` is half the L1 distance from the uniform split — the
    fraction of traffic that would move if the weights were applied.
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
    ``completed`` count and ``latency_sum_ms``.  A replica's service
    rate is ``completed / in-request seconds`` — requests finished per
    second of time actually spent serving them — the live analogue of
    :func:`repro.pipeline.heterogeneous.balanced_fractions`'s
    throughput-proportional split.  Replicas with no completions in the
    window keep a uniform share (no evidence either way).
    """
    if not replica_windows:
        raise CalibrationError("no replica windows to recommend weights from")
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
