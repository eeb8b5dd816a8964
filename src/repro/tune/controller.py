"""The online autotuning control loops (serve and cluster flavours).

Every K seconds the controller turns one ``/metrics`` window into at
most one decision:

1. **Calibrate** — fit a
   :class:`~repro.tune.calibrate.CalibratedWorkstation` from the window
   (probing the machine's batch-scaling curve once per observed
   workload mix), and validate its prediction against the measured
   latency.
2. **Recommend** — sweep the policy grid
   (:func:`~repro.tune.recommend.recommend_policy`).
3. **Act with hysteresis** — only on a predicted improvement at or
   above the threshold, only when the calibration is within its
   tolerance band, and never while the service is draining.  ``advise``
   mode stops after recording the recommendation; ``apply`` mode swaps
   the live :class:`~repro.serve.batcher.BatchPolicy`.

Every decision — including the held ones — lands in a bounded journal
with the old config, the new config, and the predicted delta; applied
decisions get their *realized* delta filled in from the next window, so
``/debug/autotune`` always shows whether the model's promises came
true.
"""

from __future__ import annotations

import dataclasses
import os
import threading
import time
from collections import deque
from typing import Deque, Dict, Optional

from repro.errors import TuneError
from repro.tune.calibrate import (
    DEFAULT_MIN_SAMPLES,
    CalibratedWorkstation,
    delta_counter,
    probe_stage_curves,
)
from repro.tune.recommend import (
    DEFAULT_BATCH_GRID,
    DEFAULT_WAIT_GRID_MS,
    TuneRecommendation,
    recommend_policy,
    recommend_weights,
)

#: Accepted autotune modes.
MODES = ("off", "advise", "apply")

#: Environment variable supplying the default mode.
MODE_ENV = "REPRO_AUTOTUNE"


def resolve_mode(mode: Optional[str]) -> str:
    """Normalize an autotune mode (``None`` reads :data:`MODE_ENV`)."""
    if mode is None:
        mode = os.environ.get(MODE_ENV, "off")
    mode = str(mode).strip().lower() or "off"
    if mode not in MODES:
        raise TuneError(
            f"autotune mode must be one of {MODES}, got {mode!r}"
        )
    return mode


@dataclasses.dataclass(frozen=True)
class AutotuneConfig:
    """Knobs of the control loop itself.

    ``min_improvement`` is the hysteresis threshold: predicted
    fractional latency improvement below it holds the current config
    (and for the cluster loop, the fraction of traffic a reweight would
    move).  ``tolerance`` is the calibration validation band — apply
    mode refuses to act on a model whose prediction misses the measured
    latency by more than this fraction either way.
    """

    mode: str = "advise"
    interval: float = 30.0
    min_improvement: float = 0.10
    tolerance: float = 1.0
    min_samples: int = DEFAULT_MIN_SAMPLES
    journal_size: int = 64
    probe: bool = True
    batch_grid: tuple = DEFAULT_BATCH_GRID
    wait_grid_ms: tuple = DEFAULT_WAIT_GRID_MS

    def __post_init__(self) -> None:
        if self.mode not in MODES[1:]:
            raise TuneError(
                f"controller mode must be 'advise' or 'apply', got {self.mode!r}"
            )
        if not self.interval > 0.0:
            raise TuneError(f"interval must be positive, got {self.interval!r}")
        if not 0.0 <= self.min_improvement < 1.0:
            raise TuneError(
                f"min_improvement must be in [0, 1), got {self.min_improvement!r}"
            )
        if not self.tolerance > 0.0:
            raise TuneError(f"tolerance must be positive, got {self.tolerance!r}")

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "interval_seconds": self.interval,
            "min_improvement": self.min_improvement,
            "tolerance": self.tolerance,
            "min_samples": self.min_samples,
            "probe": self.probe,
        }


class _LoopMixin:
    """Shared background-thread plumbing for both controllers."""

    _interval: float

    def _start_loop(self) -> None:
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = threading.Thread(
            target=self._loop, name=f"{type(self).__name__}-loop", daemon=True
        )
        self._thread.start()

    def start(self) -> None:
        """Start the periodic loop (for owners constructed with
        ``start_thread=False`` that defer to their own start())."""
        if getattr(self, "_thread", None) is None:
            self._start_loop()

    def _loop(self) -> None:
        while not self._stop.wait(self._interval):
            try:
                self.run_cycle()
            except Exception as error:  # keep the loop alive; surface in counters
                self._record_cycle_error(error)

    def close(self, timeout: float = 5.0) -> None:
        """Stop the loop (idempotent; never blocks a drain)."""
        thread = getattr(self, "_thread", None)
        if thread is None:
            return
        self._stop.set()
        thread.join(timeout)
        self._thread = None


class AutotuneController(_LoopMixin):
    """Closes the loop for one :class:`~repro.serve.AnalysisService`.

    Construct with ``start_thread=False`` (tests, benchmarks) to drive
    :meth:`run_cycle` manually; the service wires the periodic thread.
    """

    def __init__(self, service, config: AutotuneConfig, *,
                 start_thread: bool = True) -> None:
        self._service = service
        self.config = config
        self._interval = config.interval
        self._lock = threading.RLock()
        self._counters: Dict[str, int] = {
            "cycles": 0, "probes": 0, "applies": 0, "advises": 0,
            "holds": 0, "cycle_errors": 0,
        }
        self._journal: Deque[dict] = deque(maxlen=config.journal_size)
        self._seq = 0
        self._previous_snapshot: Optional[dict] = None
        self._probe_curves = None
        self._probe_mix: Optional[tuple] = None
        self._calibrated: Optional[CalibratedWorkstation] = None
        self._report = None
        self._recommendation: Optional[TuneRecommendation] = None
        self._pending: Optional[dict] = None
        self._last_error: Optional[str] = None
        self._thread = None
        if start_thread:
            self._start_loop()

    # ------------------------------------------------------------------
    # One control cycle
    # ------------------------------------------------------------------

    def run_cycle(self) -> dict:
        """Calibrate, recommend, and decide once; returns the decision."""
        with self._lock:
            return self._cycle_locked()

    def _cycle_locked(self) -> dict:
        self._counters["cycles"] += 1
        snapshot = self._service.metrics_snapshot()
        previous, self._previous_snapshot = self._previous_snapshot, snapshot
        window = self._window_stats(snapshot, previous)
        self._realize_pending(window)

        try:
            calibrated = self._calibrate(snapshot, previous)
        except TuneError as error:
            return self._decide(action="held", reason="insufficient-traffic",
                                detail=str(error), window=window)
        self._calibrated = calibrated
        report = calibrated.validate(
            self._service.policy, n_workers=self._service.n_workers,
            tolerance=self.config.tolerance,
        )
        self._report = report
        recommendation = recommend_policy(
            calibrated, self._service.policy,
            n_workers=self._service.n_workers,
            batch_grid=self.config.batch_grid,
            wait_grid_ms=self.config.wait_grid_ms,
        )
        self._recommendation = recommendation

        improvement = recommendation.predicted_improvement
        if improvement < self.config.min_improvement:
            return self._decide(action="held", reason="below-threshold",
                                window=window, recommendation=recommendation,
                                report=report)
        if self.config.mode == "advise":
            return self._decide(action="advised", reason="improvement-predicted",
                                window=window, recommendation=recommendation,
                                report=report)
        # The validation band only means something in the regime the
        # stationary model covers: under predicted overload the measured
        # latency is queue-dominated and unboundedly above any stationary
        # prediction, and holding there would wedge the loop in the one
        # state it most needs to escape.
        if (not report.within_tolerance
                and recommendation.current_prediction.feasible):
            return self._decide(action="held", reason="calibration-out-of-band",
                                window=window, recommendation=recommendation,
                                report=report)
        if self._service.draining:
            return self._decide(action="held", reason="draining", window=window,
                                recommendation=recommendation, report=report)
        self._service.apply_policy(recommendation.best.policy())
        decision = self._decide(action="applied", reason="improvement-predicted",
                                window=window, recommendation=recommendation,
                                report=report)
        self._pending = decision
        return decision

    # ------------------------------------------------------------------
    # Cycle pieces
    # ------------------------------------------------------------------

    def _calibrate(self, snapshot: dict,
                   previous: Optional[dict]) -> CalibratedWorkstation:
        live = CalibratedWorkstation.fit(snapshot, previous,
                                         min_samples=self.config.min_samples)
        if not self.config.probe:
            return live
        mix_key = (live.mix.n_panels, live.mix.precision)
        if self._probe_curves is None or self._probe_mix != mix_key:
            self._probe_curves = probe_stage_curves(
                n_panels=live.mix.n_panels,
                precision=live.mix.precision,
                kernel=self._service.assembly_kernel,
            )
            self._probe_mix = mix_key
            self._counters["probes"] += 1
        return CalibratedWorkstation.fit(snapshot, previous,
                                         probe=self._probe_curves,
                                         min_samples=self.config.min_samples)

    @staticmethod
    def _window_stats(snapshot: dict, previous: Optional[dict]) -> dict:
        seconds = delta_counter(snapshot, previous, "uptime_seconds")
        completed = delta_counter(snapshot, previous, "requests", "completed")
        latency_sum = delta_counter(snapshot, previous,
                                    "latency_hist_ms", "count")
        latency_ms = delta_counter(snapshot, previous,
                                   "latency_hist_ms", "sum_ms")
        return {
            "seconds": round(seconds, 3),
            "completed": completed,
            "throughput_rps": (completed / seconds if seconds > 0.0 else 0.0),
            "mean_latency_ms": (latency_ms / latency_sum
                                if latency_sum > 0.0 else None),
        }

    def _realize_pending(self, window: dict) -> None:
        """Fill the realized delta of the last applied decision."""
        pending, self._pending = self._pending, None
        if pending is None:
            return
        before = pending.get("window", {})
        realized = {
            "throughput_before_rps": round(before.get("throughput_rps", 0.0), 2),
            "throughput_after_rps": round(window.get("throughput_rps", 0.0), 2),
            "latency_before_ms": before.get("mean_latency_ms"),
            "latency_after_ms": window.get("mean_latency_ms"),
        }
        b_lat, a_lat = realized["latency_before_ms"], realized["latency_after_ms"]
        if b_lat and a_lat and b_lat > 0.0:
            pending["realized_improvement"] = round((b_lat - a_lat) / b_lat, 4)
        b_thr = realized["throughput_before_rps"]
        if b_thr > 0.0:
            pending["realized_throughput_gain"] = round(
                realized["throughput_after_rps"] / b_thr, 3
            )
        pending["realized"] = realized

    def _decide(self, *, action: str, reason: str, window: dict,
                recommendation: Optional[TuneRecommendation] = None,
                report=None, detail: Optional[str] = None) -> dict:
        self._seq += 1
        policy = self._service.policy
        decision = {
            "seq": self._seq,
            "at": time.time(),
            "mode": self.config.mode,
            "action": action,
            "reason": reason,
            "old": {"max_batch": policy.max_batch,
                    "max_wait_ms": round(1e3 * policy.max_wait, 3)},
            "new": None,
            "predicted_improvement": None,
            "realized_improvement": None,
            "window": window,
        }
        if detail is not None:
            decision["detail"] = detail
        if recommendation is not None:
            decision["new"] = recommendation.best.to_dict()
            decision["predicted_improvement"] = round(
                recommendation.predicted_improvement, 4
            )
            decision["predicted_delta_ms"] = round(
                recommendation.predicted_delta_ms, 3
            )
            if action == "applied":
                # After apply_policy the service already runs `new`;
                # `old` above was captured... recompute from the sweep's
                # current row instead.
                decision["old"] = recommendation.current.to_dict()
        if report is not None:
            decision["calibration"] = report.to_dict()
        counter = {"applied": "applies", "advised": "advises"}.get(action, "holds")
        self._counters[counter] += 1
        self._journal.append(decision)
        self._service.logger.event("autotune", **{
            key: value for key, value in decision.items()
            if key in ("seq", "action", "reason", "predicted_improvement",
                       "old", "new")
        })
        return decision

    def _record_cycle_error(self, error: BaseException) -> None:
        with self._lock:
            self._counters["cycle_errors"] += 1
            self._last_error = f"{type(error).__name__}: {error}"

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def journal(self) -> list:
        """Decisions, oldest first (bounded by ``journal_size``)."""
        with self._lock:
            return [dict(entry) for entry in self._journal]

    def snapshot(self) -> dict:
        """The ``autotune`` section of ``/metrics``."""
        with self._lock:
            last = self._journal[-1] if self._journal else None
            section = dict(self.config.to_dict())
            section.update(self._counters)
            section["decisions"] = len(self._journal)
            section["last_action"] = last["action"] if last else None
            section["last_reason"] = last["reason"] if last else None
            section["predicted_improvement"] = (
                last.get("predicted_improvement") if last else None
            )
            section["realized_improvement"] = (
                last.get("realized_improvement") if last else None
            )
            if self._report is not None:
                section["calibration"] = self._report.to_dict()
            if self._last_error is not None:
                section["last_error"] = self._last_error
            return section

    def debug_document(self) -> dict:
        """The ``GET /debug/autotune`` body: full sweep + journal."""
        with self._lock:
            document = {
                "config": self.config.to_dict(),
                "calibration": (self._calibrated.to_dict()
                                if self._calibrated else None),
                "validation": (self._report.to_dict()
                               if self._report else None),
                "recommendation": (
                    self._recommendation.to_dict(sweep_limit=None)
                    if self._recommendation else None
                ),
                "journal": [dict(entry) for entry in self._journal],
            }
            calibrated = self._calibrated
        document["paper"] = self._paper_optimum(calibrated)
        return document

    @staticmethod
    def _paper_optimum(calibrated: Optional[CalibratedWorkstation]) -> Optional[dict]:
        """The paper's interleaving optimum, recomputed on fitted rates."""
        if calibrated is None:
            return None
        try:
            from repro.pipeline.autotune import tune_slices
            from repro.pipeline.workload import Workload

            station = calibrated.as_workstation()
            workload = Workload(batch=4096, n=calibrated.mix.n_panels,
                                precision=calibrated.mix.precision)
            result = tune_slices(workload, station)
            return {
                "optimal_slices": result.best_parameter,
                "wall_time_seconds": round(result.best_wall_time, 4),
                "note": "tune_slices on the fitted host throughputs "
                        "(paper reference batch 4096)",
            }
        except Exception as error:
            return {"error": f"{type(error).__name__}: {error}"}

    def render_table(self, *, limit: int = 16) -> str:
        """ASCII sweep table (``GET /debug/autotune?format=ascii``)."""
        with self._lock:
            recommendation = self._recommendation
            journal = list(self._journal)[-6:]
        lines = []
        if recommendation is None:
            lines.append("no sweep yet; waiting for a traffic window")
        else:
            lines.append(f"{'max_batch':>9} {'wait_ms':>8} "
                         f"{'batch':>7} {'lat_ms':>9} {'rps':>9} feasible")
            for config, prediction in recommendation.sweep[:limit]:
                marker = " <- best" if config == recommendation.best else ""
                lines.append(
                    f"{config.max_batch:>9} {1e3 * config.max_wait:>8.1f} "
                    f"{prediction.batch_size:>7.1f} "
                    f"{prediction.latency_ms:>9.2f} "
                    f"{prediction.throughput_rps:>9.1f} "
                    f"{str(prediction.feasible):>8}{marker}"
                )
            lines.append("")
            lines.append(
                f"predicted improvement: "
                f"{100.0 * recommendation.predicted_improvement:.1f}%"
            )
        if journal:
            lines.append("")
            lines.append("recent decisions:")
            for entry in journal:
                lines.append(
                    f"  #{entry['seq']} {entry['action']:<8} {entry['reason']}"
                    + (f" predicted={entry['predicted_improvement']}"
                       if entry.get("predicted_improvement") is not None else "")
                    + (f" realized={entry['realized_improvement']}"
                       if entry.get("realized_improvement") is not None else "")
                )
        return "\n".join(lines) + "\n"


class ClusterAutotuner(_LoopMixin):
    """Per-replica weight tuning for one :class:`~repro.cluster.ClusterRouter`.

    Scrapes every replica's ``/metrics`` each cycle, deltas the windows,
    and recommends routing weights proportional to measured service
    rate (:func:`~repro.tune.recommend.recommend_weights`).  ``apply``
    mode reweights the consistent-hash ring — with hysteresis on the
    fraction of traffic that would move, since every reweight costs
    cache locality on the keys that change owner.
    """

    def __init__(self, router, config: AutotuneConfig, *,
                 start_thread: bool = True) -> None:
        self._router = router
        self.config = config
        self._interval = config.interval
        self._lock = threading.RLock()
        self._counters: Dict[str, int] = {
            "cycles": 0, "applies": 0, "advises": 0, "holds": 0,
            "cycle_errors": 0,
        }
        self._journal: Deque[dict] = deque(maxlen=config.journal_size)
        self._seq = 0
        self._previous: Dict[str, Optional[dict]] = {}
        self._recommendation = None
        self._last_error: Optional[str] = None
        self._thread = None
        if start_thread:
            self._start_loop()

    def run_cycle(self) -> dict:
        with self._lock:
            return self._cycle_locked()

    def _cycle_locked(self) -> dict:
        from repro.errors import ServeError

        self._counters["cycles"] += 1
        windows: Dict[str, dict] = {}
        for name, replica in sorted(self._router.replicas.items()):
            try:
                snapshot = replica.client.metrics()
            except ServeError:
                continue
            previous = self._previous.get(name)
            self._previous[name] = snapshot
            windows[name] = {
                "completed": delta_counter(snapshot, previous,
                                           "requests", "completed"),
                "latency_sum_ms": delta_counter(snapshot, previous,
                                                "latency_hist_ms", "sum_ms"),
            }
        observed = sum(window["completed"] for window in windows.values())
        if len(windows) < len(self._router.replicas) or observed < self.config.min_samples:
            return self._decide(action="held", reason="insufficient-traffic",
                                windows=windows)
        recommendation = recommend_weights(windows)
        self._recommendation = recommendation
        current = self._router.current_weights()
        move = 0.5 * sum(
            abs(recommendation.weights[name] - current.get(name, 0.0))
            for name in recommendation.weights
        )
        if move < self.config.min_improvement:
            return self._decide(action="held", reason="below-threshold",
                                windows=windows, recommendation=recommendation,
                                move=move)
        if self.config.mode == "advise":
            return self._decide(action="advised", reason="shift-predicted",
                                windows=windows, recommendation=recommendation,
                                move=move)
        self._router.apply_weights(recommendation.weights)
        return self._decide(action="applied", reason="shift-predicted",
                            windows=windows, recommendation=recommendation,
                            move=move)

    def _decide(self, *, action: str, reason: str, windows: dict,
                recommendation=None, move: Optional[float] = None) -> dict:
        self._seq += 1
        decision = {
            "seq": self._seq,
            "at": time.time(),
            "mode": self.config.mode,
            "action": action,
            "reason": reason,
            "old": self._router.current_weights(),
            "new": (recommendation.weights if recommendation else None),
            "traffic_move": None if move is None else round(move, 4),
            "window_completed": sum(w["completed"] for w in windows.values()),
        }
        counter = {"applied": "applies", "advised": "advises"}.get(action, "holds")
        self._counters[counter] += 1
        self._journal.append(decision)
        self._router.logger.event("autotune", seq=self._seq, action=action,
                                  reason=reason, traffic_move=decision["traffic_move"])
        return decision

    def _record_cycle_error(self, error: BaseException) -> None:
        with self._lock:
            self._counters["cycle_errors"] += 1
            self._last_error = f"{type(error).__name__}: {error}"

    def snapshot(self) -> dict:
        with self._lock:
            last = self._journal[-1] if self._journal else None
            section = dict(self.config.to_dict())
            section.update(self._counters)
            section["decisions"] = len(self._journal)
            section["last_action"] = last["action"] if last else None
            section["last_reason"] = last["reason"] if last else None
            if self._recommendation is not None:
                section["recommendation"] = self._recommendation.to_dict()
            if self._last_error is not None:
                section["last_error"] = self._last_error
            return section

    def debug_document(self) -> dict:
        with self._lock:
            return {
                "config": self.config.to_dict(),
                "weights": self._router.current_weights(),
                "recommendation": (self._recommendation.to_dict()
                                   if self._recommendation else None),
                "journal": [dict(entry) for entry in self._journal],
            }
