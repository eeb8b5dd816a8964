"""Online autotuning: calibrate the simulator from production, close the loop.

``repro.tune`` turns the paper's offline tuners into a serving-path
control loop:

- :mod:`repro.tune.calibrate` fits per-stage unit throughputs from live
  ``/metrics`` windows (plus an optional in-process microprobe for the
  batch-scaling curve) into a :class:`CalibratedWorkstation` that can
  both predict serving latency and re-anchor the paper's simulator.
- :mod:`repro.tune.recommend` sweeps the serving-knob grid —
  ``BatchPolicy(max_batch, max_wait)``, per-replica weights — exactly
  the way :func:`repro.pipeline.autotune.tune_slices` sweeps slice
  counts.
- :mod:`repro.tune.controller` runs the periodic advise/apply loop with
  hysteresis and a decision journal, for both the single-node service
  and the cluster router.
"""

from repro.tune.calibrate import (
    CalibratedWorkstation,
    CalibrationReport,
    ObservedMix,
    ServingPrediction,
    StageCost,
    fit_stage_means,
    probe_stage_curves,
)
from repro.tune.controller import (
    AutotuneConfig,
    AutotuneController,
    ClusterAutotuner,
    resolve_mode,
)
from repro.tune.recommend import (
    CandidateConfig,
    TuneRecommendation,
    WeightRecommendation,
    recommend_policy,
    recommend_weights,
)

__all__ = [
    "AutotuneConfig",
    "AutotuneController",
    "CalibratedWorkstation",
    "CalibrationReport",
    "CandidateConfig",
    "ClusterAutotuner",
    "ObservedMix",
    "ServingPrediction",
    "StageCost",
    "TuneRecommendation",
    "WeightRecommendation",
    "fit_stage_means",
    "probe_stage_curves",
    "recommend_policy",
    "recommend_weights",
    "resolve_mode",
]
