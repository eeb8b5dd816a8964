"""Durable asynchronous GA-optimization jobs with checkpoint/resume.

The jobs subsystem turns the paper's real workload — a genetic
optimization run of thousands of candidate evaluations — into the
long-running-work shape every production serving stack has: submit a
job over HTTP, stream its per-generation progress, cancel it, survive
a server restart, and fetch the result later.

Layers (see ``docs/jobs.md``):

* :mod:`repro.jobs.model` — specs, records, state machine, exact
  serialization of populations / RNG state / optimization history;
* :mod:`repro.jobs.store` — append-only JSONL journal (torn-tail
  tolerant) plus atomic per-job checkpoint files;
* :mod:`repro.jobs.evaluator` — whole-generation evaluation through
  the shared batched solve path, bit-identical to the serial loop;
* :mod:`repro.jobs.runner` — bounded job slots driving the GA one
  generation at a time with checkpointing, cooperative cancellation,
  and crash resume;
* :mod:`repro.jobs.metrics` — the counters behind the ``jobs`` section
  of ``/metrics``.
"""

from repro.jobs.evaluator import BatchedGenerationEvaluator
from repro.jobs.metrics import JobMetrics
from repro.jobs.model import (
    JobRecord,
    JobSpec,
    JobState,
    derive_job_id,
    history_from_dict,
    history_to_dict,
    json_safe,
    rng_from_dict,
    rng_state_to_dict,
    validate_job_key,
)
from repro.jobs.runner import STAGE_GENERATION, JobRunner
from repro.jobs.store import JobStore

__all__ = [
    "BatchedGenerationEvaluator",
    "JobMetrics",
    "JobRecord",
    "JobRunner",
    "JobSpec",
    "JobState",
    "JobStore",
    "STAGE_GENERATION",
    "derive_job_id",
    "history_from_dict",
    "history_to_dict",
    "json_safe",
    "rng_from_dict",
    "rng_state_to_dict",
    "validate_job_key",
]
