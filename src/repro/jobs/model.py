"""Job model: specs, records, the state machine, and serialization.

A *job* is one durable GA optimization run.  Its :class:`JobSpec` is
the wire-format description (seed, GA hyper-parameters, fitness
configuration, checkpoint cadence); its :class:`JobRecord` is the
mutable server-side state that the :class:`~repro.jobs.store.JobStore`
journals and the :class:`~repro.jobs.runner.JobRunner` drives through
the state machine::

    PENDING -> RUNNING -> {DONE, FAILED, CANCELLED}

This module also owns the serialization helpers shared by the journal,
the checkpoint files, and the HTTP layer: exact round-tripping of
genomes (``repr`` of a float64 survives JSON), of
:class:`~repro.optimize.history.OptimizationHistory`, and of
``np.random.Generator`` bit-generator state — the three ingredients of
byte-identical checkpoint/resume.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import string
from typing import Any, Dict, List, Optional

import numpy as np

from repro.core.api import MAX_PANELS
from repro.errors import JobError, OptimizationError
from repro.optimize.fitness import FitnessEvaluator
from repro.optimize.ga import GAConfig
from repro.optimize.genome import GenomeLayout
from repro.optimize.history import (
    GenerationRecord,
    Individual,
    OptimizationHistory,
)


class JobState:
    """The job state machine's vocabulary."""

    PENDING = "PENDING"
    RUNNING = "RUNNING"
    DONE = "DONE"
    FAILED = "FAILED"
    CANCELLED = "CANCELLED"

    #: Terminal states: no further transitions are legal.
    TERMINAL = frozenset({DONE, FAILED, CANCELLED})

    #: Every legal state name.
    ALL = frozenset({PENDING, RUNNING, DONE, FAILED, CANCELLED})


#: Top-level wire-format fields accepted by :meth:`JobSpec.from_dict`.
SPEC_FIELDS = ("seed", "checkpoint_every", "ga", "fitness")

#: Longest accepted client-supplied job key.
MAX_JOB_KEY_LENGTH = 128

#: Characters allowed in a job key (same family as request IDs:
#: UUIDs, ULIDs, and dotted formats pass; header/log injection does not).
_JOB_KEY_ALLOWED = frozenset(string.ascii_letters + string.digits + "-_.:/")


def validate_job_key(value) -> str:
    """A validated client-supplied idempotency key.

    Job keys make ``POST /jobs`` idempotent: resubmitting the same key
    returns the existing job instead of double-running it, which is
    what lets the cluster router's failover re-place a job without
    risking two live copies.
    """
    if not isinstance(value, str):
        raise JobError(f"job_key must be a string, got {type(value).__name__}")
    if not value or len(value) > MAX_JOB_KEY_LENGTH:
        raise JobError(
            f"job_key must be 1..{MAX_JOB_KEY_LENGTH} characters, "
            f"got {len(value)}"
        )
    if not set(value) <= _JOB_KEY_ALLOWED:
        bad = sorted(set(value) - _JOB_KEY_ALLOWED)
        raise JobError(f"job_key contains forbidden characters: {bad}")
    return value


def derive_job_id(job_key: str) -> str:
    """The deterministic job ID a keyed submission creates.

    Keyed jobs get an ID derived from the key (not a random UUID) so
    every store that sees the same key materializes the same ID.  The
    cluster router leans on this during migration: it can stage the
    dead replica's checkpoint file under the survivor's checkpoint
    directory *before* resubmitting, because it knows what ID the
    resubmission will get.
    """
    digest = hashlib.sha256(f"job-key:{job_key}".encode("utf-8")).hexdigest()
    return f"job-k{digest[:12]}"

#: GA hyper-parameter overrides accepted in the spec's ``ga`` object
#: (each maps straight onto a :class:`~repro.optimize.ga.GAConfig`
#: field, which performs the real validation).
GA_FIELDS = (
    "population_size", "generations", "tournament_size",
    "crossover_probability", "mutation_probability", "mutation_scale",
    "elitism", "keep_best", "selection",
)

#: Fitness-evaluator overrides accepted in the spec's ``fitness``
#: object.
FITNESS_FIELDS = (
    "n_panels", "reynolds", "alpha_degrees", "min_thickness", "use_head",
)


@dataclasses.dataclass(frozen=True)
class JobSpec:
    """One durable optimization job, as described on the wire.

    Parameters
    ----------
    seed:
        PRNG seed; with the same seed a job is fully deterministic,
        which is what makes checkpoint/resume verifiable.
    ga:
        :class:`~repro.optimize.ga.GAConfig` overrides (validated by
        constructing the config).
    fitness:
        :class:`~repro.optimize.fitness.FitnessEvaluator` overrides
        (``n_panels``, ``reynolds``, ``alpha_degrees``,
        ``min_thickness``, ``use_head``).
    checkpoint_every:
        Checkpoint cadence in generations (1 = after every generation).
    """

    seed: int
    ga: Dict[str, Any] = dataclasses.field(default_factory=dict)
    fitness: Dict[str, Any] = dataclasses.field(default_factory=dict)
    checkpoint_every: int = 1

    def __post_init__(self) -> None:
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise JobError(f"seed must be an integer, got {self.seed!r}")
        if self.seed < 0:
            raise JobError(f"seed cannot be negative, got {self.seed}")
        try:
            cadence = int(self.checkpoint_every)
        except (TypeError, ValueError):
            raise JobError(
                f"checkpoint_every must be an integer, got {self.checkpoint_every!r}"
            )
        if cadence < 1:
            raise JobError(
                f"checkpoint_every must be >= 1, got {self.checkpoint_every!r}"
            )
        object.__setattr__(self, "checkpoint_every", cadence)
        for label, overrides, allowed in (
                ("ga", self.ga, GA_FIELDS), ("fitness", self.fitness, FITNESS_FIELDS)):
            if not isinstance(overrides, dict):
                raise JobError(f"'{label}' must be a JSON object")
            unknown = sorted(set(overrides) - set(allowed))
            if unknown:
                raise JobError(
                    f"unknown {label} fields: {', '.join(unknown)}"
                )
            object.__setattr__(self, label, dict(overrides))
        # Construct both eagerly so a bad spec fails at submission
        # (HTTP 400), never inside a runner thread.
        self.ga_config()
        self.fitness_evaluator()

    @classmethod
    def from_dict(cls, payload) -> "JobSpec":
        """Parse a wire-format job spec, rejecting unknown fields."""
        if not isinstance(payload, dict):
            raise JobError(
                f"job spec must be a JSON object, got {type(payload).__name__}"
            )
        unknown = sorted(set(payload) - set(SPEC_FIELDS))
        if unknown:
            raise JobError(f"unknown job spec fields: {', '.join(unknown)}")
        if "seed" not in payload:
            raise JobError("job spec is missing the 'seed' field")
        return cls(
            seed=payload["seed"],
            ga=payload.get("ga") or {},
            fitness=payload.get("fitness") or {},
            checkpoint_every=payload.get("checkpoint_every", 1),
        )

    def to_dict(self) -> dict:
        """The wire-format rendering of this spec."""
        return {
            "seed": self.seed,
            "ga": dict(self.ga),
            "fitness": dict(self.fitness),
            "checkpoint_every": self.checkpoint_every,
        }

    def ga_config(self) -> GAConfig:
        """The validated GA configuration this spec describes."""
        try:
            return GAConfig(**self.ga)
        except OptimizationError as error:
            raise JobError(f"invalid ga config: {error}")
        except TypeError as error:
            raise JobError(f"invalid ga config: {error}")

    def fitness_evaluator(self) -> FitnessEvaluator:
        """The validated fitness evaluator this spec describes."""
        overrides = dict(self.fitness)
        if "n_panels" in overrides:
            try:
                n_panels = int(overrides["n_panels"])
            except (TypeError, ValueError):
                raise JobError(
                    f"n_panels must be an integer, got {overrides['n_panels']!r}"
                )
            if not 3 <= n_panels <= MAX_PANELS:
                raise JobError(
                    f"n_panels must be in [3, {MAX_PANELS}], got {n_panels}"
                )
            overrides["n_panels"] = n_panels
        if "reynolds" in overrides:
            try:
                reynolds = float(overrides["reynolds"])
            except (TypeError, ValueError):
                raise JobError(
                    f"reynolds must be a number, got {overrides['reynolds']!r}"
                )
            if not math.isfinite(reynolds) or reynolds <= 0.0:
                raise JobError(
                    f"reynolds must be positive and finite, got {reynolds}"
                )
            overrides["reynolds"] = reynolds
        try:
            return FitnessEvaluator(layout=GenomeLayout(), **overrides)
        except OptimizationError as error:
            raise JobError(f"invalid fitness config: {error}")
        except TypeError as error:
            raise JobError(f"invalid fitness config: {error}")


@dataclasses.dataclass
class JobRecord:
    """The mutable server-side state of one job."""

    id: str
    spec: JobSpec
    state: str = JobState.PENDING
    job_key: Optional[str] = None
    created_at: float = 0.0
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    generations_done: int = 0
    cancel_requested: bool = False
    resumes: int = 0
    error: Optional[str] = None
    result: Optional[dict] = None

    @property
    def terminal(self) -> bool:
        """True once the job reached a terminal state."""
        return self.state in JobState.TERMINAL

    @property
    def total_generations(self) -> int:
        """How many generations the spec asks for."""
        return int(self.spec.ga.get("generations", GAConfig().generations))

    def to_dict(self, *, include_result: bool = True) -> dict:
        """The wire-format rendering (pass through :func:`json_safe`
        before HTTP serialization — results may hold non-finite
        floats)."""
        payload = {
            "id": self.id,
            "spec": self.spec.to_dict(),
            "state": self.state,
            "job_key": self.job_key,
            "created_at": self.created_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "generations_done": self.generations_done,
            "total_generations": self.total_generations,
            "cancel_requested": self.cancel_requested,
            "resumes": self.resumes,
            "error": self.error,
        }
        if include_result:
            payload["result"] = self.result
        return payload


# ----------------------------------------------------------------------
# Serialization helpers
# ----------------------------------------------------------------------


def rng_state_to_dict(rng: np.random.Generator) -> dict:
    """The full bit-generator state of *rng*, JSON-serializable.

    NumPy exposes the state as plain ints and strings (PCG64 carries
    128-bit integers, which Python JSON handles natively), so storing
    and restoring it is exact — the foundation of resume determinism.
    """
    return dict(rng.bit_generator.state)


def rng_from_dict(state: dict) -> np.random.Generator:
    """Reconstruct a generator from :func:`rng_state_to_dict` output."""
    name = state.get("bit_generator")
    bit_generator_cls = getattr(np.random, str(name), None)
    if bit_generator_cls is None:
        raise JobError(f"unknown bit generator {name!r} in checkpoint")
    bit_generator = bit_generator_cls()
    bit_generator.state = state
    return np.random.Generator(bit_generator)


def history_to_dict(history: OptimizationHistory) -> dict:
    """Serialize an optimization history exactly (floats via ``repr``)."""
    return {
        "generations": [
            {
                "index": record.index,
                "best": [
                    {
                        "genome": individual.genome.tolist(),
                        "fitness": individual.fitness,
                        "cl": individual.cl,
                        "cd": individual.cd,
                    }
                    for individual in record.best
                ],
                "best_fitness": record.best_fitness,
                "mean_fitness": record.mean_fitness,
                "feasible_fraction": record.feasible_fraction,
            }
            for record in history.generations
        ],
    }


def history_from_dict(payload: dict) -> OptimizationHistory:
    """Reconstruct a history from :func:`history_to_dict` output."""
    generations: List[GenerationRecord] = []
    for entry in payload.get("generations", []):
        best = [
            Individual(
                genome=np.asarray(item["genome"], dtype=np.float64),
                fitness=float(item["fitness"]),
                cl=float(item["cl"]),
                cd=float(item["cd"]),
            )
            for item in entry["best"]
        ]
        generations.append(GenerationRecord(
            index=int(entry["index"]),
            best=best,
            best_fitness=float(entry["best_fitness"]),
            mean_fitness=float(entry["mean_fitness"]),
            feasible_fraction=float(entry["feasible_fraction"]),
        ))
    return OptimizationHistory(generations=generations)


def json_safe(value):
    """Map non-finite floats to strings for strict-JSON transports.

    The journal and checkpoint files keep Python's ``Infinity`` /
    ``NaN`` tokens (they round-trip through :func:`json.loads`), but
    HTTP responses go through the strict
    :func:`repro.core.api.canonical_json` (``allow_nan=False``), so
    anything reaching the wire is sanitized here first: ``-inf``
    fitnesses become the string ``"-Infinity"`` etc.
    """
    if isinstance(value, dict):
        return {key: json_safe(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [json_safe(item) for item in value]
    if isinstance(value, float) and not math.isfinite(value):
        if math.isnan(value):
            return "NaN"
        return "Infinity" if value > 0 else "-Infinity"
    return value
