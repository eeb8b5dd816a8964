"""The job runner: a bounded pool of slots driving GA jobs.

Each slot is one daemon thread that pulls job IDs off a queue and
drives :meth:`~repro.optimize.ga.GeneticOptimizer.run_from` *one
generation at a time* (a one-generation config per step), so every
generation boundary is a clean point to:

* record a progress event (the ``/jobs/<id>/events`` stream);
* honour cooperative cancellation;
* checkpoint (population after the evolve, exact RNG state, history);
* stop gracefully on shutdown — the job stays ``RUNNING`` on disk and
  resumes from its checkpoint on the next boot.

Stepping one generation at a time is *identical* to one multi-
generation run: ``run_from`` evaluates, records, and evolves each
generation with no state outside the (population, rng, history) triple
that the checkpoint captures exactly.  That, plus the stable ranking
sort in :mod:`repro.optimize.history`, is why a resumed run's history
is byte-identical to an uninterrupted one.

A raising progress callback (or any per-job failure) marks that job
``FAILED`` and leaves the runner thread alive for the next job.
"""

from __future__ import annotations

import dataclasses
import queue
import threading
import time
from typing import Callable, List, Optional

import numpy as np

from repro.errors import JobError
from repro.jobs.evaluator import BatchedGenerationEvaluator
from repro.jobs.metrics import JobMetrics
from repro.jobs.model import (
    JobRecord,
    JobSpec,
    JobState,
    history_from_dict,
    history_to_dict,
    rng_from_dict,
    rng_state_to_dict,
)
from repro.jobs.store import JobStore
from repro.optimize.ga import GeneticOptimizer
from repro.optimize.history import OptimizationHistory

#: Trace-span name for one GA generation (folded into the tracer's
#: ``stages`` aggregate as ``generation_seconds``).
STAGE_GENERATION = "generation"


class JobRunner:
    """Executes jobs from a :class:`~repro.jobs.store.JobStore`.

    Parameters
    ----------
    store:
        The durable store holding specs, states, and checkpoints.
    slots:
        Concurrent job slots (worker threads); default 1 — GA jobs are
        batch-parallel *inside* a generation already.
    tracer:
        Optional :class:`~repro.serve.tracing.Tracer`; each generation
        of each job becomes one sampled trace with a ``generation``
        span.
    metrics:
        Shared :class:`~repro.jobs.metrics.JobMetrics` (defaults to the
        store's).
    on_generation:
        Optional callback ``(record, generation_summary)`` after every
        completed generation.  A raising callback fails *that job* —
        never the runner thread.
    """

    def __init__(self, store: JobStore, *, slots: int = 1,
                 tracer=None,
                 metrics: Optional[JobMetrics] = None,
                 on_generation: Optional[Callable] = None) -> None:
        if int(slots) < 1:
            raise JobError(f"job slots must be >= 1, got {slots}")
        self.store = store
        self.slots = int(slots)
        self.tracer = tracer
        self.metrics = metrics if metrics is not None else store.metrics
        self.on_generation = on_generation
        self._queue: "queue.Queue" = queue.Queue()
        self._threads: List[threading.Thread] = []
        self._stopping = threading.Event()
        self._started = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> "JobRunner":
        """Start the slot threads and requeue unfinished jobs.

        Jobs found ``RUNNING`` (the previous process crashed mid-run)
        are counted as resumed and continue from their last checkpoint;
        ``PENDING`` jobs simply start.
        """
        if self._started:
            raise JobError("runner is already started")
        self._started = True
        for record in self.store.resumable():
            if record.state == JobState.RUNNING:
                self.store.mark_resumed(record.id)
            self._queue.put(record.id)
        for index in range(self.slots):
            thread = threading.Thread(target=self._worker,
                                      name=f"repro-job-slot-{index}",
                                      daemon=True)
            thread.start()
            self._threads.append(thread)
        return self

    def close(self, timeout: float = 10.0) -> bool:
        """Stop gracefully: running jobs checkpoint and stay RUNNING.

        Returns True when every slot thread exited within *timeout*.
        Safe to call before :meth:`start` and idempotent.
        """
        self._stopping.set()
        for _ in self._threads:
            self._queue.put(None)
        deadline = time.monotonic() + timeout
        alive = False
        for thread in self._threads:
            thread.join(max(0.0, deadline - time.monotonic()))
            alive = alive or thread.is_alive()
        return not alive

    @property
    def queue_depth(self) -> int:
        """Approximate number of jobs waiting for a slot."""
        return self._queue.qsize()

    # ------------------------------------------------------------------
    # Submission / cancellation
    # ------------------------------------------------------------------

    def submit(self, spec: JobSpec, *,
               job_key: Optional[str] = None) -> JobRecord:
        """Register a job and queue it for the next free slot.

        With *job_key* set submission is idempotent: a duplicate key
        returns the existing record and does **not** enqueue a second
        run (the store's ``submit_idempotent`` decides atomically, so
        two racing duplicates still produce exactly one queued job).
        """
        if job_key is not None:
            record, created = self.store.submit_idempotent(spec, job_key)
            if not created:
                return record
        else:
            record = self.store.submit(spec)
        self._queue.put(record.id)
        return record

    def cancel(self, job_id: str) -> JobRecord:
        """Request cooperative cancellation (see ``JobStore.request_cancel``)."""
        return self.store.request_cancel(job_id)

    def metrics_snapshot(self) -> dict:
        """The ``jobs`` section of the ``/metrics`` document."""
        snapshot = dict(self.metrics.snapshot())
        snapshot["slots"] = self.slots
        snapshot["queue_depth"] = self.queue_depth
        snapshot["states"] = self.store.state_counts()
        snapshot["torn_journal_lines"] = self.store.torn_lines
        return snapshot

    # ------------------------------------------------------------------
    # Worker side
    # ------------------------------------------------------------------

    def _worker(self) -> None:
        while True:
            job_id = self._queue.get()
            if job_id is None:
                return
            if self._stopping.is_set():
                # Leave the job PENDING/RUNNING on disk; the next boot
                # requeues it via resumable().
                continue
            try:
                record = self.store.get(job_id)
            except JobError:
                continue
            if record.terminal:
                continue
            if record.cancel_requested:
                self.store.mark_cancelled(job_id)
                continue
            try:
                self._drive(record)
            except Exception as error:  # fail the job, not the thread
                try:
                    self.store.mark_failed(
                        job_id, f"{type(error).__name__}: {error}"
                    )
                except JobError:
                    pass  # lost a race with a terminal transition

    def _drive(self, record: JobRecord) -> None:
        spec = record.spec
        evaluator = spec.fitness_evaluator()
        config = spec.ga_config()
        checkpoint = self.store.load_checkpoint(record.id)
        if checkpoint is not None:
            population = [np.asarray(genome, dtype=np.float64)
                          for genome in checkpoint["population"]]
            rng = rng_from_dict(checkpoint["rng_state"])
            history = history_from_dict(checkpoint["history"])
            start_generation = int(checkpoint["generation_offset"])
        else:
            rng = np.random.default_rng(spec.seed)
            population = [evaluator.layout.random_genome(rng)
                          for _ in range(config.population_size)]
            history = OptimizationHistory()
            start_generation = 0
        self.store.mark_running(record.id)
        step_config = dataclasses.replace(config, generations=1)
        total = config.generations
        for generation in range(start_generation, total):
            if record.cancel_requested:
                self.store.mark_cancelled(record.id)
                return
            if self._stopping.is_set():
                # Graceful shutdown between generations: persist and
                # leave the job RUNNING so the next boot resumes it.
                self._write_checkpoint(record, population, rng, history,
                                       generation)
                return
            trace = (self.tracer.start(f"{record.id}:g{generation}")
                     if self.tracer is not None else None)
            stage_hook = None
            if trace is not None:
                def stage_hook(stage, start, end, count, _trace=trace):
                    _trace.add_stage(stage, start, end)
            batched = BatchedGenerationEvaluator(evaluator,
                                                 stage_hook=stage_hook)
            optimizer = GeneticOptimizer(evaluator=evaluator,
                                         config=step_config,
                                         evaluate_all=batched)
            started = time.monotonic()
            population = optimizer.run_from(
                population, rng, history=history,
                generation_offset=generation,
            )
            ended = time.monotonic()
            summary = history.generations[-1]
            if trace is not None:
                trace.add_stage(STAGE_GENERATION, started, ended)
                trace.annotate(job_id=record.id, generation=generation,
                               batch_size=config.population_size)
                self.tracer.finish(trace, "completed")
            self.store.record_progress(record.id, generation, {
                "best_fitness": summary.best_fitness,
                "mean_fitness": summary.mean_fitness,
                "feasible_fraction": summary.feasible_fraction,
            })
            self.metrics.increment("generations_completed")
            if self.on_generation is not None:
                self.on_generation(record, summary)
            if generation + 1 < total and (generation + 1) % spec.checkpoint_every == 0:
                # Cadence anchored at the absolute generation index, so
                # a resumed run checkpoints at the same boundaries.
                self._write_checkpoint(record, population, rng, history,
                                       generation + 1)
        self.store.mark_done(record.id, self._result(config, history))

    def _write_checkpoint(self, record: JobRecord, population, rng, history,
                          generation_offset: int) -> None:
        self.store.write_checkpoint(record.id, {
            "job_id": record.id,
            "generation_offset": int(generation_offset),
            "population": [genome.tolist() for genome in population],
            "rng_state": rng_state_to_dict(rng),
            "history": history_to_dict(history),
        })

    @staticmethod
    def _result(config, history: OptimizationHistory) -> dict:
        champion = history.champion
        return {
            "champion": {
                "genome": champion.genome.tolist(),
                "fitness": champion.fitness,
                "cl": champion.cl,
                "cd": champion.cd,
            },
            "best_fitness_trace": history.best_fitness_trace().tolist(),
            "generations": config.generations,
            "evaluations": config.total_evaluations,
            "history": history_to_dict(history),
        }
