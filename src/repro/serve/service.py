"""The in-process analysis service: cache + micro-batcher + worker pool.

One :class:`AnalysisService` is the whole serving brain; the HTTP front
end (:mod:`repro.serve.http`) is a thin shell around it, and tests and
benchmarks drive it directly.

Request lifecycle:

1. **Admission** — the cache is consulted (a counted lookup); a hit
   resolves immediately, a miss is enqueued through the pool's bounded
   admission (shedding with :class:`~repro.errors.OverloadedError` when
   full).
2. **Coalescing** — a worker takes the request it was woken for plus
   whatever is already queued, up to ``max_batch``, and solves at once
   (see :func:`~repro.serve.batcher.collect_batch`).  Requests whose
   deadline has expired, or whose submitter cancelled, are dropped
   *here* — before they cost an assembly+LU solve — and counted in
   ``/metrics`` as ``expired`` / ``cancelled``.
3. **Dedup** — identical cache keys inside the batch collapse to one
   evaluation; the cache is re-checked in case an earlier batch filled
   it while this one queued.
4. **Solve** — unique requests go through
   :func:`repro.core.api.evaluate_requests`, which stacks same-size
   systems and runs the batched LU kernels.
5. **Fan-out** — results are serialized once, inserted into the cache,
   and every waiter (including coalesced duplicates, which count as
   cache hits) is resolved.
"""

from __future__ import annotations

import collections
import dataclasses
import time
from typing import Dict, List, Optional, Sequence, Union

from repro.core.api import (
    AnalyzeRequest,
    canonical_json,
    evaluate_requests,
    extract_deadline_ms,
    serialize_analysis,
    validate_deadline_ms,
)
from repro.errors import DeadlineExceededError, ServeError
from repro.linalg import blas_threads
from repro.obs.context import TraceContext
from repro.obs.ids import coerce_request_id
from repro.obs.logging import StructuredLogger
from repro.obs.slo import SLOTracker
from repro.obs.trace import Trace, walo_summary
from repro.serve.batcher import MAX_BATCH_CEILING
from repro.serve.cache import ResultCache
from repro.serve.metrics import ServiceMetrics
from repro.serve.tracing import (
    STAGE_BATCH_COLLECT,
    STAGE_CACHE_LOOKUP,
    STAGE_QUEUE_WAIT,
    STAGE_SERIALIZE,
    Tracer,
    render_recent,
)
from repro.serve.workers import PendingResult, WorkerPool

RequestLike = Union[AnalyzeRequest, dict]


@dataclasses.dataclass
class _Job:
    """One queued request with its waiter, arrival time, and deadline.

    ``deadline`` is an absolute :func:`time.monotonic` instant (or
    ``None`` for no deadline); ``deadline_ms`` keeps the original
    relative budget for error messages.  ``request_id`` identifies the
    request across traces, logs, and response headers; ``trace`` is the
    span tree when this request was sampled; ``dequeued`` is stamped by
    the worker's batch collection (the end of the queue wait).
    """

    request: AnalyzeRequest
    key: str
    pending: PendingResult
    enqueued: float
    deadline: Optional[float] = None
    deadline_ms: Optional[float] = None
    request_id: str = ""
    trace: Optional[Trace] = None
    dequeued: Optional[float] = None
    batch_size: Optional[int] = None
    cache_hit: bool = False
    finished: bool = False


class AnalysisService:
    """A long-running batched airfoil-evaluation service.

    Parameters
    ----------
    max_batch:
        The most requests one micro-batch may hold (default
        :data:`~repro.serve.batcher.MAX_BATCH_CEILING`).  There is no
        flush timer: a worker solves whatever is queued when it is free.
    cache_size:
        LRU capacity of the result cache (0 disables caching).
    n_workers:
        Worker threads coalescing and solving micro-batches.
    queue_limit:
        Admission bound; requests beyond it are shed.
    default_deadline_ms:
        Deadline budget applied to requests that do not carry their
        own (``None`` disables).  Expired requests are dropped at
        batch-collection time — they never cost an assembly+LU solve —
        and fail with :class:`~repro.errors.DeadlineExceededError`.
    trace_sample:
        Fraction of requests that get a full span trace (deterministic
        stride sampling; 1.0 traces everything, 0.0 disables tracing).
        Sampled-out requests still carry request IDs and structured
        log lines — sampling only controls span recording.
    trace_ring:
        Completed traces retained for ``/debug/trace``.
    logger:
        A :class:`~repro.obs.logging.StructuredLogger` receiving one
        event per request outcome (completed / failed / shed / expired
        / cancelled).  ``None`` logs nothing (the in-process default).
    jobs_dir:
        Directory for durable optimization jobs (journal +
        checkpoints); ``None`` (the default) disables the jobs
        subsystem and its HTTP routes.  Unfinished jobs found in the
        directory resume immediately.  See ``docs/jobs.md``.
    job_slots:
        Concurrent job slots when *jobs_dir* is set (default 1).
    slo_latency_ms, slo_target:
        The service-level objectives tracked by the ``slo`` section of
        ``/metrics``: a request is "good" when it completes within
        ``slo_latency_ms`` milliseconds, and the burn rate measures the
        error budget ``1 - slo_target`` being spent.  See
        ``docs/observability.md``.
    """

    def __init__(self, *, max_batch: int = MAX_BATCH_CEILING,
                 cache_size: int = 1024,
                 n_workers: int = 2, queue_limit: int = 256,
                 default_deadline_ms: Optional[float] = None,
                 trace_sample: float = 1.0, trace_ring: int = 256,
                 logger: Optional[StructuredLogger] = None,
                 jobs_dir: Optional[str] = None,
                 job_slots: int = 1,
                 slo_latency_ms: float = 250.0,
                 slo_target: float = 0.99) -> None:
        self.default_deadline_ms = (
            None if default_deadline_ms is None
            else validate_deadline_ms(default_deadline_ms)
        )
        self.cache = ResultCache(cache_size)
        self.metrics = ServiceMetrics()
        self.tracer = Tracer(sample_rate=trace_sample, ring_size=trace_ring)
        self.slo = SLOTracker(latency_ms=slo_latency_ms, target=slo_target)
        self.logger = logger if logger is not None else StructuredLogger("off")
        self._pool = WorkerPool(
            self._process_batch, max_batch,
            n_workers=n_workers, queue_limit=queue_limit,
            on_error=self._fail_batch, drop=self._drop_dead,
            on_admit=self._on_dequeue,
        )
        #: The :class:`~repro.jobs.runner.JobRunner` when *jobs_dir* is
        #: configured, else ``None`` (the HTTP layer 404s job routes).
        self.jobs = None
        if jobs_dir is not None:
            from repro.jobs import JobRunner, JobStore

            store = JobStore(jobs_dir, logger=self.logger)
            self.jobs = JobRunner(
                store, slots=job_slots, tracer=self.tracer,
            ).start()
        self._closed = False

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------

    @property
    def queue_depth(self) -> int:
        """Approximate number of requests waiting for a worker."""
        return self._pool.queue_depth

    @property
    def n_workers(self) -> int:
        """Worker threads coalescing and solving micro-batches."""
        return self._pool.n_workers

    @property
    def max_batch(self) -> int:
        """The most requests one micro-batch may hold."""
        return self._pool.max_batch

    def submit(self, request: RequestLike, *,
               deadline_ms: Optional[float] = None,
               request_id: Optional[str] = None,
               trace_context: Optional[TraceContext] = None) -> PendingResult:
        """Admit one request; returns the waiter for its response dict.

        ``deadline_ms`` is the relative budget this request may spend
        queued before it is shed (most specific wins: the explicit
        argument, then a ``deadline_ms`` field in a dict payload, then
        the service's ``default_deadline_ms``).  ``request_id`` is the
        caller-supplied trace identity (validated); one is generated
        when absent and exposed on the returned waiter's
        ``request_id`` attribute either way.  ``trace_context`` is a
        propagated :class:`~repro.obs.context.TraceContext` from an
        upstream hop (the cluster router, or a client opening a
        distributed trace): its head-based sampling decision overrides
        the local stride sampler, and the span tree is recorded under
        the *propagated* trace id so the upstream hop can pull it back
        by id and stitch it into the cluster-wide tree.  Raises
        :class:`ServeError` for malformed requests or after
        :meth:`close`, and :class:`~repro.errors.OverloadedError` when
        admission control sheds the request.
        """
        request_id = coerce_request_id(request_id)
        if self._closed:
            raise ServeError("service is closed")
        if isinstance(request, dict):
            request, payload_deadline = extract_deadline_ms(request)
            if deadline_ms is None:
                deadline_ms = payload_deadline
            request = AnalyzeRequest.from_dict(request)
        elif not isinstance(request, AnalyzeRequest):
            raise ServeError(
                f"submit expects an AnalyzeRequest or dict, "
                f"got {type(request).__name__}"
            )
        if deadline_ms is None:
            deadline_ms = self.default_deadline_ms
        else:
            deadline_ms = validate_deadline_ms(deadline_ms)
        if trace_context is not None:
            trace = self.tracer.start(trace_context.trace_id,
                                      sampled=trace_context.sampled)
        else:
            trace = self.tracer.start(request_id)
        key = request.cache_key()
        pending = PendingResult()
        pending.request_id = request_id
        lookup_started = time.monotonic()
        cached = self.cache.lookup(key)
        if cached is not None:
            self.cache.record(True)
            now = time.monotonic()
            self.metrics.record_admitted()
            self.metrics.record_completed(
                now - lookup_started,
                trace.trace_id if trace is not None else None,
            )
            self.slo.record(True, 1e3 * (now - lookup_started))
            pending.resolve(cached)
            if trace is not None:
                trace.add_stage(STAGE_CACHE_LOOKUP, lookup_started, now)
                trace.annotate(cache_hit=True, batch_size=0)
                self.tracer.finish(trace, "completed")
            self._log_request(request_id, "completed", cache_hit=True,
                              latency_ms=1e3 * (now - lookup_started),
                              trace=trace)
            return pending
        looked_up = time.monotonic()
        # A miss builds its geometry here, once: an invalid designation is
        # refused before admission, and the worker solves this outline.
        request = dataclasses.replace(request, airfoil=request.build_airfoil())
        now = time.monotonic()
        job = _Job(request=request, key=key, pending=pending, enqueued=now,
                   deadline=None if deadline_ms is None else now + deadline_ms / 1e3,
                   deadline_ms=deadline_ms,
                   request_id=request_id, trace=trace)
        if trace is not None:
            trace.add_stage(STAGE_CACHE_LOOKUP, lookup_started, looked_up)
        try:
            self._pool.submit(job, on_enqueue=self.metrics.record_admitted)
        except ServeError:
            self.cache.record(False)
            self.metrics.record_shed()
            self.slo.record(False)
            if trace is not None:
                self.tracer.finish(trace, "shed")
            self._log_request(request_id, "shed", trace=trace)
            raise
        return pending

    def _await(self, pending: PendingResult,
               timeout: Optional[float]) -> dict:
        """Wait on *pending*, detaching cleanly if the wait times out.

        A wait timeout cancels the pending result, so the worker that
        eventually reaches the job drops it instead of solving for
        nobody.  If the outcome lands between the timeout and the
        cancel attempt, it is returned (or re-raised) as usual.
        """
        try:
            return pending.result(timeout=timeout)
        except ServeError:
            if pending.cancel():
                raise  # a genuine wait timeout; the worker will skip it
            if pending.cancelled:
                raise  # someone else already detached this waiter
            # Delivered in the race window: surface the real outcome.
            return pending.result(timeout=None)

    def analyze(self, request: RequestLike, *,
                timeout: Optional[float] = 60.0,
                deadline_ms: Optional[float] = None,
                request_id: Optional[str] = None,
                trace_context: Optional[TraceContext] = None) -> dict:
        """Submit and block for the wire-format response dict."""
        return self._await(self.submit(request, deadline_ms=deadline_ms,
                                       request_id=request_id,
                                       trace_context=trace_context),
                           timeout)

    def analyze_batch(self, requests: Sequence[RequestLike], *,
                      timeout: Optional[float] = 60.0,
                      deadline_ms: Optional[float] = None,
                      request_id: Optional[str] = None,
                      trace_context: Optional[TraceContext] = None) -> List[dict]:
        """Submit many requests together and block for all responses.

        Every item is queued before any is awaited, so items that
        arrive while a worker is busy share its next stack.  An idle
        worker starts on what has been queued so far, so a large batch
        may be solved as a few stacks rather than one.  A shared
        ``request_id`` tags every item of the batch in traces and logs.
        """
        pendings = [self.submit(request, deadline_ms=deadline_ms,
                                request_id=request_id,
                                trace_context=trace_context)
                    for request in requests]
        return [self._await(pending, timeout) for pending in pendings]

    def analyze_json(self, request: RequestLike, *,
                     timeout: Optional[float] = 60.0,
                     deadline_ms: Optional[float] = None) -> str:
        """Like :meth:`analyze` but rendered through the canonical JSON."""
        return canonical_json(self.analyze(request, timeout=timeout,
                                           deadline_ms=deadline_ms))

    # ------------------------------------------------------------------
    # Worker side
    # ------------------------------------------------------------------

    def _on_dequeue(self, job: _Job) -> None:
        """Batch-collection admit hook: the end of the queue wait."""
        job.dequeued = time.monotonic()

    def _drop_dead(self, job: _Job) -> bool:
        """Batch-collection predicate: shed expired or abandoned work.

        Called by the worker for every dequeued job *before* it joins a
        micro-batch — the one place a dead request can still be dropped
        without having cost an assembly+LU solve.
        """
        if job.pending.cancelled:
            self.cache.record(False)
            self.metrics.record_cancelled()
            self._finish_job(job, "cancelled")
            return True
        if job.deadline is not None and time.monotonic() >= job.deadline:
            self.cache.record(False)
            delivered = job.pending.fail(DeadlineExceededError(
                f"deadline of {job.deadline_ms:g} ms expired after "
                f"{1e3 * (time.monotonic() - job.enqueued):.1f} ms in queue; "
                "request dropped before evaluation"
            ))
            if delivered:
                self.metrics.record_expired()
                self.slo.record(False)
                self._finish_job(job, "expired")
            else:
                self.metrics.record_cancelled()
                self._finish_job(job, "cancelled")
            return True
        return False

    def _process_batch(self, jobs: List[_Job]) -> None:
        flushed = time.monotonic()
        self.metrics.record_flush(len(jobs))
        batch_size = len(jobs)
        traced = [job for job in jobs if job.trace is not None]
        for job in jobs:
            job.batch_size = batch_size
        for job in traced:
            dequeued = job.dequeued if job.dequeued is not None else flushed
            job.trace.add_stage(STAGE_QUEUE_WAIT, job.enqueued, dequeued)
            job.trace.add_stage(STAGE_BATCH_COLLECT, dequeued, flushed)
            job.trace.annotate(batch_size=batch_size)
        groups: "collections.OrderedDict[str, List[_Job]]" = collections.OrderedDict()
        for job in jobs:
            groups.setdefault(job.key, []).append(job)

        to_solve: List[List[_Job]] = []
        recheck_started = time.monotonic()
        for key, group in groups.items():
            # An earlier batch may have filled it since admission.
            cached = self.cache.lookup(key)
            if cached is not None:
                for job in group:
                    job.cache_hit = True
                self._resolve_group(group, cached)
            else:
                to_solve.append(group)
        recheck_ended = time.monotonic()
        for job in traced:
            job.trace.add_stage(STAGE_CACHE_LOOKUP, recheck_started,
                                recheck_ended)
        if not to_solve:
            return

        representatives = [group[0] for group in to_solve]
        stack_sizes = collections.Counter(
            (job.request.n_panels, job.request.precision)
            for job in representatives
        )
        for size in stack_sizes.values():
            self.metrics.record_solve(size)
        # Stage stamps from the evaluation internals (assembly / solve /
        # postprocess) are shared verbatim by every traced member of the
        # batch: the stack is solved once, so its cost is every rider's
        # cost — exactly how the paper accounts a slice.
        solve_traced = [job for group in to_solve for job in group
                        if job.trace is not None]
        stage_hook = None
        if solve_traced:
            def stage_hook(stage, start, end, count):
                for job in solve_traced:
                    job.trace.add_stage(stage, start, end)
        outcomes = evaluate_requests(
            [job.request for job in representatives], stage_hook=stage_hook,
        )

        now = time.monotonic()
        for group, outcome in zip(to_solve, outcomes):
            leader = group[0]
            if isinstance(outcome, Exception):
                for job in group:
                    self._fail_job(job, outcome, now)
                continue
            serialize_started = time.monotonic()
            payload = serialize_analysis(leader.request, outcome)
            serialize_ended = time.monotonic()
            for job in group:
                if job.trace is not None:
                    job.trace.add_stage(STAGE_SERIALIZE, serialize_started,
                                        serialize_ended)
            self.cache.put(leader.key, payload)
            self._complete_job(leader, payload, now)
            for job in group[1:]:  # coalesced duplicates: cache hits
                job.cache_hit = True
                self._complete_job(job, payload, now)

    def _fail_batch(self, jobs: List[_Job], error: BaseException) -> None:
        """Last-resort failure path when batch processing itself raises."""
        wrapped = error if isinstance(error, ServeError) else ServeError(
            f"batch processing failed: {error!r}"
        )
        now = time.monotonic()
        for job in jobs:
            if not job.finished:  # not answered before the failure
                self._fail_job(job, wrapped, now)

    def _resolve_group(self, group: List[_Job], payload: dict) -> None:
        now = time.monotonic()
        for job in group:
            self._complete_job(job, payload, now)

    def _complete_job(self, job: _Job, payload: dict, now: float) -> None:
        """Deliver a result; a detached waiter counts as cancelled."""
        self.cache.record(job.cache_hit)
        if job.pending.resolve(payload):
            latency = now - job.enqueued
            self.metrics.record_completed(
                latency, job.trace.trace_id if job.trace is not None else None
            )
            self.slo.record(True, 1e3 * latency)
            self._finish_job(job, "completed")
        else:
            self.metrics.record_cancelled()
            self._finish_job(job, "cancelled")

    def _fail_job(self, job: _Job, error: BaseException, now: float) -> None:
        """Deliver a failure; a detached waiter counts as cancelled."""
        self.cache.record(False)
        if job.pending.fail(error):
            latency = now - job.enqueued
            self.metrics.record_failed(
                latency, job.trace.trace_id if job.trace is not None else None
            )
            self.slo.record(False, 1e3 * latency)
            self._finish_job(job, "failed", error=error)
        else:
            self.metrics.record_cancelled()
            self._finish_job(job, "cancelled")

    def _finish_job(self, job: _Job, outcome: str,
                    error: Optional[BaseException] = None) -> None:
        """Close the job's trace (if sampled) and emit its log line."""
        job.finished = True
        if job.trace is not None:
            job.trace.annotate(cache_hit=job.cache_hit)
            self.tracer.finish(job.trace, outcome)
        self._log_request(
            job.request_id, outcome, cache_hit=job.cache_hit,
            batch_size=job.batch_size,
            latency_ms=1e3 * (time.monotonic() - job.enqueued),
            error=None if error is None else type(error).__name__,
            trace=job.trace,
        )

    def _log_request(self, request_id: str, outcome: str, *,
                     cache_hit: Optional[bool] = None,
                     batch_size: Optional[int] = None,
                     latency_ms: Optional[float] = None,
                     error: Optional[str] = None,
                     trace: Optional[Trace] = None) -> None:
        """One structured log line per request outcome."""
        if not self.logger.enabled:
            return
        stages = None
        if trace is not None and trace.closed:
            stages = {name: round(1e3 * seconds, 3)
                      for name, seconds in trace.stage_seconds().items()}
        self.logger.event(
            "request", request_id=request_id, outcome=outcome,
            cache_hit=cache_hit, batch_size=batch_size,
            latency_ms=None if latency_ms is None else round(latency_ms, 3),
            error=error, stages_ms=stages,
        )

    # ------------------------------------------------------------------
    # Introspection and lifecycle
    # ------------------------------------------------------------------

    def metrics_snapshot(self) -> dict:
        """The ``/metrics`` document: counters, queue depth, cache
        stats, and the live W/A/L/O ``stages`` aggregate (same
        vocabulary — and same ``O = W - L`` identity — as the
        simulator's tables), plus ``blas_threads``: the BLAS thread
        count solves are pinned to, ``None`` when no OpenBLAS setter was
        found."""
        snapshot = self.metrics.snapshot(
            queue_depth=self.queue_depth, cache_stats=self.cache.stats()
        )
        snapshot["stages"] = self.tracer.stages_snapshot()
        snapshot["stages_hist_ms"] = self.tracer.stage_histograms.snapshot()
        snapshot["slo"] = self.slo.snapshot()
        snapshot["blas_threads"] = blas_threads()
        if self.jobs is not None:
            snapshot["jobs"] = self.jobs.metrics_snapshot()
        return snapshot

    def recent_traces(self, n: Optional[int] = None) -> List[Trace]:
        """The most recent completed request traces, oldest first."""
        return self.tracer.recent(n)

    def find_trace(self, trace_id: str) -> Optional[Trace]:
        """The most recent retained trace with *trace_id*, or None
        (the ``GET /debug/trace/<trace_id>`` lookup the cluster router
        stitches from)."""
        return self.tracer.find(trace_id)

    def render_trace(self, n: int = 16, *, width: int = 78) -> str:
        """ASCII Gantt of the last *n* completed requests
        (the ``/debug/trace`` body)."""
        return render_recent(self.tracer.recent(n), width=width)

    def walo_breakdown(self, n: Optional[int] = None) -> List[dict]:
        """Per-trace W/A/L/O summaries for the most recent requests."""
        return [dict(walo_summary(trace), request_id=trace.trace_id,
                     outcome=trace.outcome)
                for trace in self.tracer.recent(n)]

    def close(self, timeout: float = 10.0) -> bool:
        """Drain accepted work and stop the workers (idempotent).

        The job runner stops first (running jobs checkpoint and stay
        resumable), then the worker threads drain accepted work.
        """
        self._closed = True
        drained = True
        if self.jobs is not None:
            drained = self.jobs.close(timeout=timeout) and drained
            self.jobs.store.close()
        return self._pool.shutdown(timeout=timeout) and drained

    def __enter__(self) -> "AnalysisService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
