"""The cluster router: consistent-hash fan-out over serve replicas.

One :class:`ClusterRouter` fronts N independent ``repro serve``
processes ("replicas") and exposes the same wire API they do, so a
client cannot tell a cluster from a single node:

* ``/analyze`` and ``/analyze_batch`` route each request by the *same*
  cache key the replica LRU uses
  (:meth:`repro.core.api.AnalyzeRequest.cache_key`, which builds no
  geometry), so identical requests always land on the same replica and the cluster-wide cache
  hit rate approaches a single node's — that is the whole point of
  consistent hashing here.
* ``/jobs`` places new optimization jobs on the least-loaded replica
  and journals the placement; when a replica dies, its unfinished jobs
  are resubmitted to survivors with their checkpoint staged first, so
  the migrated run *resumes* rather than restarts.

Failure handling has exactly two moves, keyed on the ``status``
attribute of :class:`~repro.errors.ServeError`:

* ``None`` (transport) or ``503`` (shed) — try the next replica in the
  key's ring preference order; the candidate walk doubles as failover.
* anything else (400, 404, 504) — the replica made a decision; the
  router propagates it unchanged.  Retrying a malformed request or a
  spent deadline elsewhere would only lie to the caller.

Replica health is polled out-of-band (:mod:`repro.cluster.health`);
DOWN replicas are skipped at candidate selection and their jobs
migrate.  The ring itself never changes shape — minimal movement on
failure comes from walking the *preference* order, which is exactly
the order keys would be reassigned under node removal.
"""

from __future__ import annotations

import json
import os
import threading
import time
import uuid
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cluster.health import DOWN, HealthManager
from repro.cluster.metrics import RouterMetrics, aggregate_cluster
from repro.cluster.placement import JobPlacer, Placement, PlacementJournal
from repro.cluster.ring import DEFAULT_VNODES, HashRing
from repro.core.api import AnalyzeRequest, canonical_json, extract_deadline_ms
from repro.errors import ClusterError, OverloadedError, ReproError, ServeError
from repro.jobs.model import JobState, validate_job_key
from repro.jobs.store import CHECKPOINT_DIR, JOURNAL_NAME
from repro.obs.context import TraceContext, anchor_remote_spans, new_trace_context
from repro.obs.ids import coerce_request_id
from repro.obs.logging import StructuredLogger
from repro.obs.slo import SLOTracker
from repro.obs.trace import SOLVE_STAGE, Span, Trace
from repro.pipeline.trace import GanttRow, GanttSegment, GanttTrace, render_ascii
from repro.serve.client import ServeClient
from repro.serve.tracing import LIVE_GLYPHS, LIVE_TITLES, Tracer

#: Router-side span vocabulary: candidate selection, the health-table
#: lookup, and one span per proxy attempt (so failover is visible as
#: consecutive ``proxy_attempt`` bars in the stitched Gantt).
SPAN_ROUTE = "route"
SPAN_HEALTH_LOOKUP = "health_lookup"
SPAN_PROXY_ATTEMPT = "proxy_attempt"

#: Gantt glyphs/titles for the stitched cluster rendering: the replica
#: stages keep their single-node glyphs, router spans get their own.
CLUSTER_GLYPHS = dict(LIVE_GLYPHS, **{
    SPAN_ROUTE: "r",
    SPAN_HEALTH_LOOKUP: "k",
    SPAN_PROXY_ATTEMPT: "x",
})
CLUSTER_TITLES = dict(LIVE_TITLES, **{
    SPAN_ROUTE: "route (ring lookup)",
    SPAN_HEALTH_LOOKUP: "health lookup",
    SPAN_PROXY_ATTEMPT: "proxy attempt",
})


def parse_replica(spec: str) -> Tuple[str, int, Optional[str]]:
    """Parse one ``--replica`` value into ``(host, port, jobs_dir)``.

    Accepted spellings: ``http://host:port``, ``host:port``, each
    optionally suffixed ``=JOBS_DIR`` to tell the router where that
    replica keeps its jobs directory (required for checkpoint staging
    during migration; the replicas must share a filesystem with the
    router for that feature, which is the single-workstation topology
    this repo targets).
    """
    if not isinstance(spec, str) or not spec.strip():
        raise ClusterError("replica spec must be a non-empty string")
    text = spec.strip()
    jobs_dir: Optional[str] = None
    if "=" in text:
        text, _, jobs_dir = text.partition("=")
        jobs_dir = jobs_dir.strip()
        if not jobs_dir:
            raise ClusterError(
                f"replica spec {spec!r} has an empty jobs dir after '='"
            )
    if "://" in text:
        scheme, _, rest = text.partition("://")
        if scheme != "http":
            raise ClusterError(
                f"replica {spec!r}: only http:// URLs are supported"
            )
        text = rest
    text = text.strip().rstrip("/")
    host, sep, port_text = text.rpartition(":")
    if not sep or not host or "/" in text:
        raise ClusterError(
            f"replica {spec!r} is malformed (expected host:port or "
            "http://host:port, optionally =JOBS_DIR)"
        )
    try:
        port = int(port_text)
    except ValueError:
        raise ClusterError(f"replica {spec!r} has a non-integer port")
    if not 0 < port < 65536:
        raise ClusterError(f"replica {spec!r} port must be in 1..65535")
    return host, port, jobs_dir


class Replica:
    """One backend serve process as the router sees it."""

    def __init__(self, host: str, port: int, jobs_dir: Optional[str] = None,
                 *, timeout: float = 60.0, probe_timeout: float = 2.0) -> None:
        self.host = host
        self.port = int(port)
        self.name = f"{host}:{self.port}"
        self.base_url = f"http://{self.name}"
        self.jobs_dir = jobs_dir
        # Two clients on purpose: the proxy client carries request
        # deadlines (long timeout), while probes must fail fast or a
        # hung replica would stall the whole health poller.
        self.client = ServeClient(host=host, port=port, timeout=timeout)
        self.probe_client = ServeClient(host=host, port=port,
                                        timeout=probe_timeout)

    def close(self) -> None:
        self.client.close()
        self.probe_client.close()


class ClusterRouter:
    """Routes the serve API across replicas; see the module docstring.

    Parameters
    ----------
    replicas:
        ``--replica`` spec strings (see :func:`parse_replica`).
    vnodes:
        Virtual nodes per replica on the hash ring.
    state_dir:
        Directory for the placement journal; ``None`` keeps placements
        in memory only (no migration across router restarts).
    health_interval, down_after, up_after:
        Probe cadence and flap thresholds (see
        :class:`~repro.cluster.health.HealthManager`).
    timeout:
        Proxy-request timeout per replica attempt, seconds.
    trace_sample, trace_ring:
        Distributed-trace sampling rate (the *head* decision: sampled
        requests are traced on every hop downstream) and the number of
        completed router traces retained for stitching.
    logger:
        Structured logger for cluster lifecycle events (health
        transitions, failovers, migrations); ``None`` logs nothing.
    slo_latency_ms, slo_target:
        Cluster-level service objectives (client-observed, measured at
        the router — includes routing and failover time the per-replica
        SLOs cannot see).
    """

    def __init__(self, replicas: Sequence[str], *,
                 vnodes: int = DEFAULT_VNODES,
                 state_dir: Optional[str] = None,
                 health_interval: float = 0.5,
                 down_after: int = 3, up_after: int = 1,
                 timeout: float = 60.0, seed: int = 0,
                 trace_sample: float = 1.0, trace_ring: int = 256,
                 logger: Optional[StructuredLogger] = None,
                 slo_latency_ms: float = 250.0,
                 slo_target: float = 0.99) -> None:
        if not replicas:
            raise ClusterError("a cluster needs at least one --replica")
        self.replicas: Dict[str, Replica] = {}
        for spec in replicas:
            host, port, jobs_dir = parse_replica(spec)
            replica = Replica(host, port, jobs_dir, timeout=timeout)
            if replica.name in self.replicas:
                raise ClusterError(f"duplicate replica {replica.name}")
            self.replicas[replica.name] = replica
        self.ring = HashRing(self.replicas, vnodes=vnodes)
        self.metrics = RouterMetrics()
        self.tracer = Tracer(sample_rate=trace_sample, ring_size=trace_ring)
        self.slo = SLOTracker(latency_ms=slo_latency_ms, target=slo_target)
        self.logger = logger if logger is not None else StructuredLogger("off")
        self.journal = PlacementJournal(state_dir)
        self.placer = JobPlacer(self._jobs_section)
        self.health = HealthManager(
            list(self.replicas), self._probe, interval=health_interval,
            down_after=down_after, up_after=up_after,
            on_change=self._on_health_change, seed=seed,
        )
        self.last_request_id: Optional[str] = None
        self._migration_lock = threading.Lock()
        self._migrations: List[threading.Thread] = []
        self._closed = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> "ClusterRouter":
        """Probe every replica once, then start background polling."""
        self.health.check_now()
        self.health.start()
        return self

    def close(self, timeout: float = 10.0) -> None:
        """Stop polling, finish in-flight migrations, release sockets."""
        if self._closed:
            return
        self._closed = True
        self.health.close(timeout)
        for thread in self._migrations:
            thread.join(timeout)
        for replica in self.replicas.values():
            replica.close()
        self.journal.close()

    def __enter__(self) -> "ClusterRouter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Health plumbing
    # ------------------------------------------------------------------

    def _probe(self, name: str) -> bool:
        # Probes always dial a fresh connection: a pooled keep-alive
        # socket can stay serviceable after the replica stops accepting
        # new connections, which is exactly the condition a probe must
        # detect (new routed work needs new connections).
        probe_client = self.replicas[name].probe_client
        try:
            health = probe_client.healthz()
        finally:
            probe_client.close()
        return health.get("status") == "ok"

    def _on_health_change(self, name: str, old: str, new: str) -> None:
        self.metrics.increment("health_transitions")
        self.logger.event("health_transition", replica=name,
                          old=old, new=new)
        if new == DOWN and not self._closed:
            thread = threading.Thread(
                target=self._migrate_from, args=(name,),
                name=f"repro-cluster-migrate-{name}", daemon=True,
            )
            self._migrations.append(thread)
            thread.start()

    def _candidates(self, key: str,
                    trace: Optional[Trace] = None) -> List[str]:
        """Ring preference order filtered to routable replicas.

        When health marks *everything* unroutable the unfiltered order
        is returned as a last-ditch attempt — trying and failing gives
        the caller a truthful error, refusing outright could mask a
        probe false-negative.  A sampled *trace* gets one ``route``
        span (the ring walk) and one ``health_lookup`` span (the
        health-table read).
        """
        route_started = time.monotonic()
        preference = self.ring.preference(key)
        route_ended = time.monotonic()
        routable = set(self.health.routable())
        health_ended = time.monotonic()
        if trace is not None:
            trace.add_stage(SPAN_ROUTE, route_started, route_ended)
            trace.add_stage(SPAN_HEALTH_LOOKUP, route_ended, health_ended)
        ordered = [name for name in preference if name in routable]
        return ordered or preference

    # ------------------------------------------------------------------
    # Analyze routing
    # ------------------------------------------------------------------

    @staticmethod
    def _routing_key(payload: dict) -> str:
        """The replica-affinity key: the request's cache key when the
        payload parses, else its canonical JSON (invalid payloads then
        still route deterministically, and the replica's own validation
        produces the error the caller deserves)."""
        try:
            return AnalyzeRequest.from_dict(payload).cache_key()
        except ReproError:
            return canonical_json(payload if isinstance(payload, dict)
                                  else {"payload": repr(payload)})

    def analyze_raw(self, payload: dict, *,
                    deadline_ms: Optional[float] = None,
                    request_id: Optional[str] = None,
                    trace_context: Optional[TraceContext] = None) -> str:
        """Proxy one ``/analyze`` payload; returns the canonical body.

        Tracing: an incoming *trace_context* (the caller already opened
        the trace) is obeyed; otherwise the router is the trace root
        and decides sampling here — the *head-based* decision every
        downstream hop inherits through the forwarded ``X-Repro-Trace``
        header.  Sampled requests record ``route``, ``health_lookup``,
        and one ``proxy_attempt`` span per failover try; the successful
        attempt's bounds are what the replica's span tree is later
        re-anchored into (:meth:`stitched_trace`).
        """
        started = time.monotonic()
        payload, body_deadline = extract_deadline_ms(payload)
        if body_deadline is not None:
            deadline_ms = body_deadline
        if trace_context is not None:
            context = trace_context
            trace = self.tracer.start(context.trace_id,
                                      sampled=context.sampled)
        else:
            trace_id = coerce_request_id(request_id)
            trace = self.tracer.start(trace_id)
            context = new_trace_context(trace_id, sampled=trace is not None)
        key = self._routing_key(payload)
        last_error: Optional[ServeError] = None
        for attempt, name in enumerate(self._candidates(key, trace=trace)):
            if attempt:
                self.metrics.increment("failovers")
                self.logger.event(
                    "failover", trace_id=context.trace_id,
                    request_id=request_id, attempt=attempt, replica=name,
                    last_error=str(last_error) if last_error else None,
                )
            client = self.replicas[name].client
            proxy_index = None if trace is None else len(trace.spans)
            send_started = time.monotonic()
            try:
                raw = client.analyze_raw(payload, deadline_ms=deadline_ms,
                                         request_id=request_id,
                                         trace_context=context.child())
            except ServeError as error:
                if trace is not None:
                    trace.add_stage(SPAN_PROXY_ATTEMPT, send_started,
                                    time.monotonic())
                if getattr(error, "status", None) in (None, 503):
                    last_error = error
                    continue
                self.metrics.increment("proxy_errors")
                self.slo.record(False, 1e3 * (time.monotonic() - started))
                if trace is not None:
                    trace.annotate(replica=name)
                    self.tracer.finish(trace, "failed")
                raise
            recv_ended = time.monotonic()
            if trace is not None:
                trace.add_stage(SPAN_PROXY_ATTEMPT, send_started, recv_ended)
                trace.annotate(replica=name, proxy_span=proxy_index,
                               attempts=attempt + 1)
                self.tracer.finish(trace, "completed")
            self.metrics.increment("routed")
            self.last_request_id = client.last_request_id
            self.slo.record(True, 1e3 * (recv_ended - started))
            return raw
        self.metrics.increment("exhausted")
        self.slo.record(False, 1e3 * (time.monotonic() - started))
        if trace is not None:
            self.tracer.finish(trace, "exhausted")
        self.logger.event(
            "routing_exhausted", trace_id=context.trace_id,
            request_id=request_id,
            last_error=str(last_error) if last_error else None,
        )
        raise OverloadedError(
            f"no replica could serve the request (last error: {last_error})"
        )

    def analyze(self, payload: dict, *, deadline_ms: Optional[float] = None,
                request_id: Optional[str] = None,
                trace_context: Optional[TraceContext] = None) -> dict:
        return json.loads(self.analyze_raw(payload, deadline_ms=deadline_ms,
                                           request_id=request_id,
                                           trace_context=trace_context))

    def analyze_batch(self, items: Sequence[dict], *,
                      deadline_ms: Optional[float] = None,
                      request_id: Optional[str] = None) -> List[dict]:
        """Split a batch by routing key, fan sub-batches out in
        parallel, and reassemble results in submission order.

        A sub-batch whose replica fails retryably is re-routed item by
        item through the single-request failover path, so one replica
        death degrades throughput, not correctness.
        """
        self.metrics.increment("routed_batch")
        groups: Dict[str, List[Tuple[int, dict]]] = {}
        for index, item in enumerate(items):
            clean = item if isinstance(item, dict) else {}
            name = self._candidates(self._routing_key(
                extract_deadline_ms(clean)[0]))[0]
            groups.setdefault(name, []).append((index, item))
        results: List[Optional[dict]] = [None] * len(items)

        def fan_out(name: str, group: List[Tuple[int, dict]]) -> None:
            self.metrics.increment("fanout_requests")
            try:
                batch = self.replicas[name].client.analyze_batch(
                    [item for _, item in group],
                    deadline_ms=deadline_ms, request_id=request_id)
                for (index, _), result in zip(group, batch):
                    results[index] = result
                return
            except ServeError as error:
                if getattr(error, "status", None) not in (None, 503):
                    failure = {"error": str(error),
                               "type": type(error).__name__}
                    for index, _ in group:
                        results[index] = failure
                    return
            # Retryable sub-batch failure: salvage item by item.
            for index, item in group:
                try:
                    results[index] = self.analyze(
                        item, deadline_ms=deadline_ms, request_id=request_id)
                except ReproError as error:
                    results[index] = {"error": str(error),
                                      "type": type(error).__name__}

        threads = [threading.Thread(target=fan_out, args=(name, group),
                                    daemon=True)
                   for name, group in groups.items()]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return results

    # ------------------------------------------------------------------
    # Jobs: placement, proxying, migration
    # ------------------------------------------------------------------

    def _jobs_section(self, name: str) -> Optional[dict]:
        """The replica's live ``jobs`` metrics section, or ``None``."""
        try:
            section = self.replicas[name].client.metrics().get("jobs")
        except ServeError:
            return None
        return section if isinstance(section, dict) else None

    def submit_job(self, payload: dict, *,
                   request_id: Optional[str] = None) -> dict:
        """Place and submit one job; returns the record plus the
        ``replica`` it landed on.

        A client-supplied ``job_key`` makes this idempotent across the
        whole cluster: a duplicate routes to the job's existing replica
        (wherever placement or migration last put it) and returns the
        original record.  Without one the router generates a key, since
        the key is also the migration identity.
        """
        payload = dict(payload) if isinstance(payload, dict) else payload
        if not isinstance(payload, dict):
            raise ServeError("job spec must be a JSON object")
        job_key = payload.pop("job_key", None)
        if job_key is None:
            job_key = f"router/{uuid.uuid4().hex}"
        job_key = validate_job_key(job_key)

        existing = None
        try:
            existing = self.journal.get(job_key)
        except ClusterError:
            pass
        if existing is not None:
            record = self.replicas[existing.replica].client.submit_job(
                payload, job_key=job_key, request_id=request_id)
            self.journal.record_state(job_key, record["state"])
            return dict(record, replica=existing.replica)

        candidates = list(self.health.routable()) or list(self.replicas)
        while True:
            name = self.placer.choose(candidates)
            try:
                record = self.replicas[name].client.submit_job(
                    payload, job_key=job_key, request_id=request_id)
            except ServeError as error:
                if getattr(error, "status", None) in (None, 503):
                    candidates = [c for c in candidates if c != name]
                    if candidates:
                        self.metrics.increment("failovers")
                        continue
                raise
            self.journal.record_placed(job_key, record["id"], name, payload)
            self.metrics.increment("jobs_placed")
            self.logger.event("job_placed", job_key=job_key,
                              job_id=record["id"], replica=name,
                              request_id=request_id)
            return dict(record, replica=name)

    def _locate(self, job_id: str) -> Optional[Placement]:
        return self.journal.by_job_id(job_id)

    def _job_call(self, job_id: str, call) -> dict:
        """Run ``call(client)`` against the replica owning *job_id*.

        Placed jobs go straight to their placement; unknown IDs (jobs
        submitted behind the router's back, or placements lost with no
        state dir) fall back to asking every replica in turn.
        """
        placement = self._locate(job_id)
        if placement is not None:
            try:
                record = call(self.replicas[placement.replica].client)
            except ServeError as error:
                if getattr(error, "status", None) is None:
                    # The owning replica is unreachable; if it is dying
                    # the job will migrate — tell the caller to retry.
                    raise OverloadedError(
                        f"replica {placement.replica} is unreachable; "
                        f"job {job_id} may be migrating ({error})"
                    )
                raise
            if isinstance(record, dict) and "state" in record:
                self.journal.record_state(placement.job_key, record["state"])
            return dict(record, replica=placement.replica)
        last_error: Optional[ServeError] = None
        for name in sorted(self.replicas):
            try:
                return dict(call(self.replicas[name].client), replica=name)
            except ServeError as error:
                last_error = error
        raise last_error if last_error is not None else ServeError(
            f"job {job_id} not found on any replica")

    def job(self, job_id: str) -> dict:
        return self._job_call(job_id, lambda client: client.job(job_id))

    def job_events(self, job_id: str, since: int = 0) -> dict:
        return self._job_call(
            job_id, lambda client: client.job_events(job_id, since=since))

    def cancel_job(self, job_id: str, *,
                   request_id: Optional[str] = None) -> dict:
        return self._job_call(
            job_id,
            lambda client: client.cancel_job(job_id, request_id=request_id))

    def jobs(self) -> List[dict]:
        """Every job on every reachable replica, tagged with its host."""
        merged: List[dict] = []
        for name in sorted(self.replicas):
            try:
                records = self.replicas[name].client.jobs()
            except ServeError:
                continue
            merged.extend(dict(record, replica=name) for record in records)
        return merged

    # ------------------------------------------------------------------
    # Migration
    # ------------------------------------------------------------------

    @staticmethod
    def _journal_states(jobs_dir: str) -> Dict[str, str]:
        """Final job states from a (dead) replica's on-disk journal.

        Reads the JSONL directly — the owning process is gone, and this
        is exactly the durable record it left behind.  A torn final
        line is skipped, like the store's own replay.
        """
        states: Dict[str, str] = {}
        path = os.path.join(jobs_dir, JOURNAL_NAME)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                lines = handle.read().split("\n")
        except OSError:
            return states
        for line in lines:
            if not line.strip():
                continue
            try:
                entry = json.loads(line)
            except json.JSONDecodeError:
                continue
            if entry.get("type") == "submitted":
                states.setdefault(entry.get("id"), JobState.PENDING)
            elif entry.get("type") == "state":
                states[entry.get("id")] = entry.get("state")
        return states

    def _migrate_from(self, dead: str) -> None:
        """Resettle every live job placed on a now-DOWN replica."""
        with self._migration_lock:
            orphans = self.journal.live_on(dead)
            if not orphans:
                return
            dead_dir = self.replicas[dead].jobs_dir
            states = self._journal_states(dead_dir) if dead_dir else {}
            pending: List[Placement] = []
            for placement in orphans:
                state = states.get(placement.job_id)
                if state in JobState.TERMINAL:
                    # Finished before the crash: nothing to migrate.
                    self.journal.record_state(placement.job_key, state)
                    continue
                pending.append(placement)
            if not pending:
                return
            survivors = [name for name in self.health.routable()
                         if name != dead]
            try:
                plan = self.placer.plan_migration(
                    [placement.job_key for placement in pending], survivors)
            except ClusterError as error:
                self.metrics.increment("migration_failures", len(pending))
                self.logger.event("migration_failed", replica=dead,
                                  jobs=len(pending), error=str(error))
                return
            for placement in pending:
                target = plan.get(placement.job_key)
                if target is None:
                    self.metrics.increment("migration_failures")
                    self.logger.event("migration_failed", replica=dead,
                                      job_key=placement.job_key,
                                      job_id=placement.job_id,
                                      error="no surviving target")
                    continue
                try:
                    self._migrate_one(placement, dead_dir, target)
                except (ReproError, OSError) as error:
                    self.metrics.increment("migration_failures")
                    self.logger.event("migration_failed", replica=dead,
                                      job_key=placement.job_key,
                                      job_id=placement.job_id, target=target,
                                      error=str(error))
                else:
                    self.metrics.increment("jobs_migrated")
                    self.logger.event("job_migrated", job_key=placement.job_key,
                                      job_id=placement.job_id,
                                      source=dead, target=target)

    def _migrate_one(self, placement: Placement, dead_dir: Optional[str],
                     target: str) -> None:
        """Move one job: stage its checkpoint, resubmit, re-journal.

        The job ID is derived from the job key
        (:func:`repro.jobs.model.derive_job_id`), so the checkpoint
        file staged under the *same* ID is exactly what the survivor's
        runner loads — the migrated run resumes mid-flight and its
        history stays byte-identical to an uninterrupted run.
        """
        replica = self.replicas[target]
        if dead_dir and replica.jobs_dir:
            source = os.path.join(dead_dir, CHECKPOINT_DIR,
                                  f"{placement.job_id}.json")
            if os.path.exists(source):
                target_dir = os.path.join(replica.jobs_dir, CHECKPOINT_DIR)
                os.makedirs(target_dir, exist_ok=True)
                destination = os.path.join(target_dir,
                                           f"{placement.job_id}.json")
                with open(source, "rb") as src:
                    payload = src.read()
                with open(destination + ".tmp", "wb") as dst:
                    dst.write(payload)
                    dst.flush()
                    os.fsync(dst.fileno())
                os.replace(destination + ".tmp", destination)
                self.metrics.increment("checkpoints_staged")
        record = replica.client.submit_job(placement.spec,
                                           job_key=placement.job_key)
        if record["id"] != placement.job_id:  # pragma: no cover - defensive
            raise ClusterError(
                f"migrated job changed identity: {placement.job_id} "
                f"-> {record['id']}"
            )
        self.journal.record_migrated(placement.job_key, target)

    # ------------------------------------------------------------------
    # Distributed-trace stitching
    # ------------------------------------------------------------------

    def _pull_replica_trace(self, name: str,
                            trace_id: str) -> Optional[List[Span]]:
        """Fetch and revive the replica's half of *trace_id*, or None."""
        self.metrics.increment("trace_pulls")
        try:
            pulled = self.replicas[name].client.debug_trace_by_id(trace_id)
        except ServeError:
            self.metrics.increment("trace_pull_failures")
            return None
        spans = []
        for entry in pulled.get("trace", {}).get("spans", []):
            spans.append(Span(name=str(entry.get("name", "?")),
                              start=float(entry.get("start", 0.0)),
                              end=(None if entry.get("end") is None
                                   else float(entry["end"])),
                              parent=entry.get("parent")))
        return spans or None

    def stitched_trace(self, trace_id: Optional[str] = None) -> Optional[dict]:
        """One distributed trace as a JSON-ready multi-hop document.

        *trace_id* defaults to the most recently completed router
        trace.  The router's own span tree is the anchor; the serving
        replica's tree is pulled live over ``GET /debug/trace/<id>``
        and re-anchored into the successful ``proxy_attempt`` span's
        bounds (:func:`repro.obs.context.anchor_remote_spans`), so
        every hop shares the router's monotonic clock.  Each hop carries
        the W/A/L/O reduction with ``O = W - L`` by construction.
        """
        if trace_id is None:
            recent = self.tracer.recent(1)
            if not recent:
                return None
            trace = recent[-1]
        else:
            trace = self.tracer.find(trace_id)
        if trace is None:
            return None
        origin = trace.root.start
        hops = [{
            "hop": "router",
            "spans": [self._span_dict(span, origin)
                      for span in trace.spans],
            "walo": self._hop_walo(trace.spans),
        }]
        replica_name = trace.annotations.get("replica")
        proxy_index = trace.annotations.get("proxy_span")
        anchored: List[Span] = []
        if (replica_name in self.replicas and isinstance(proxy_index, int)
                and 0 < proxy_index < len(trace.spans)):
            proxy = trace.spans[proxy_index]
            remote = self._pull_replica_trace(replica_name, trace.trace_id)
            if remote and proxy.end is not None:
                anchored = anchor_remote_spans(remote, proxy.start, proxy.end)
                self.metrics.increment("traces_stitched")
        if anchored:
            hops.append({
                "hop": f"replica {replica_name}",
                "spans": [self._span_dict(span, origin) for span in anchored],
                "walo": self._hop_walo(anchored),
            })
        return {
            "trace_id": trace.trace_id,
            "outcome": trace.outcome,
            "annotations": dict(trace.annotations),
            "stitched": bool(anchored),
            "hops": hops,
        }

    @staticmethod
    def _span_dict(span: Span, origin: float) -> dict:
        """A span re-based to the trace origin (JSON-ready)."""
        return {
            "name": span.name,
            "start": None if span.start is None else span.start - origin,
            "end": None if span.end is None else span.end - origin,
            "duration": span.duration,
            "parent": span.parent,
        }

    @staticmethod
    def _hop_walo(spans: Sequence[Span]) -> dict:
        """The W/A/L/O identity for one hop's span list (root first)."""
        if not spans:
            return {"wall_seconds": 0.0, "assembly_seconds": 0.0,
                    "solve_seconds": 0.0, "overhead_seconds": 0.0}
        wall = spans[0].duration
        assembly = sum(span.duration for span in spans[1:]
                       if span.name.startswith("assembly"))
        solve = sum(span.duration for span in spans[1:]
                    if span.name == SOLVE_STAGE)
        return {
            "wall_seconds": wall,
            "assembly_seconds": assembly,
            "solve_seconds": solve,
            "overhead_seconds": wall - solve,
        }

    def render_stitched(self, trace_id: Optional[str] = None, *,
                        width: int = 78) -> str:
        """ASCII Gantt of one stitched trace, one row per hop."""
        document = self.stitched_trace(trace_id)
        if document is None:
            return ("no stitched trace available yet; "
                    "send some sampled traffic first")
        makespan = max(
            [0.0] + [span["end"] for hop in document["hops"]
                     for span in hop["spans"] if span["end"] is not None]
        )
        rows = []
        for hop in document["hops"]:
            segments = [
                GanttSegment(start=span["start"], end=span["end"],
                             kind=span["name"], label=span["name"])
                for span in hop["spans"][1:]
                if span["end"] is not None and span["end"] > span["start"]
            ]
            rows.append(GanttRow(resource=hop["hop"], segments=segments))
        chart = GanttTrace(
            name=f"trace {document['trace_id'][:12]} ({document['outcome']})",
            rows=rows, makespan=makespan,
        )
        return render_ascii(chart, width=width, glyphs=CLUSTER_GLYPHS,
                            titles=CLUSTER_TITLES)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def healthz(self) -> dict:
        states = self.health.states()
        routable = self.health.routable()
        return {
            "status": "ok" if routable else "degraded",
            "replicas": states,
            "routable": len(routable),
        }

    def metrics_document(self) -> dict:
        """The three-floor cluster ``/metrics`` document."""
        router = dict(self.metrics.snapshot())
        router["health"] = self.health.snapshot()
        router["slo"] = self.slo.snapshot()
        router["stages"] = self.tracer.stages_snapshot()
        router["stages_hist_ms"] = self.tracer.stage_histograms.snapshot()
        placements = self.journal.list()
        router["placements"] = {
            "total": len(placements),
            "live": sum(1 for placement in placements if placement.live),
        }
        snapshots: Dict[str, Optional[dict]] = {}
        for name in sorted(self.replicas):
            try:
                snapshots[name] = self.replicas[name].client.metrics()
            except ServeError:
                snapshots[name] = None
        return aggregate_cluster(router, snapshots)

    def status(self) -> dict:
        """The ``cluster status`` document: topology + placements."""
        states = self.health.states()
        return {
            "ring": {"vnodes": self.ring.vnodes,
                     "replicas": len(self.replicas)},
            "replicas": {
                name: {
                    "url": replica.base_url,
                    "state": states.get(name),
                    "jobs_dir": replica.jobs_dir,
                    "live_jobs": len(self.journal.live_on(name)),
                }
                for name, replica in sorted(self.replicas.items())
            },
            "placements": [placement.to_dict()
                           for placement in self.journal.list()],
        }
