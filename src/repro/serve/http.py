"""Stdlib-only HTTP front end for the analysis service.

Endpoints:

* ``POST /analyze`` — one wire-format request; the response body is the
  :func:`repro.core.api.canonical_json` record, byte-identical to the
  CLI's ``analyze --json`` for the same input.
* ``POST /analyze_batch`` — ``{"requests": [...]}``; responds
  ``{"request_id", "results": [...]}`` with a record or
  ``{"error", "type"}`` object per item, preserving order.  Every
  item is queued before any is awaited; items that queue while a
  worker is busy share its next stack, so a large batch may be solved
  as a few stacks rather than one.
* ``GET /healthz`` — liveness plus queue depth.
* ``GET /metrics`` — the service's counter snapshot (JSON), including
  the live W/A/L/O ``stages`` section; ``?format=prometheus`` or the
  ``/metrics/prometheus`` alias return text exposition format instead.
* ``GET /debug/trace?n=K`` — ASCII Gantt of the last ``K`` completed
  request traces (``?format=json`` for span trees).
* ``GET /debug/trace/<trace_id>`` — one retained span tree by id (the
  lookup the cluster router stitches distributed traces from).

Every request gets a request ID — accepted via ``X-Repro-Request-Id``
or generated — which is echoed in the ``X-Repro-Request-Id`` response
header, in error bodies, and in the ``/analyze_batch`` wrapper.  The
*successful* ``/analyze`` body never carries it: that body is the
canonical analysis record, and staying byte-identical to the CLI's
``--json`` output (and to the untraced path) is a contract.  An
``X-Repro-Trace`` header (see :mod:`repro.obs.context`) propagates a
distributed trace: its head-based sampling decision overrides the
local sampler and the span tree is recorded under the propagated
trace id — never changing a single response byte.

Requests may carry a deadline: an ``X-Repro-Deadline-Ms`` header, or a
``deadline_ms`` field in the body (most specific wins — the body field
overrides the header, which overrides the service default).  A request
whose deadline expires before evaluation is dropped at batch
collection and answered ``504 Gateway Timeout``.

Error mapping: malformed input → 400, unknown job → 404, shed load →
503, expired deadline → 504, unexpected failure → 500.  The routes
mount on the handler core shared with the cluster router
(:mod:`repro.serve.httpcore`), which writes each response in one
socket write and keeps the stdlib's per-line access log off — the
service's structured logger emits one JSON line per request outcome
instead (see :mod:`repro.obs.logging`).  Every handler thread just
blocks on the service's :class:`PendingResult`, so the micro-batcher
sees all concurrent requests at once.
"""

from __future__ import annotations

import time
import urllib.parse
from typing import Optional, Tuple

from repro.core.api import canonical_json, extract_deadline_ms
from repro.errors import JobNotFoundError, ReproError, ServeError
from repro.serve.httpcore import CoreHandler, CoreHTTPServer, error_body
# Wire constants, importable from this module too.
from repro.serve.httpcore import DEADLINE_HEADER, MAX_BODY_BYTES  # noqa: F401
from repro.serve.service import AnalysisService

#: Default number of traces rendered by ``/debug/trace``.
DEFAULT_TRACE_COUNT = 16


class AnalysisHTTPServer(CoreHTTPServer):
    """A threading HTTP server bound to one :class:`AnalysisService`."""

    thread_name = "repro-serve-http"

    def __init__(self, address: Tuple[str, int], service: AnalysisService, *,
                 request_timeout: float = 60.0) -> None:
        super().__init__(address, _AnalysisHandler,
                         request_timeout=request_timeout)
        self.service = service


def start_server(service: AnalysisService, *, host: str = "127.0.0.1",
                 port: int = 0, request_timeout: float = 60.0) -> AnalysisHTTPServer:
    """Bind and start a background server; ``port=0`` picks a free port."""
    server = AnalysisHTTPServer((host, port), service,
                                request_timeout=request_timeout)
    return server.start_background()


class _AnalysisHandler(CoreHandler):
    server_version = "repro-serve/1.0"

    def error_status(self, error: BaseException) -> int:
        if isinstance(error, JobNotFoundError):
            return 404
        return super().error_status(error)

    def metrics_document(self) -> dict:
        return self.server.service.metrics_snapshot()

    # ------------------------------------------------------------------
    # Routes
    # ------------------------------------------------------------------

    def do_GET(self) -> None:
        parts = urllib.parse.urlsplit(self.path)
        query = urllib.parse.parse_qs(parts.query)
        route = parts.path
        if route == "/healthz":
            self._send_json(200, {
                "status": "ok",
                "queue_depth": self.server.service.queue_depth,
            })
        elif route == "/metrics":
            self._handle_metrics(query)
        elif route == "/metrics/prometheus":
            self._handle_metrics({"format": ["prometheus"]})
        elif route == "/debug/trace":
            self._handle_debug_trace(query)
        elif route.startswith("/debug/trace/"):
            self._handle_debug_trace_lookup(route)
        elif route == "/jobs" or route.startswith("/jobs/"):
            self._handle_jobs_get(route, query)
        else:
            self._send_not_found()

    def do_POST(self) -> None:
        route = urllib.parse.urlsplit(self.path).path
        if route == "/analyze":
            self._handle_analyze()
        elif route == "/analyze_batch":
            self._handle_analyze_batch()
        elif route == "/jobs":
            self._handle_jobs_submit()
        elif route.startswith("/jobs/") and route.endswith("/cancel"):
            self._handle_job_cancel(route)
        else:
            self._send_not_found()

    def _handle_debug_trace(self, query: dict) -> None:
        service = self.server.service
        try:
            count = int(query.get("n", [DEFAULT_TRACE_COUNT])[-1])
        except ValueError:
            self._send_json(400, {"error": "n must be an integer",
                                  "type": "ServeError"})
            return
        count = max(0, count)
        fmt = query.get("format", ["ascii"])[-1]
        if fmt == "json":
            traces = [trace.to_dict() for trace in service.recent_traces(count)]
            self._send_json(200, {"traces": traces})
        elif fmt == "ascii":
            body = service.render_trace(count).encode("utf-8")
            self._send_body(200, body,
                            content_type="text/plain; charset=utf-8")
        else:
            self._send_json(400, {
                "error": f"unknown trace format {fmt!r} "
                         "(expected 'ascii' or 'json')",
                "type": "ServeError",
            })

    def _handle_debug_trace_lookup(self, route: str) -> None:
        """``GET /debug/trace/<trace_id>`` — one retained span tree.

        The cluster router pulls a replica's half of a distributed
        trace through this route and stitches it into the cluster-wide
        tree; ``monotonic_now`` lets the puller re-anchor the trace's
        monotonic timestamps against its own clock.
        """
        trace_id = route[len("/debug/trace/"):]
        trace = self.server.service.find_trace(trace_id)
        if trace is None:
            self._send_json(404, {
                "error": f"no retained trace with id {trace_id!r}",
                "type": "TraceNotFound",
            })
            return
        self._send_json(200, {"trace": trace.to_dict(),
                              "monotonic_now": time.monotonic()})

    # ------------------------------------------------------------------
    # Jobs routes
    # ------------------------------------------------------------------

    def _jobs_runner(self, request_id: Optional[str] = None):
        """The service's job runner, or ``None`` after sending a 404."""
        runner = self.server.service.jobs
        if runner is None:
            self._send_json(404, {
                "error": "jobs are not enabled "
                         "(start the server with --jobs-dir)",
                "type": "JobError",
            }, request_id=request_id)
        return runner

    def _handle_jobs_get(self, route: str, query: dict) -> None:
        from repro.jobs import json_safe

        request_id = self._header_request_id()
        runner = self._jobs_runner(request_id)
        if runner is None:
            return
        parts = [part for part in route.split("/") if part]
        try:
            if parts == ["jobs"]:
                jobs = [json_safe(record.to_dict(include_result=False))
                        for record in runner.store.list()]
                self._send_json(200, {"jobs": jobs}, request_id=request_id)
            elif len(parts) == 2:
                record = runner.store.get(parts[1])
                self._send_json(200, json_safe(record.to_dict()),
                                request_id=request_id)
            elif len(parts) == 3 and parts[2] == "events":
                try:
                    since = int(query.get("since", [0])[-1])
                except ValueError:
                    raise ServeError("since must be an integer")
                record = runner.store.get(parts[1])
                events = runner.store.events(parts[1], since=since)
                self._send_json(200, {
                    "id": record.id,
                    "state": record.state,
                    "generations_done": record.generations_done,
                    "events": json_safe(events),
                    "next_since": events[-1]["seq"] if events else since,
                }, request_id=request_id)
            else:
                self._send_not_found(request_id)
        except ReproError as error:
            self._send_error(error, request_id)

    def _handle_jobs_submit(self) -> None:
        from repro.jobs import JobSpec, json_safe

        payload = self._read_json()
        if payload is None:
            return
        request_id = self._header_request_id()
        runner = self._jobs_runner(request_id)
        if runner is None:
            return
        # job_key is transport metadata (the idempotency identity of
        # this submission), not part of the spec — peel it off before
        # spec validation, like deadline_ms on the analyze path.
        job_key = None
        if isinstance(payload, dict) and "job_key" in payload:
            payload = dict(payload)
            job_key = payload.pop("job_key")
        try:
            record = runner.submit(JobSpec.from_dict(payload),
                                   job_key=job_key)
        except ReproError as error:
            self._send_error(error, request_id)
            return
        self._send_json(200, json_safe(record.to_dict()),
                        request_id=request_id)

    def _handle_job_cancel(self, route: str) -> None:
        from repro.jobs import json_safe

        self._drain_body()
        request_id = self._header_request_id()
        runner = self._jobs_runner(request_id)
        if runner is None:
            return
        parts = [part for part in route.split("/") if part]
        if len(parts) != 3:
            self._send_not_found(request_id)
            return
        try:
            record = runner.cancel(parts[1])
        except ReproError as error:
            self._send_error(error, request_id)
            return
        self._send_json(200, json_safe(record.to_dict(include_result=False)),
                        request_id=request_id)

    # ------------------------------------------------------------------
    # Analyze routes
    # ------------------------------------------------------------------

    def _handle_analyze(self) -> None:
        payload = self._read_json()
        if payload is None:
            return
        service = self.server.service
        request_id = None
        try:
            request_id = self._header_request_id()
            trace_context = self._header_trace_context()
            payload, deadline_ms = extract_deadline_ms(payload)
            if deadline_ms is None:
                deadline_ms = self._header_deadline_ms()
            result = service.analyze(payload, timeout=self.server.request_timeout,
                                     deadline_ms=deadline_ms,
                                     request_id=request_id,
                                     trace_context=trace_context)
        except Exception as error:
            self._send_error(error, request_id)
            return
        self._send_body(200, canonical_json(result).encode("utf-8"),
                        request_id=request_id)

    def _handle_analyze_batch(self) -> None:
        payload = self._read_json()
        if payload is None:
            return
        if not isinstance(payload, dict) or not isinstance(payload.get("requests"), list):
            self._send_json(400, {
                "error": "analyze_batch expects {\"requests\": [...]}",
                "type": "ServeError",
            })
            return
        service = self.server.service
        try:
            request_id = self._header_request_id()
            trace_context = self._header_trace_context()
            header_deadline = self._header_deadline_ms()
        except ServeError as error:
            self._send_error(error)
            return
        # Submit everything before waiting on anything, so items that
        # queue while a worker is busy share its next solve stack.
        # A per-item deadline_ms field overrides the header deadline;
        # the batch's single request ID tags every item.
        pendings = []
        for item in payload["requests"]:
            try:
                pendings.append(
                    self._submit_item(service, item, header_deadline,
                                      request_id, trace_context))
            except ReproError as error:
                pendings.append(error)
        results = []
        for pending in pendings:
            if isinstance(pending, Exception):
                results.append(error_body(pending))
                continue
            try:
                results.append(pending.result(timeout=self.server.request_timeout))
            except ReproError as error:
                pending.cancel()  # detach so the worker drops the job
                results.append(error_body(error))
        self._send_json(200, {"request_id": request_id, "results": results},
                        request_id=request_id)

    @staticmethod
    def _submit_item(service, item, header_deadline: Optional[float],
                     request_id: str, trace_context=None):
        """Submit one batch item; a per-item ``deadline_ms`` field
        overrides the header deadline."""
        if header_deadline is not None and isinstance(item, dict):
            item, item_deadline = extract_deadline_ms(item)
            if item_deadline is not None:
                header_deadline = item_deadline
        return service.submit(item, deadline_ms=header_deadline,
                              request_id=request_id,
                              trace_context=trace_context)
