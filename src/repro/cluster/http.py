"""Stdlib-only HTTP front end for the cluster router.

The router speaks the *same wire API* as a single ``repro serve``
process — ``/analyze``, ``/analyze_batch``, ``/jobs``, ``/healthz``,
``/metrics`` — so an existing :class:`~repro.serve.client.ServeClient`
can point at a router instead of a replica without changing a line.
Cluster-specific routes:

* ``GET /cluster/status`` — topology, per-replica health, placements.
* ``POST /cluster/drain`` — ``{"replica": "host:port", "draining":
  bool}`` toggles the operator draining flag (no new work, no
  migration).
* ``GET /debug/trace`` — the *stitched* multi-hop Gantt of one
  distributed trace (router spans plus the serving replica's span
  tree, re-anchored onto the router's clock); ``?format=json`` for
  the document, ``?trace_id=...`` to pick a specific trace.

``/analyze`` and ``/analyze_batch`` honour an incoming
``X-Repro-Trace`` header (trace id, parent span, sampling flag) and
propagate it downstream, so a client-opened trace spans the whole
cluster.

The routes mount on the handler core shared with ``repro serve``
(:mod:`repro.serve.httpcore`), so the router's replies leave in one
socket write too.  Error mapping follows the core's, with one addition:
a replica rejection proxied through the router keeps its *original*
status code (the ``status`` attribute on
:class:`~repro.errors.ServeError`), so a 404 from a replica does not
mutate into a router 400 along the way.
"""

from __future__ import annotations

import urllib.parse
from typing import Tuple

from repro.cluster.router import ClusterRouter
from repro.errors import ClusterError, ReproError, ServeError
from repro.serve.httpcore import CoreHandler, CoreHTTPServer


class ClusterHTTPServer(CoreHTTPServer):
    """A threading HTTP server bound to one :class:`ClusterRouter`."""

    thread_name = "repro-cluster-http"

    def __init__(self, address: Tuple[str, int], router: ClusterRouter, *,
                 request_timeout: float = 60.0) -> None:
        super().__init__(address, _ClusterHandler,
                         request_timeout=request_timeout)
        self.router = router


def start_cluster_server(router: ClusterRouter, *, host: str = "127.0.0.1",
                         port: int = 0,
                         request_timeout: float = 60.0) -> ClusterHTTPServer:
    """Bind and start a background router server (``port=0`` = ephemeral)."""
    server = ClusterHTTPServer((host, port), router,
                               request_timeout=request_timeout)
    return server.start_background()


class _ClusterHandler(CoreHandler):
    server_version = "repro-cluster/1.0"

    def error_status(self, error: BaseException) -> int:
        # A proxied replica rejection keeps its upstream status.
        status = getattr(error, "status", None)
        if isinstance(error, ReproError) and isinstance(status, int):
            return status
        return super().error_status(error)

    def metrics_document(self) -> dict:
        return self.server.router.metrics_document()

    # ------------------------------------------------------------------
    # Routes
    # ------------------------------------------------------------------

    def do_GET(self) -> None:
        parts = urllib.parse.urlsplit(self.path)
        query = urllib.parse.parse_qs(parts.query)
        route = parts.path
        if route == "/healthz":
            self._send_json(200, self.server.router.healthz())
        elif route == "/metrics":
            self._handle_metrics(query)
        elif route == "/metrics/prometheus":
            self._handle_metrics({"format": ["prometheus"]})
        elif route == "/cluster/status":
            self._send_json(200, self.server.router.status())
        elif route == "/debug/trace":
            self._handle_debug_trace(query)
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
        elif route == "/cluster/drain":
            self._handle_drain()
        else:
            self._send_not_found()

    def _handle_debug_trace(self, query: dict) -> None:
        """The stitched distributed trace (ASCII Gantt or JSON)."""
        router = self.server.router
        trace_id = query.get("trace_id", [None])[-1]
        fmt = query.get("format", ["ascii"])[-1]
        try:
            if fmt == "json":
                document = router.stitched_trace(trace_id)
                if document is None:
                    self._send_json(404, {
                        "error": "no matching stitched trace",
                        "type": "TraceNotFound",
                    })
                    return
                self._send_json(200, document)
            elif fmt == "ascii":
                body = router.render_stitched(trace_id)
                self._send_body(200, body.encode("utf-8"),
                                content_type="text/plain; charset=utf-8")
            else:
                self._send_json(400, {
                    "error": f"unknown trace format {fmt!r} "
                             "(expected 'ascii' or 'json')",
                    "type": "ServeError",
                })
        except ReproError as error:
            self._send_error(error)

    # ------------------------------------------------------------------
    # Analyze proxying
    # ------------------------------------------------------------------

    def _handle_analyze(self) -> None:
        payload = self._read_json()
        if payload is None:
            return
        request_id = None
        try:
            request_id = self._header_request_id()
            trace_context = self._header_trace_context()
            raw = self.server.router.analyze_raw(
                payload, deadline_ms=self._header_deadline_ms(),
                request_id=request_id, trace_context=trace_context)
        except Exception as error:
            self._send_error(error, request_id)
            return
        # The replica's body is already the canonical record: relay the
        # exact bytes, preserving the byte-identity contract end to end.
        self._send_body(200, raw.encode("utf-8"), request_id=request_id)

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
        try:
            request_id = self._header_request_id()
            results = self.server.router.analyze_batch(
                payload["requests"], deadline_ms=self._header_deadline_ms(),
                request_id=request_id)
        except ReproError as error:
            self._send_error(error)
            return
        self._send_json(200, {"request_id": request_id, "results": results},
                        request_id=request_id)

    # ------------------------------------------------------------------
    # Jobs proxying
    # ------------------------------------------------------------------

    def _handle_jobs_get(self, route: str, query: dict) -> None:
        request_id = self._header_request_id()
        router = self.server.router
        parts = [part for part in route.split("/") if part]
        try:
            if parts == ["jobs"]:
                self._send_json(200, {"jobs": router.jobs()},
                                request_id=request_id)
            elif len(parts) == 2:
                self._send_json(200, router.job(parts[1]),
                                request_id=request_id)
            elif len(parts) == 3 and parts[2] == "events":
                try:
                    since = int(query.get("since", [0])[-1])
                except ValueError:
                    raise ServeError("since must be an integer")
                self._send_json(200, router.job_events(parts[1], since=since),
                                request_id=request_id)
            else:
                self._send_not_found(request_id)
        except ReproError as error:
            self._send_error(error, request_id)

    def _handle_jobs_submit(self) -> None:
        payload = self._read_json()
        if payload is None:
            return
        request_id = self._header_request_id()
        try:
            record = self.server.router.submit_job(payload,
                                                   request_id=request_id)
        except ReproError as error:
            self._send_error(error, request_id)
            return
        self._send_json(200, record, request_id=request_id)

    def _handle_job_cancel(self, route: str) -> None:
        self._drain_body()
        request_id = self._header_request_id()
        parts = [part for part in route.split("/") if part]
        if len(parts) != 3:
            self._send_not_found(request_id)
            return
        try:
            record = self.server.router.cancel_job(parts[1],
                                                   request_id=request_id)
        except ReproError as error:
            self._send_error(error, request_id)
            return
        self._send_json(200, record, request_id=request_id)

    # ------------------------------------------------------------------
    # Cluster control
    # ------------------------------------------------------------------

    def _handle_drain(self) -> None:
        payload = self._read_json()
        if payload is None:
            return
        if not isinstance(payload, dict) or "replica" not in payload:
            self._send_json(400, {
                "error": "drain expects {\"replica\": \"host:port\", "
                         "\"draining\": true|false}",
                "type": "ClusterError",
            })
            return
        try:
            state = self.server.router.health.set_draining(
                str(payload["replica"]), bool(payload.get("draining", True)))
        except ClusterError as error:
            self._send_error(error)
            return
        self._send_json(200, {"replica": payload["replica"], "state": state})
