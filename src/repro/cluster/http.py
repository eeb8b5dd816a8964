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

Error mapping mirrors :mod:`repro.serve.http`, with one addition: a
replica rejection proxied through the router keeps its *original*
status code (the ``status`` attribute on
:class:`~repro.errors.ServeError`), so a 404 from a replica does not
mutate into a router 400 along the way.
"""

from __future__ import annotations

import json
import threading
import urllib.parse
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional, Tuple

from repro.cluster.router import ClusterRouter
from repro.core.api import canonical_json, validate_deadline_ms
from repro.errors import (
    ClusterError,
    DeadlineExceededError,
    OverloadedError,
    ReproError,
    ServeError,
)
from repro.obs.context import TRACE_HEADER, maybe_parse_trace_header
from repro.obs.ids import REQUEST_ID_HEADER, coerce_request_id
from repro.obs.prometheus import render_prometheus
from repro.serve.http import DEADLINE_HEADER, MAX_BODY_BYTES


class ClusterHTTPServer(ThreadingHTTPServer):
    """A threading HTTP server bound to one :class:`ClusterRouter`."""

    daemon_threads = True
    allow_reuse_address = True
    request_queue_size = 128

    def __init__(self, address: Tuple[str, int], router: ClusterRouter, *,
                 request_timeout: float = 60.0) -> None:
        super().__init__(address, _ClusterHandler)
        self.router = router
        self.request_timeout = request_timeout
        self._thread: Optional[threading.Thread] = None

    @property
    def port(self) -> int:
        """The bound port (useful with an ephemeral ``port=0`` bind)."""
        return self.server_address[1]

    def start_background(self) -> "ClusterHTTPServer":
        """Serve from a daemon thread; returns self for chaining."""
        if self._thread is not None:
            raise ServeError("cluster server is already running")
        self._thread = threading.Thread(
            target=self.serve_forever, name="repro-cluster-http", daemon=True
        )
        self._thread.start()
        return self

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block on the background acceptor thread; True once it exits."""
        if self._thread is None:
            return True
        self._thread.join(timeout)
        return not self._thread.is_alive()

    def stop(self, timeout: float = 5.0) -> None:
        """Stop accepting connections and join the acceptor thread.

        Same pre-start/idempotency contract as the serve server: with
        no acceptor thread running only the socket needs closing.
        """
        if self._thread is None:
            self.server_close()
            return
        self.shutdown()
        self.server_close()
        self._thread.join(timeout)
        self._thread = None


def start_cluster_server(router: ClusterRouter, *, host: str = "127.0.0.1",
                         port: int = 0,
                         request_timeout: float = 60.0) -> ClusterHTTPServer:
    """Bind and start a background router server (``port=0`` = ephemeral)."""
    server = ClusterHTTPServer((host, port), router,
                               request_timeout=request_timeout)
    return server.start_background()


class _ClusterHandler(BaseHTTPRequestHandler):
    server_version = "repro-cluster/1.0"
    protocol_version = "HTTP/1.1"
    timeout = 120.0  # socket inactivity guard for keep-alive connections

    def log_message(self, format, *args) -> None:  # noqa: A002
        pass

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
            self._send_json(404, {"error": f"unknown path {self.path}",
                                  "type": "NotFound"})

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
            self._send_json(404, {"error": f"unknown path {self.path}",
                                  "type": "NotFound"})

    def _handle_metrics(self, query: dict) -> None:
        document = self.server.router.metrics_document()
        fmt = query.get("format", ["json"])[-1]
        if fmt == "prometheus":
            body = render_prometheus(document).encode("utf-8")
            self._send_body(200, body,
                            content_type="text/plain; version=0.0.4; charset=utf-8")
        elif fmt == "json":
            self._send_json(200, document)
        else:
            self._send_json(400, {
                "error": f"unknown metrics format {fmt!r} "
                         "(expected 'json' or 'prometheus')",
                "type": "ServeError",
            })

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
            self._send_error(error, None)

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
            trace_context = maybe_parse_trace_header(
                self.headers.get(TRACE_HEADER))
            raw = self.server.router.analyze_raw(
                payload, deadline_ms=self._header_deadline_ms(),
                request_id=request_id, trace_context=trace_context)
        except ReproError as error:
            self._send_error(error, request_id)
            return
        except Exception as error:  # pragma: no cover - defensive
            self._send_json(500, _error_body(error, request_id),
                            request_id=request_id)
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
            self._send_error(error, None)
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
                self._send_json(404, {"error": f"unknown path {self.path}",
                                      "type": "NotFound"},
                                request_id=request_id)
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
            self._send_json(404, {"error": f"unknown path {self.path}",
                                  "type": "NotFound"}, request_id=request_id)
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
            self._send_json(400, _error_body(error))
            return
        self._send_json(200, {"replica": payload["replica"], "state": state})

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------

    def _header_deadline_ms(self) -> Optional[float]:
        raw = self.headers.get(DEADLINE_HEADER)
        if raw is None:
            return None
        return validate_deadline_ms(raw)

    def _header_request_id(self) -> str:
        return coerce_request_id(self.headers.get(REQUEST_ID_HEADER))

    def _send_error(self, error: ReproError,
                    request_id: Optional[str]) -> None:
        """Map a router-side error onto the right HTTP status.

        A proxied replica rejection carries its upstream status on the
        error's ``status`` attribute and keeps it; router-origin errors
        map by type like the serve front end.
        """
        status = getattr(error, "status", None)
        if not isinstance(status, int):
            if isinstance(error, DeadlineExceededError):
                status = 504
            elif isinstance(error, OverloadedError):
                status = 503
            else:
                status = 400
        self._send_json(status, _error_body(error, request_id),
                        request_id=request_id)

    def _drain_body(self) -> None:
        try:
            length = int(self.headers.get("Content-Length", 0))
        except (TypeError, ValueError):
            length = 0
        if 0 < length <= MAX_BODY_BYTES:
            self.rfile.read(length)

    def _read_json(self):
        try:
            length = int(self.headers.get("Content-Length", 0))
        except (TypeError, ValueError):
            length = -1
        if length < 0 or length > MAX_BODY_BYTES:
            self._send_json(400, {"error": "missing or oversized request body",
                                  "type": "ServeError"})
            return None
        body = self.rfile.read(length)
        try:
            return json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            self._send_json(400, {"error": f"invalid JSON body: {error}",
                                  "type": "ServeError"})
            return None

    def _send_json(self, status: int, payload: dict, *,
                   request_id: Optional[str] = None) -> None:
        self._send_body(status, canonical_json(payload).encode("utf-8"),
                        request_id=request_id)

    def _send_body(self, status: int, body: bytes, *,
                   content_type: str = "application/json",
                   request_id: Optional[str] = None) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if request_id is not None:
            self.send_header(REQUEST_ID_HEADER, request_id)
        self.end_headers()
        self.wfile.write(body)


def _error_body(error: BaseException,
                request_id: Optional[str] = None) -> dict:
    body = {"error": str(error), "type": type(error).__name__}
    if request_id is not None:
        body["request_id"] = request_id
    return body
