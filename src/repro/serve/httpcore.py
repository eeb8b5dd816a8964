"""The HTTP handler core shared by ``repro serve`` and ``repro cluster route``.

Both front ends mount their routes on :class:`CoreHandler` and run on a
:class:`CoreHTTPServer`; each keeps only its routes and its error
mapping.  The core holds the rest:

* the server lifecycle: ``port``, ``start_background``, ``wait``,
  ``stop``, daemon handler threads and a backlog sized for bursts;
* the request plumbing: JSON bodies with a size guard, the request-ID,
  deadline and trace headers, and the ``{"error", "type"}`` body;
* one response writer.

**One write per response.**  :meth:`CoreHandler._send_body` hands the
status line, the headers and the body to the socket in a single
``sendall``.  The stdlib's ``end_headers()`` followed by a body write
sends two segments.  A client delays its ACK of the first by up to
~40 ms, and Nagle's algorithm holds the second until that ACK arrives,
so every small response used to reach its client ~44 ms late — a floor
that swamped a ~1 ms cached answer.  The handler also sets
``TCP_NODELAY`` (``disable_nagle_algorithm``), which removes that floor
on its own; the single write still takes ~8% off a cached answer's
median latency on loopback (``docs/serving.md``, "HTTP writes").  On a
real network a body longer than one segment (MSS ~1,448 bytes) leaves
in several segments however it is written, and ``TCP_NODELAY`` keeps
the last from waiting for a delayed ACK.  The stdlib's own
``send_error`` path, used for malformed request lines, still writes
twice; ``TCP_NODELAY`` keeps it from waiting.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional, Tuple

from repro.core.api import canonical_json, validate_deadline_ms
from repro.errors import DeadlineExceededError, OverloadedError, ReproError, ServeError
from repro.obs.context import TRACE_HEADER, maybe_parse_trace_header
from repro.obs.ids import REQUEST_ID_HEADER, coerce_request_id
from repro.obs.prometheus import render_prometheus

#: Request header carrying the relative deadline budget in milliseconds.
DEADLINE_HEADER = "X-Repro-Deadline-Ms"

#: Maximum accepted request body, a guard against memory-exhaustion.
MAX_BODY_BYTES = 1 << 20

#: Seconds the acceptor thread waits in ``select`` before it checks for
#: a shutdown request.  :meth:`CoreHTTPServer.stop` waits for that
#: check, so this bounds how long a stop waits for the acceptor
#: (socketserver's 0.5 s default adds ~0.25 s to every stop).
ACCEPT_POLL_SECONDS = 0.05


class CoreHTTPServer(ThreadingHTTPServer):
    """A threading HTTP server with a background acceptor thread."""

    daemon_threads = True
    allow_reuse_address = True
    # The socketserver default backlog of 5 resets connections under a
    # concurrent burst — exactly the workload a micro-batcher exists for.
    request_queue_size = 128
    #: Name of the background acceptor thread.
    thread_name = "repro-http"

    def __init__(self, address: Tuple[str, int], handler, *,
                 request_timeout: float = 60.0) -> None:
        super().__init__(address, handler)
        self.request_timeout = request_timeout
        self._thread: Optional[threading.Thread] = None

    @property
    def port(self) -> int:
        """The bound port (useful with an ephemeral ``port=0`` bind)."""
        return self.server_address[1]

    def start_background(self) -> "CoreHTTPServer":
        """Serve from a daemon thread; returns self for chaining."""
        if self._thread is not None:
            raise ServeError("server is already running")
        self._thread = threading.Thread(
            target=self.serve_forever, name=self.thread_name, daemon=True,
            kwargs={"poll_interval": ACCEPT_POLL_SECONDS},
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

        Safe to call before :meth:`start_background` (and idempotent):
        ``BaseServer.shutdown`` waits on an event that only
        ``serve_forever`` sets, so calling it without a running
        acceptor thread would hang forever — when no thread was ever
        started, only the listening socket needs closing.
        """
        if self._thread is None:
            self.server_close()
            return
        self.shutdown()
        self.server_close()
        self._thread.join(timeout)
        self._thread = None


class CoreHandler(BaseHTTPRequestHandler):
    """Request plumbing and the one-write response writer."""

    protocol_version = "HTTP/1.1"
    timeout = 120.0  # socket inactivity guard for keep-alive connections
    disable_nagle_algorithm = True

    # The default handler writes a per-request access line to stderr; a
    # serving process under load must not pay for that.  Request-level
    # visibility comes from the structured loggers instead.
    def log_message(self, format, *args) -> None:  # noqa: A002
        pass

    def error_status(self, error: BaseException) -> int:
        """The HTTP status an error maps to; servers extend the mapping."""
        if isinstance(error, DeadlineExceededError):
            return 504
        if isinstance(error, OverloadedError):
            return 503
        if isinstance(error, ReproError):
            return 400
        return 500

    def metrics_document(self) -> dict:
        """The server's ``/metrics`` document."""
        raise NotImplementedError

    def _handle_metrics(self, query: dict) -> None:
        """``/metrics`` as JSON, or Prometheus text with ``?format=prometheus``."""
        document = self.metrics_document()
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

    # ------------------------------------------------------------------
    # Request headers and bodies
    # ------------------------------------------------------------------

    def _header_deadline_ms(self) -> Optional[float]:
        """The validated ``X-Repro-Deadline-Ms`` header, if present."""
        raw = self.headers.get(DEADLINE_HEADER)
        if raw is None:
            return None
        return validate_deadline_ms(raw)

    def _header_request_id(self) -> str:
        """The validated ``X-Repro-Request-Id`` header, or a fresh ID."""
        return coerce_request_id(self.headers.get(REQUEST_ID_HEADER))

    def _header_trace_context(self):
        """The validated ``X-Repro-Trace`` header, or ``None``."""
        return maybe_parse_trace_header(self.headers.get(TRACE_HEADER))

    def _drain_body(self) -> None:
        """Read and discard a request body (keep-alive hygiene for
        endpoints that take no input, like ``/jobs/<id>/cancel``)."""
        try:
            length = int(self.headers.get("Content-Length", 0))
        except (TypeError, ValueError):
            length = 0
        if 0 < length <= MAX_BODY_BYTES:
            self.rfile.read(length)

    def _read_json(self):
        """The decoded JSON body, or ``None`` after answering 400."""
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

    # ------------------------------------------------------------------
    # Responses
    # ------------------------------------------------------------------

    def _send_not_found(self, request_id: Optional[str] = None) -> None:
        self._send_json(404, {"error": f"unknown path {self.path}",
                              "type": "NotFound"}, request_id=request_id)

    def _send_error(self, error: BaseException,
                    request_id: Optional[str] = None) -> None:
        self._send_json(self.error_status(error),
                        error_body(error, request_id), request_id=request_id)

    def _send_json(self, status: int, payload: dict, *,
                   request_id: Optional[str] = None) -> None:
        self._send_body(status, canonical_json(payload).encode("utf-8"),
                        request_id=request_id)

    def _send_body(self, status: int, body: bytes, *,
                   content_type: str = "application/json",
                   request_id: Optional[str] = None) -> None:
        """Write the status line, headers and body in one socket write."""
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if request_id is not None:
            self.send_header(REQUEST_ID_HEADER, request_id)
        if self.request_version == "HTTP/0.9":  # no status line, no headers
            self.wfile.write(body)
            return
        # The head send_header() buffered, which end_headers() would
        # write on its own, goes out with the body.
        head = b"".join(self._headers_buffer)
        self._headers_buffer = []
        self.wfile.write(head + b"\r\n" + body)


def error_body(error: BaseException, request_id: Optional[str] = None) -> dict:
    """The ``{"error", "type"[, "request_id"]}`` body of a failed request."""
    body = {"error": str(error), "type": type(error).__name__}
    if request_id is not None:
        body["request_id"] = request_id
    return body
