"""The shared HTTP handler core: one socket write per response.

A response written as headers then body leaves in two segments; the
client delays its ACK of the first, and Nagle's algorithm holds the
second until that ACK arrives, so every small response reached its
client ~44 ms late.  These tests pin the fix on both front ends: each
response is exactly one write on a ``TCP_NODELAY`` socket, and
back-to-back keep-alive requests no longer pay the floor.
"""

import http.client
import json
import socket
import time

import pytest

from repro.cluster import ClusterRouter, start_cluster_server
from repro.serve import AnalysisService, start_server

ANALYZE = {"airfoil": "2412", "alpha_degrees": 4.0, "n_panels": 40,
           "reynolds": 0}


class _CountingWriter:
    """Wraps a handler's ``wfile`` and counts the writes made through it."""

    def __init__(self, inner):
        self.inner = inner
        self.writes = 0

    def write(self, data):
        self.writes += 1
        return self.inner.write(data)

    def __getattr__(self, name):
        return getattr(self.inner, name)


def count_writes(server):
    """Swap *server*'s handler for one that logs, per request, the
    method, path, number of socket writes and the ``TCP_NODELAY`` flag."""
    log = []

    class Counting(server.RequestHandlerClass):
        def setup(self):
            super().setup()
            self.wfile = _CountingWriter(self.wfile)

        def handle_one_request(self):
            self.wfile.writes = 0
            super().handle_one_request()
            if self.wfile.writes:
                nodelay = self.connection.getsockopt(socket.IPPROTO_TCP,
                                                     socket.TCP_NODELAY)
                log.append((self.command, self.path, self.wfile.writes,
                            bool(nodelay)))

    server.RequestHandlerClass = Counting
    return log


def logged(log, count, timeout=5.0):
    """*log* once it holds *count* entries: a handler thread appends
    just after its response reaches the client."""
    deadline = time.monotonic() + timeout
    while len(log) < count and time.monotonic() < deadline:
        time.sleep(0.005)
    return log


def exchange(port, requests):
    """Send ``(method, path, body)`` requests on one keep-alive
    connection; returns the statuses."""
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    statuses = []
    try:
        for method, path, body in requests:
            data = None if body is None else (
                body if isinstance(body, bytes) else json.dumps(body).encode())
            connection.request(method, path, body=data)
            response = connection.getresponse()
            response.read()
            statuses.append(response.status)
    finally:
        connection.close()
    return statuses


@pytest.fixture
def serve(tmp_path):
    service = AnalysisService(cache_size=16, n_workers=1,
                              jobs_dir=str(tmp_path / "jobs"))
    server = start_server(service)
    yield server
    server.stop()
    assert service.close(timeout=10.0)


@pytest.fixture
def routed(serve):
    router = ClusterRouter([f"127.0.0.1:{serve.port}"],
                           health_interval=0.05).start()
    server = start_cluster_server(router)
    yield server
    server.stop()
    router.close()


#: One request per kind of response: JSON, text, relayed bytes, and
#: the error paths (bad body, unknown path, unknown job, bad query).
REQUESTS = [
    ("GET", "/healthz", None),
    ("GET", "/metrics", None),
    ("GET", "/metrics/prometheus", None),
    ("GET", "/metrics?format=xml", None),
    ("GET", "/debug/trace", None),
    ("POST", "/analyze", ANALYZE),
    ("POST", "/analyze", b"{not json"),
    ("POST", "/analyze_batch", {"requests": [ANALYZE]}),
    ("GET", "/jobs", None),
    ("GET", "/jobs/job-missing", None),
    ("GET", "/nope", None),
]


class TestOneWritePerResponse:
    def test_serve(self, serve):
        log = count_writes(serve)
        statuses = exchange(serve.port, REQUESTS)
        assert 200 in statuses and 400 in statuses and 404 in statuses
        assert len(logged(log, len(REQUESTS))) == len(REQUESTS)
        assert all(writes == 1 and nodelay for *_, writes, nodelay in log), log

    def test_router(self, routed):
        log = count_writes(routed)
        statuses = exchange(routed.port,
                            REQUESTS + [("GET", "/cluster/status", None)])
        assert 200 in statuses and 400 in statuses and 404 in statuses
        assert len(logged(log, len(REQUESTS) + 1)) == len(REQUESTS) + 1
        assert all(writes == 1 and nodelay for *_, writes, nodelay in log), log

    def test_job_routes(self, serve):
        log = count_writes(serve)
        spec = {"seed": 1, "ga": {"population_size": 4, "generations": 1},
                "fitness": {"n_panels": 40}}
        connection = http.client.HTTPConnection("127.0.0.1", serve.port,
                                                timeout=30)
        try:
            connection.request("POST", "/jobs", body=json.dumps(spec).encode())
            job_id = json.loads(connection.getresponse().read())["id"]
        finally:
            connection.close()
        exchange(serve.port, [("GET", f"/jobs/{job_id}", None),
                              ("GET", f"/jobs/{job_id}/events", None),
                              ("POST", f"/jobs/{job_id}/cancel", b"")])
        assert len(logged(log, 4)) == 4
        assert all(writes == 1 and nodelay for *_, writes, nodelay in log), log


class TestNoDelayedAckFloor:
    """Twenty back-to-back keep-alive polls took ~860 ms when every
    response waited out a delayed ACK; one write takes ~1 ms each."""

    @pytest.mark.parametrize("front", ["serve", "routed"])
    def test_back_to_back_healthz(self, request, front):
        server = request.getfixturevalue(front)
        exchange(server.port, [("GET", "/healthz", None)])  # warm the path
        started = time.perf_counter()
        statuses = exchange(server.port, [("GET", "/healthz", None)] * 20)
        elapsed = time.perf_counter() - started
        assert statuses == [200] * 20
        assert elapsed < 0.3, f"20 keep-alive polls took {elapsed * 1e3:.0f} ms"


class TestHTTP09:
    def test_bare_body_without_a_head(self, serve):
        """An HTTP/0.9 request gets the body alone: no status line, no
        headers, then the connection closes."""
        with socket.create_connection(("127.0.0.1", serve.port),
                                      timeout=10) as sock:
            sock.sendall(b"GET /healthz\r\n\r\n")
            data = b""
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                data += chunk
        assert json.loads(data) == {"queue_depth": 0, "status": "ok"}
