"""End-to-end tests: the HTTP front end on an ephemeral port."""

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.core.api import AnalyzeRequest, canonical_json, serialize_analysis
from repro.errors import DeadlineExceededError, ServeError
from repro.linalg import blas_threads
from repro.serve import AnalysisService, ServeClient, start_server
from repro.serve.http import AnalysisHTTPServer
from tests.test_obs import parse_prometheus
from tests.test_serve_lifecycle import _GatedService


@pytest.fixture
def served():
    """A live service + server on an ephemeral port, torn down cleanly."""
    service = AnalysisService(max_batch=32, cache_size=128,
                              n_workers=2, queue_limit=128)
    server = start_server(service)
    client = ServeClient(port=server.port)
    client.wait_until_ready()
    yield service, server, client
    # Close the keep-alive pool first: each pooled connection pins one
    # server handler thread, and those must exit for a clean teardown.
    client.close()
    server.stop()
    assert service.close(timeout=10.0)


class TestEndpoints:
    def test_healthz(self, served):
        _, _, client = served
        health = client.healthz()
        assert health["status"] == "ok"
        assert "queue_depth" in health

    def test_analyze_roundtrip_is_canonical(self, served):
        _, _, client = served
        raw = client.analyze_raw("2412", 4.0, n_panels=100, reynolds=1e6)
        request = AnalyzeRequest(airfoil="2412", alpha_degrees=4.0,
                                 reynolds=1e6, n_panels=100)
        assert raw == canonical_json(serialize_analysis(request, request.run()))
        record = json.loads(raw)
        assert 0.6 < record["cl"] < 0.9

    def test_analyze_batch_preserves_order_and_isolates_errors(self, served):
        _, _, client = served
        results = client.analyze_batch([
            {"airfoil": "0012", "alpha_degrees": 0.0, "n_panels": 60,
             "reynolds": 0},
            {"airfoil": "99", "n_panels": 60},  # invalid NACA code
            {"airfoil": "2412", "alpha_degrees": 4.0, "n_panels": 60,
             "reynolds": 0},
        ])
        assert len(results) == 3
        assert abs(results[0]["cl"]) < 1e-6
        assert "error" in results[1] and results[1]["type"]
        assert results[2]["cl"] > 0.5

    def test_metrics_document_shape(self, served):
        _, _, client = served
        client.analyze("0012", 0.0, n_panels=60, reynolds=None)
        metrics = client.metrics()
        assert metrics["requests"]["admitted"] >= 1
        assert metrics["batching"]["batched_solves"] >= 1
        assert set(metrics["latency_ms"]) == {"count", "mean", "p50", "p90",
                                              "p99", "max"}
        assert metrics["cache"]["capacity"] == 128

    def test_blas_threads_reported_in_json_and_prometheus(self, served):
        _, _, client = served
        client.analyze("0012", 1.0, n_panels=60, reynolds=None)
        expected = blas_threads()
        assert client.metrics()["blas_threads"] == expected
        samples, types, _ = parse_prometheus(client.metrics_prometheus())
        if expected is None:  # NumPy without OpenBLAS: None is skipped
            assert "repro_blas_threads" not in types
        else:
            assert expected == 1
            assert samples[("repro_blas_threads", "")] == 1.0
            assert types["repro_blas_threads"] == "gauge"

    def test_bad_json_is_400(self, served):
        _, server, _ = served
        request = urllib.request.Request(
            f"http://127.0.0.1:{server.port}/analyze", data=b"{not json",
            headers={"Content-Type": "application/json"}, method="POST")
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400

    def test_invalid_request_is_serve_error(self, served):
        _, _, client = served
        with pytest.raises(ServeError, match="unknown request fields"):
            client.analyze({"airfoil": "2412", "bogus": 1})

    def test_unknown_path_is_404(self, served):
        _, server, _ = served
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(
                f"http://127.0.0.1:{server.port}/nope", timeout=10)
        assert excinfo.value.code == 404


class TestPanelCountBound:
    def test_oversized_request_is_400_and_its_batchmate_is_200(self):
        """An ``n_panels`` far past the cap is refused before admission,
        so it never shares a micro-batch with a valid request: its
        assembly alone would need hundreds of GiB, and the resulting
        MemoryError would fail the whole batch.  The worker is held on
        a first request so that, were the oversized one admitted, both
        would be queued when the worker drains its next batch."""
        service = _GatedService(max_batch=2, cache_size=0, n_workers=1)
        server = start_server(service)
        statuses = {}

        def post(name, payload):
            request = urllib.request.Request(
                f"http://127.0.0.1:{server.port}/analyze",
                data=json.dumps(payload).encode("utf-8"), method="POST")
            try:
                with urllib.request.urlopen(request, timeout=30.0) as answer:
                    statuses[name] = answer.status
            except urllib.error.HTTPError as error:
                statuses[name] = error.code

        threads = [
            threading.Thread(target=post, args=(
                "oversized", {"airfoil": "2412", "n_panels": 200000})),
            threading.Thread(target=post, args=(
                "valid", {"airfoil": "2412", "n_panels": 60})),
        ]
        try:
            blocker = service.submit({"airfoil": "0012", "n_panels": 60})
            assert service.parked.wait(10.0)
            for thread in threads:
                thread.start()
            # Both requests are settled before the worker resumes: each
            # is either queued or already answered at admission.
            deadline = time.monotonic() + 30.0
            while (service.queue_depth + len(statuses) < 2
                   and time.monotonic() < deadline):
                time.sleep(0.005)
            service.gate.set()
            blocker.result(timeout=30.0)
            for thread in threads:
                thread.join(timeout=60.0)
                assert not thread.is_alive()
        finally:
            service.gate.set()
            server.stop()
            assert service.close(timeout=10.0)
        assert statuses == {"oversized": 400, "valid": 200}


class TestServerLifecycle:
    def test_stop_before_start_returns_promptly(self):
        """Regression: stop() before start_background() called
        BaseServer.shutdown(), which waits on an event only
        serve_forever() sets — hanging forever.  It must just close the
        socket and return."""
        service = AnalysisService(max_batch=2, cache_size=8,
                                  n_workers=1, queue_limit=8)
        server = AnalysisHTTPServer(("127.0.0.1", 0), service)
        start = time.monotonic()
        server.stop(timeout=1.0)
        assert time.monotonic() - start < 5.0
        assert service.close(timeout=5.0)

    def test_stop_is_idempotent_after_running(self, served):
        _, server, _ = served
        server.stop()
        server.stop()  # second call: no thread left, must not hang


class TestDeadlines:
    def test_expired_deadline_is_504_and_batchmates_succeed(self, served):
        """The acceptance scenario: a request whose deadline expires in
        the queue is dropped at batch collection — counted in /metrics,
        answered 504 — while the batchmates it was submitted with are
        answered normally."""
        service, _, client = served
        results = client.analyze_batch([
            {"airfoil": "0012", "alpha_degrees": 0.0, "n_panels": 60,
             "reynolds": 0},
            {"airfoil": "0012", "alpha_degrees": 1.0, "n_panels": 60,
             "reynolds": 0, "deadline_ms": 1e-3},  # expires while queued
            {"airfoil": "2412", "alpha_degrees": 4.0, "n_panels": 60,
             "reynolds": 0},
        ])
        assert len(results) == 3
        assert abs(results[0]["cl"]) < 1e-6
        assert results[1]["type"] == "DeadlineExceededError"
        assert "deadline" in results[1]["error"]
        assert results[2]["cl"] > 0.5
        metrics = client.metrics()
        assert metrics["requests"]["expired"] >= 1
        assert metrics["requests"]["completed"] >= 2
        # The expired request never reached a solve: only live systems
        # are accounted by the solver counters.
        assert service.metrics.batched_solves >= 1

    def test_single_expired_request_maps_to_504(self, served):
        _, _, client = served
        with pytest.raises(DeadlineExceededError, match="deadline"):
            client.analyze("2412", 4.0, n_panels=60, reynolds=None,
                           deadline_ms=1e-3)

    def test_deadline_header_is_honoured(self, served):
        _, server, _ = served
        request = urllib.request.Request(
            f"http://127.0.0.1:{server.port}/analyze",
            data=b'{"airfoil": "2412", "alpha": 4.0, "reynolds": 0, "n_panels": 60}',
            headers={"Content-Type": "application/json",
                     "X-Repro-Deadline-Ms": "0.001"},
            method="POST")
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 504
        body = json.loads(excinfo.value.read().decode("utf-8"))
        assert body["type"] == "DeadlineExceededError"

    def test_generous_deadline_succeeds(self, served):
        _, _, client = served
        record = client.analyze("2412", 4.0, n_panels=60, reynolds=None,
                                deadline_ms=30_000.0)
        assert record["cl"] > 0.5

    def test_invalid_deadline_header_is_400(self, served):
        _, server, _ = served
        for value in ("not-a-number", "-5", "0"):
            request = urllib.request.Request(
                f"http://127.0.0.1:{server.port}/analyze",
                data=b'{"airfoil": "0012", "reynolds": 0, "n_panels": 60}',
                headers={"Content-Type": "application/json",
                         "X-Repro-Deadline-Ms": value},
                method="POST")
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request, timeout=10)
            assert excinfo.value.code == 400

    def test_deadline_field_does_not_perturb_canonical_record(self, served):
        """deadline_ms is transport metadata: the response bytes must
        stay identical to the CLI's --json output for the same input."""
        _, _, client = served
        raw = client.analyze_raw(
            {"airfoil": "2412", "alpha_degrees": 4.0, "reynolds": 1e6,
             "n_panels": 100, "deadline_ms": 60_000.0})
        request = AnalyzeRequest(airfoil="2412", alpha_degrees=4.0,
                                 reynolds=1e6, n_panels=100)
        assert raw == canonical_json(serialize_analysis(request, request.run()))


class TestConcurrentBatching:
    def test_32_identical_requests_batch_and_hit_cache(self):
        """The acceptance scenario: 32 concurrent identical requests
        produce at least one batched solve, a nonzero cache hit rate,
        and a graceful shutdown with no stray threads."""
        baseline_threads = threading.active_count()
        service = AnalysisService(max_batch=32, cache_size=64,
                                  n_workers=2, queue_limit=64)
        server = start_server(service)
        client = ServeClient(port=server.port)
        client.wait_until_ready()

        barrier = threading.Barrier(32)
        records, errors = [None] * 32, []

        def call(index):
            try:
                barrier.wait(10.0)
                records[index] = client.analyze("2412", 4.0, n_panels=60,
                                                reynolds=5e5)
            except Exception as error:  # surface failures in the test body
                errors.append(error)

        threads = [threading.Thread(target=call, args=(index,))
                   for index in range(32)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30.0)
        assert not errors
        assert all(record == records[0] for record in records)
        assert 0.6 < records[0]["cl"] < 0.9

        metrics = client.metrics()
        assert metrics["requests"]["completed"] == 32
        assert metrics["batching"]["batched_solves"] >= 1
        assert metrics["cache"]["hits"] > 0
        assert metrics["cache"]["hit_rate"] > 0.0
        # Identical requests coalesce: far fewer systems solved than served.
        assert metrics["batching"]["solved_systems"] < 32

        # The client's keep-alive pool pins one server handler thread
        # per connection; closing it is what lets the server quiesce.
        client.close()
        server.stop()
        assert service.close(timeout=10.0)
        deadline = time.monotonic() + 10.0
        while (threading.active_count() > baseline_threads
               and time.monotonic() < deadline):
            time.sleep(0.02)
        assert threading.active_count() == baseline_threads

    def test_repeat_after_quiesce_is_a_fast_cache_hit(self, served):
        service, _, client = served
        first = client.analyze("0012", 2.0, n_panels=60, reynolds=None)
        second = client.analyze("0012", 2.0, n_panels=60, reynolds=None)
        assert first == second
        assert service.cache.hits >= 1
