"""End-to-end tests for serving-path observability: tracing, the live
W/A/L/O reduction, /debug/trace, Prometheus exposition, request-ID
propagation, structured logs, and the byte-identity guarantee."""

import io
import json
import urllib.error
import urllib.request

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ServeError
from repro.obs.ids import REQUEST_ID_HEADER
from repro.obs.logging import StructuredLogger
from repro.obs.trace import Trace
from repro.serve import AnalysisService, ServeClient, Tracer, start_server
from repro.serve.metrics import ServiceMetrics
from repro.serve.tracing import render_recent

from tests.test_obs import parse_prometheus

REQUEST = {"airfoil": "2412", "alpha_degrees": 4.0, "reynolds": 0,
           "n_panels": 60}


@pytest.fixture
def service():
    svc = AnalysisService(max_batch=16, cache_size=64,
                          n_workers=1, queue_limit=64)
    yield svc
    assert svc.close(timeout=10.0)


@pytest.fixture
def served():
    svc = AnalysisService(max_batch=16, cache_size=64,
                          n_workers=1, queue_limit=64)
    server = start_server(svc)
    client = ServeClient(port=server.port)
    client.wait_until_ready()
    yield svc, server, client
    client.close()
    server.stop()
    assert svc.close(timeout=10.0)


# ----------------------------------------------------------------------
# Tracer mechanics: sampling and the ring
# ----------------------------------------------------------------------

class TestTracer:
    def test_stride_sampling_is_deterministic(self):
        tracer = Tracer(sample_rate=0.25, ring_size=16)
        pattern = [tracer.start(f"r{i}") is not None for i in range(8)]
        # Every fourth request traced, same positions on every run.
        assert pattern == [False, False, False, True] * 2

    def test_rate_one_traces_everything_rate_zero_nothing(self):
        assert all(Tracer(sample_rate=1.0).start(f"r{i}") for i in range(4))
        tracer = Tracer(sample_rate=0.0)
        assert all(tracer.start(f"r{i}") is None for i in range(4))

    def test_invalid_rates_and_ring_rejected(self):
        with pytest.raises(ServeError):
            Tracer(sample_rate=1.5)
        with pytest.raises(ServeError):
            Tracer(sample_rate=-0.1)
        with pytest.raises(ServeError):
            Tracer(ring_size=-1)

    def test_ring_evicts_oldest_and_counts_evictions(self):
        tracer = Tracer(ring_size=2)
        for index in range(5):
            tracer.finish(Trace(f"r{index}"))
        recent = tracer.recent()
        assert [trace.trace_id for trace in recent] == ["r3", "r4"]
        snapshot = tracer.stages_snapshot()
        assert snapshot["ring"] == {"capacity": 2, "size": 2, "evicted": 3}
        assert snapshot["traced"] == 5

    def test_recent_slices_newest_without_reordering(self):
        tracer = Tracer(ring_size=8)
        for index in range(4):
            tracer.finish(Trace(f"r{index}"))
        assert [t.trace_id for t in tracer.recent(2)] == ["r2", "r3"]
        assert tracer.recent(0) == []

    def test_aggregate_maintains_overhead_identity(self):
        tracer = Tracer()
        trace = Trace("r0")
        trace.add_stage("solve", trace.root.start, trace.root.start + 0.25)
        tracer.finish(trace)
        snapshot = tracer.stages_snapshot()
        assert snapshot["overhead_seconds"] == pytest.approx(
            snapshot["wall_seconds"] - snapshot["solve_seconds"])

    def test_render_recent_empty_is_a_hint_not_a_crash(self):
        assert "no completed traces" in render_recent([])


# ----------------------------------------------------------------------
# Live service: span nesting, W/A/L/O, logs
# ----------------------------------------------------------------------

class TestServiceTracing:
    def test_stages_reduce_to_walo_with_identity(self, service):
        service.analyze(REQUEST)
        stages = service.metrics_snapshot()["stages"]
        assert stages["traced"] >= 1
        assert stages["solve_seconds"] > 0.0
        assert stages["assembly_seconds"] > 0.0
        assert stages["overhead_seconds"] == pytest.approx(
            stages["wall_seconds"] - stages["solve_seconds"])
        # The solve is part of the wall: L <= W.
        assert stages["solve_seconds"] <= stages["wall_seconds"]

    def test_trace_records_every_serving_stage(self, service):
        service.analyze(REQUEST, request_id="full-path")
        trace = service.recent_traces(1)[0]
        names = {span.name for span in trace.spans}
        assert {"request", "queue_wait", "batch_collect", "cache_lookup",
                "assembly", "solve", "serialize"} <= names
        assert trace.trace_id == "full-path"
        assert trace.outcome == "completed"
        assert trace.annotations["batch_size"] >= 1
        assert trace.annotations["cache_hit"] is False

    def test_cache_hit_trace_is_marked_and_cheap(self, service):
        service.analyze(REQUEST)
        service.analyze(REQUEST, request_id="hit-1")
        trace = service.recent_traces(1)[0]
        assert trace.trace_id == "hit-1"
        assert trace.annotations["cache_hit"] is True
        assert not any(span.name == "solve" for span in trace.spans)

    def test_gantt_renders_after_traffic(self, service):
        service.analyze(REQUEST, request_id="gantt-req")
        chart = service.render_trace()
        assert "gantt-req" in chart
        assert "legend:" in chart and "s = solve" in chart

    def test_unsampled_service_changes_nothing_but_traces(self):
        traced = AnalysisService(n_workers=1, trace_sample=1.0)
        dark = AnalysisService(n_workers=1, trace_sample=0.0)
        try:
            body_traced = traced.analyze_json(REQUEST)
            body_dark = dark.analyze_json(REQUEST)
            assert body_traced == body_dark
            assert traced.recent_traces()
            assert not dark.recent_traces()
            assert dark.metrics_snapshot()["stages"]["traced"] == 0
        finally:
            assert traced.close() and dark.close()

    def test_walo_breakdown_labels_requests(self, service):
        service.analyze(REQUEST, request_id="walo-1")
        rows = service.walo_breakdown(1)
        assert rows[0]["request_id"] == "walo-1"
        assert rows[0]["outcome"] == "completed"
        assert rows[0]["overhead_seconds"] == pytest.approx(
            rows[0]["wall_seconds"] - rows[0]["solve_seconds"])

    def test_one_log_line_per_completion(self):
        stream = io.StringIO()
        service = AnalysisService(n_workers=1,
                                  logger=StructuredLogger("json", stream))
        try:
            service.analyze(REQUEST, request_id="logged-1")
        finally:
            assert service.close()
        lines = [json.loads(line) for line in
                 stream.getvalue().strip().splitlines()]
        completions = [record for record in lines
                       if record["event"] == "request"]
        assert len(completions) == 1
        record = completions[0]
        assert record["request_id"] == "logged-1"
        assert record["outcome"] == "completed"
        assert record["cache_hit"] is False
        assert record["latency_ms"] > 0.0
        assert "solve" in record["stages_ms"]

    def test_invalid_request_id_rejected_before_admission(self, service):
        with pytest.raises(ServeError, match="request id"):
            service.analyze(REQUEST, request_id="bad id\n")
        assert service.metrics_snapshot()["requests"]["admitted"] == 0


# ----------------------------------------------------------------------
# HTTP: request-ID propagation, /debug/trace, Prometheus
# ----------------------------------------------------------------------

class TestHTTPObservability:
    def test_request_id_roundtrip_client_to_service_to_header(self, served):
        service, _, client = served
        client.analyze(REQUEST, request_id="e2e-42")
        assert client.last_request_id == "e2e-42"
        assert service.recent_traces(1)[0].trace_id == "e2e-42"

    def test_request_id_generated_when_absent(self, served):
        _, _, client = served
        client.analyze(REQUEST)
        assert client.last_request_id and len(client.last_request_id) == 32

    def test_error_responses_echo_the_id(self, served):
        _, server, _ = served
        request = urllib.request.Request(
            f"http://127.0.0.1:{server.port}/analyze",
            data=json.dumps({"airfoil": "99", "n_panels": 60}).encode(),
            headers={"Content-Type": "application/json",
                     REQUEST_ID_HEADER: "err-7"},
            method="POST")
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.headers.get(REQUEST_ID_HEADER) == "err-7"
        body = json.loads(excinfo.value.read().decode())
        assert body["request_id"] == "err-7"

    def test_hostile_request_id_is_a_400(self, served):
        _, server, _ = served
        request = urllib.request.Request(
            f"http://127.0.0.1:{server.port}/analyze",
            data=json.dumps(REQUEST).encode(),
            headers={"Content-Type": "application/json",
                     REQUEST_ID_HEADER: "x" * 200},
            method="POST")
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400

    def test_batch_wrapper_carries_one_id(self, served):
        _, server, _ = served
        request = urllib.request.Request(
            f"http://127.0.0.1:{server.port}/analyze_batch",
            data=json.dumps({"requests": [REQUEST]}).encode(),
            headers={"Content-Type": "application/json",
                     REQUEST_ID_HEADER: "batch-1"},
            method="POST")
        with urllib.request.urlopen(request, timeout=30) as response:
            assert response.headers.get(REQUEST_ID_HEADER) == "batch-1"
            body = json.loads(response.read().decode())
        assert body["request_id"] == "batch-1"
        assert body["results"][0]["cl"] > 0.5

    def test_debug_trace_gantt_nonempty_after_traffic(self, served):
        _, _, client = served
        client.analyze(REQUEST, request_id="seen-in-gantt")
        chart = client.debug_trace()
        assert "seen-in-ga" in chart  # row label uses the shortened ID
        assert "legend:" in chart

    def test_debug_trace_json_exposes_span_trees(self, served):
        _, _, client = served
        client.analyze(REQUEST, request_id="json-trace")
        document = client.debug_trace(n=4, fmt="json")
        traces = document["traces"]
        assert traces[-1]["trace_id"] == "json-trace"
        walo = traces[-1]["walo"]
        assert walo["overhead_seconds"] == pytest.approx(
            walo["wall_seconds"] - walo["solve_seconds"])

    def test_prometheus_formats_parse_without_duplicates(self, served):
        _, server, client = served
        client.analyze(REQUEST)
        text = client.metrics_prometheus()
        samples, types, _ = parse_prometheus(text)
        assert samples[("repro_requests_completed", "")] >= 1
        assert ("repro_stages_solve_seconds", "") in samples
        assert types["repro_requests_completed"] == "counter"
        # The query-parameter spelling serves the identical document
        # modulo freshly-sampled gauges.
        with urllib.request.urlopen(
                f"http://127.0.0.1:{server.port}/metrics?format=prometheus",
                timeout=10) as response:
            assert response.headers["Content-Type"].startswith("text/plain")
            alt, _, _ = parse_prometheus(response.read().decode())
        assert set(samples) == set(alt)

    def test_metrics_json_remains_the_default(self, served):
        _, _, client = served
        snapshot = client.metrics()
        assert "stages" in snapshot and "requests" in snapshot


# ----------------------------------------------------------------------
# Snapshot affordances and accounting drift
# ----------------------------------------------------------------------

class TestSnapshotAffordances:
    def test_seq_uptime_and_p90(self, service):
        service.analyze(REQUEST)
        first = service.metrics_snapshot()
        second = service.metrics_snapshot()
        assert second["snapshot_seq"] == first["snapshot_seq"] + 1
        assert second["uptime_seconds"] >= first["uptime_seconds"] >= 0.0
        assert second["started_at"] == first["started_at"] > 0
        assert first["latency_ms"]["p90"] is not None
        assert (first["latency_ms"]["p50"] <= first["latency_ms"]["p90"]
                <= first["latency_ms"]["p99"])

    def test_accounting_drift_surfaces_negative_in_flight(self):
        metrics = ServiceMetrics()
        metrics.record_completed(0.01)  # completed without ever admitting
        snapshot = metrics.snapshot()
        requests = snapshot["requests"]
        assert requests["in_flight"] == 0  # still clamped
        assert requests["accounting_drift"] == 1
        assert requests["accounting_drift_worst"] == 1
        healthy = ServiceMetrics()
        healthy.record_admitted()
        assert healthy.snapshot()["requests"]["accounting_drift"] == 0


# ----------------------------------------------------------------------
# Property: tracing never changes response bytes
# ----------------------------------------------------------------------

class TestByteIdentity:
    @settings(max_examples=8, deadline=None)
    @given(alpha=st.sampled_from([-2.0, 0.0, 1.5, 4.0, 8.0]),
           airfoil=st.sampled_from(["0012", "2412", "4415"]),
           sample=st.sampled_from([0.0, 0.5, 1.0]))
    def test_sampled_tracing_preserves_response_bytes(self, alpha, airfoil,
                                                      sample):
        request = {"airfoil": airfoil, "alpha_degrees": alpha,
                   "reynolds": 0, "n_panels": 50}
        traced = AnalysisService(n_workers=1, trace_sample=sample,
                                 cache_size=0)
        untraced = AnalysisService(n_workers=1, trace_sample=0.0,
                                   cache_size=0)
        try:
            assert (traced.analyze_json(request)
                    == untraced.analyze_json(request))
        finally:
            assert traced.close() and untraced.close()
