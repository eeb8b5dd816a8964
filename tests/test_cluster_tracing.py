"""Cluster-wide distributed tracing, SLO burn rates, and the stitched
``/debug/trace`` Gantt — in-process replicas behind a real router."""

import io
import json
import time
import urllib.request

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterRouter
from repro.cluster.router import (SPAN_HEALTH_LOOKUP, SPAN_PROXY_ATTEMPT,
                                  SPAN_ROUTE)
from repro.cluster.http import start_cluster_server
from repro.obs.context import new_trace_context, parse_trace_header
from repro.obs.logging import StructuredLogger
from repro.serve import AnalysisService, ServeClient, start_server
from tests.test_obs import parse_prometheus


def payload(alpha):
    return {"airfoil": "2412", "alpha_degrees": float(alpha),
            "reynolds": 0, "n_panels": 60}


class TracedCluster:
    """Two in-process replicas behind one router, tracing everything."""

    def __init__(self, *, trace_sample=1.0, log_stream=None):
        self.services, self.servers, specs = [], [], []
        for _ in range(2):
            service = AnalysisService(max_batch=8,
                                      cache_size=64, n_workers=1,
                                      queue_limit=64,
                                      slo_latency_ms=250.0)
            server = start_server(service)
            self.services.append(service)
            self.servers.append(server)
            specs.append(f"127.0.0.1:{server.port}")
        logger = (None if log_stream is None
                  else StructuredLogger("json", log_stream))
        self.router = ClusterRouter(specs, health_interval=0.05,
                                    down_after=2, timeout=30.0,
                                    trace_sample=trace_sample,
                                    logger=logger).start()
        self.names = specs

    def stitched_after_analyze(self, alpha, *, timeout=5.0):
        """Route one request, then poll for its stitched document (the
        replica closes its trace just after resolving the response, so
        the first pull can race the ring insert)."""
        record = self.router.analyze(payload(alpha))
        assert "cl" in record
        trace_id = self.router.tracer.recent(1)[-1].trace_id
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            document = self.router.stitched_trace(trace_id)
            assert document is not None
            if document["stitched"]:
                return document
            time.sleep(0.02)
        raise AssertionError(f"trace {trace_id} never stitched: {document}")

    def close(self):
        self.router.close()
        for server, service in zip(self.servers, self.services):
            server.stop()
            service.close(timeout=30.0)


@pytest.fixture
def cluster():
    built = TracedCluster()
    yield built
    built.close()


class TestStitchedTrace:
    def test_one_tree_spanning_router_and_replica(self, cluster):
        document = cluster.stitched_after_analyze(4.0)
        hops = {hop["hop"]: hop for hop in document["hops"]}
        assert "router" in hops
        replica = document["annotations"]["replica"]
        assert replica in cluster.names
        assert f"replica {replica}" in hops
        router_names = [span["name"] for span in hops["router"]["spans"]]
        assert SPAN_ROUTE in router_names
        assert SPAN_HEALTH_LOOKUP in router_names
        assert SPAN_PROXY_ATTEMPT in router_names
        replica_names = [span["name"]
                         for span in hops[f"replica {replica}"]["spans"]]
        assert "request" in replica_names
        assert "solve" in replica_names

    def test_replica_spans_stay_inside_proxy_bounds(self, cluster):
        document = cluster.stitched_after_analyze(5.0)
        hops = {hop["hop"]: hop for hop in document["hops"]}
        proxy = next(span for span in hops["router"]["spans"]
                     if span["name"] == SPAN_PROXY_ATTEMPT)
        replica = document["annotations"]["replica"]
        for span in hops[f"replica {replica}"]["spans"]:
            assert proxy["start"] <= span["start"] <= proxy["end"]
            assert proxy["start"] <= span["end"] <= proxy["end"]

    def test_every_hop_satisfies_the_walo_identity(self, cluster):
        document = cluster.stitched_after_analyze(6.0)
        for hop in document["hops"]:
            walo = hop["walo"]
            assert walo["overhead_seconds"] == pytest.approx(
                walo["wall_seconds"] - walo["solve_seconds"])

    def test_ascii_gantt_renders_one_row_per_hop(self, cluster):
        document = cluster.stitched_after_analyze(7.0)
        text = cluster.router.render_stitched(document["trace_id"])
        replica = document["annotations"]["replica"]
        assert "router" in text
        assert f"replica {replica}" in text

    def test_stitch_counters_move(self, cluster):
        cluster.stitched_after_analyze(8.0)
        assert cluster.router.metrics.get("trace_pulls") >= 1
        assert cluster.router.metrics.get("traces_stitched") >= 1

    def test_unknown_trace_id_returns_none(self, cluster):
        assert cluster.router.stitched_trace("no-such-trace") is None

    def test_unsampled_router_keeps_serving(self):
        built = TracedCluster(trace_sample=0.0)
        try:
            record = built.router.analyze(payload(3.0))
            assert "cl" in record
            assert built.router.stitched_trace() is None
            assert built.router.metrics.get("routed") == 1
        finally:
            built.close()


class TestPropagationInvariance:
    @settings(max_examples=8, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(alpha=st.floats(min_value=-4.0, max_value=9.0),
           sampled=st.booleans())
    def test_tracing_never_changes_response_bytes(self, cluster, alpha,
                                                  sampled):
        """The byte-identity contract survives the router and every
        sampling decision: headers may differ, bodies may not."""
        direct = ServeClient(port=self.port_of(cluster, 0), timeout=10.0)
        try:
            reference = direct.analyze_raw(payload(alpha))
        finally:
            direct.close()
        context = new_trace_context(sampled=sampled)
        via_router = cluster.router.analyze_raw(payload(alpha),
                                                trace_context=context)
        bare = cluster.router.analyze_raw(payload(alpha))
        assert via_router == reference
        assert bare == reference

    @staticmethod
    def port_of(cluster, index):
        return cluster.servers[index].port

    def test_replica_obeys_the_head_decision(self, cluster):
        context = new_trace_context(sampled=False)
        cluster.router.analyze_raw(payload(2.5), trace_context=context)
        for service in cluster.services:
            assert service.find_trace(context.trace_id) is None
        context = new_trace_context(sampled=True)
        cluster.router.analyze_raw(payload(2.5), trace_context=context)
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            if any(service.find_trace(context.trace_id) is not None
                   for service in cluster.services):
                break
            time.sleep(0.02)
        else:
            raise AssertionError("sampled trace never reached a replica ring")

    def test_header_wire_format_reaches_the_replica(self, cluster):
        # Drive the router over real HTTP with an explicit header.
        server = start_cluster_server(cluster.router)
        try:
            context = new_trace_context(sampled=True)
            request = urllib.request.Request(
                f"http://127.0.0.1:{server.port}/analyze",
                data=json.dumps(payload(1.5)).encode(),
                headers={"Content-Type": "application/json",
                         "X-Repro-Trace": context.header_value()},
            )
            with urllib.request.urlopen(request, timeout=10.0) as response:
                assert response.status == 200
            assert parse_trace_header(context.header_value()) == context
            trace = cluster.router.tracer.find(context.trace_id)
            assert trace is not None
        finally:
            server.stop()


class TestClusterHTTPEndpoints:
    def _get(self, port, path):
        with urllib.request.urlopen(
                f"http://127.0.0.1:{port}{path}", timeout=10.0) as response:
            return response.status, response.read().decode()

    def test_debug_trace_ascii_and_json(self, cluster):
        document = cluster.stitched_after_analyze(3.5)
        server = start_cluster_server(cluster.router)
        try:
            status, text = self._get(server.port, "/debug/trace")
            assert status == 200
            assert "router" in text
            status, body = self._get(
                server.port,
                f"/debug/trace?format=json&trace_id={document['trace_id']}")
            assert status == 200
            fetched = json.loads(body)
            assert fetched["trace_id"] == document["trace_id"]
            assert fetched["stitched"] is True
        finally:
            server.stop()

    def test_debug_trace_unknown_id_404s_as_json(self, cluster):
        server = start_cluster_server(cluster.router)
        try:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                self._get(server.port, "/debug/trace?format=json&trace_id=nope")
            assert excinfo.value.code == 404
            assert json.loads(excinfo.value.read())["type"] == "TraceNotFound"
        finally:
            server.stop()

    def test_replica_trace_lookup_route(self, cluster):
        document = cluster.stitched_after_analyze(2.0)
        replica = document["annotations"]["replica"]
        port = int(replica.rsplit(":", 1)[1])
        status, body = self._get(port,
                                 f"/debug/trace/{document['trace_id']}")
        assert status == 200
        fetched = json.loads(body)
        assert fetched["trace"]["trace_id"] == document["trace_id"]
        assert "monotonic_now" in fetched
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self._get(port, "/debug/trace/definitely-missing")
        assert excinfo.value.code == 404

    def test_router_prometheus_scrape_parses_without_duplicates(self, cluster):
        cluster.stitched_after_analyze(1.0)
        server = start_cluster_server(cluster.router)
        try:
            status, text = self._get(server.port,
                                     "/metrics?format=prometheus")
            assert status == 200
            samples, types, exemplars = parse_prometheus(text)
            assert types["repro_router_routed"] == "counter"
            assert samples[("repro_router_slo_availability_good", "")] >= 1
            bucket_families = [name for name, _ in samples
                               if name.endswith("_bucket")]
            assert bucket_families
            assert any(name.startswith("repro_cluster_latency_hist_ms")
                       for name, _ in samples)
            assert exemplars  # at least one bucket carries a trace id
        finally:
            server.stop()

    def test_cluster_json_metrics_merge_slo_and_histograms(self, cluster):
        cluster.stitched_after_analyze(0.5)
        document = cluster.router.metrics_document()
        assert document["router"]["slo"]["availability_good"] >= 1
        merged = document["cluster"]
        assert merged["slo"]["objectives"]["target"] == 0.99
        hist = merged["latency_hist_ms"]
        assert hist["count"] >= 1
        assert hist["buckets"][-1]["le"] == "+Inf"
        assert hist["buckets"][-1]["count"] == hist["count"]


class TestStructuredClusterLog:
    def _events(self, stream):
        return [json.loads(line) for line in
                stream.getvalue().splitlines() if line]

    def test_failover_and_health_events_carry_ids(self):
        stream = io.StringIO()
        built = TracedCluster(log_stream=stream)
        try:
            # Stop one replica cold; routing must fail over and say so.
            built.servers[0].stop()
            for alpha in (1.0, 2.0, 3.0, 4.0):
                built.router.analyze(payload(alpha))
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                events = self._events(stream)
                if any(event["event"] == "health_transition"
                       for event in events):
                    break
                time.sleep(0.05)
            events = self._events(stream)
            kinds = {event["event"] for event in events}
            assert "health_transition" in kinds
            transitions = [event for event in events
                           if event["event"] == "health_transition"]
            assert all({"replica", "old", "new"} <= set(event)
                       for event in transitions)
            failovers = [event for event in events
                         if event["event"] == "failover"]
            if failovers:  # raced health marking the replica DOWN first
                assert all("trace_id" in event and "replica" in event
                           for event in failovers)
        finally:
            built.close()
