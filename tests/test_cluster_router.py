"""In-process tests: router, placement, migration, cluster metrics."""

import json
import time

import numpy as np
import pytest

from repro.cli import main
from repro.cluster import ClusterRouter, parse_replica
from repro.cluster.metrics import aggregate_cluster, merge_snapshots
from repro.cluster.placement import JobPlacer, PlacementJournal
from repro.core.api import AnalyzeRequest
from repro.errors import ClusterError, OverloadedError, ServeError
from repro.jobs import JobState
from repro.serve import AnalysisService, start_server

SPEC = {"seed": 7, "checkpoint_every": 2,
        "ga": {"population_size": 10, "generations": 4, "keep_best": 2},
        "fitness": {"n_panels": 60}}

#: A longer spec for the migration test: heavy enough per generation
#: that the job is still mid-run when its replica dies after the first
#: checkpoint lands on disk.
LONG_SPEC = {"seed": 7, "checkpoint_every": 2,
             "ga": {"population_size": 24, "generations": 10, "keep_best": 2},
             "fitness": {"n_panels": 200}}


def reference_history(spec):
    from repro.jobs import JobSpec, history_to_dict
    from repro.optimize import GeneticOptimizer

    parsed = JobSpec.from_dict(spec)
    history = GeneticOptimizer(
        evaluator=parsed.fitness_evaluator(), config=parsed.ga_config(),
    ).run(np.random.default_rng(parsed.seed))
    return history_to_dict(history)


def payload(alpha):
    return {"airfoil": "2412", "alpha_degrees": float(alpha),
            "reynolds": 0, "n_panels": 60}


def key_of(alpha):
    return AnalyzeRequest.from_dict(payload(alpha)).cache_key()


class Cluster:
    """Three live in-process replicas behind one router."""

    def __init__(self, tmp_path, *, state_dir=None, jobs=True):
        self.services, self.servers, specs = [], [], []
        for index in range(3):
            jobs_dir = str(tmp_path / f"jobs-{index}") if jobs else None
            service = AnalysisService(max_batch=8,
                                      cache_size=64, n_workers=1,
                                      queue_limit=64, jobs_dir=jobs_dir,
                                      job_slots=1)
            server = start_server(service)
            self.services.append(service)
            self.servers.append(server)
            spec = f"127.0.0.1:{server.port}"
            if jobs_dir is not None:
                spec += f"={jobs_dir}"
            specs.append(spec)
        self.router = ClusterRouter(specs, state_dir=state_dir,
                                    health_interval=0.05, down_after=2,
                                    timeout=30.0).start()
        self.names = [f"127.0.0.1:{server.port}" for server in self.servers]

    def replica_index(self, name):
        return self.names.index(name)

    def kill(self, index):
        """Simulate a replica death: stop HTTP, checkpoint and halt the
        service (the on-disk state a crashed process leaves behind)."""
        self.servers[index].stop()
        assert self.services[index].close(timeout=30.0)

    def close(self):
        self.router.close()
        for index, server in enumerate(self.servers):
            server.stop()
            self.services[index].close(timeout=30.0)


@pytest.fixture
def cluster(tmp_path):
    built = Cluster(tmp_path, state_dir=str(tmp_path / "router-state"))
    yield built
    built.close()


class TestAnalyzeRouting:
    def test_result_matches_single_node_and_counts(self, cluster):
        record = cluster.router.analyze(payload(4.0))
        assert 0.6 < record["cl"] < 0.9
        assert cluster.router.metrics.get("routed") == 1

    def test_identical_requests_stick_to_one_replica(self, cluster):
        """Cache affinity: the same key always lands on the same
        replica, so repeats are cache hits on exactly one node."""
        for _ in range(4):
            cluster.router.analyze(payload(3.0))
        owner = cluster.router.ring.lookup(key_of(3.0))
        hits = {name: cluster.services[cluster.replica_index(name)]
                .cache.stats()["hits"] for name in cluster.names}
        assert hits[owner] == 3
        assert all(count == 0 for name, count in hits.items()
                   if name != owner)

    def test_distinct_keys_spread_over_replicas(self, cluster):
        owners = {cluster.router.ring.lookup(key_of(alpha))
                  for alpha in np.linspace(-5.0, 5.0, 12)}
        assert len(owners) >= 2

    def test_replica_rejection_propagates_as_is(self, cluster):
        with pytest.raises(ServeError, match="unknown request fields"):
            cluster.router.analyze({"airfoil": "2412", "bogus": 1})
        assert cluster.router.metrics.get("proxy_errors") == 1

    def test_failover_to_next_ring_node(self, cluster):
        # Find a key owned by replica 0, then kill replica 0.
        victim = cluster.names[0]
        alpha = next(a / 10.0 for a in range(200)
                     if cluster.router.ring.lookup(key_of(a / 10.0)) == victim)
        cluster.kill(0)
        record = cluster.router.analyze(payload(alpha))
        assert 0 < abs(record["cl"]) < 2.0 or record["cl"] == 0.0
        assert cluster.router.metrics.get("failovers") >= 1
        # And it landed exactly where the ring says the key inherits.
        heir = cluster.router.ring.preference(key_of(alpha), 2)[1]
        service = cluster.services[cluster.replica_index(heir)]
        assert service.metrics_snapshot()["requests"]["completed"] >= 1

    def test_batch_preserves_order_and_isolates_errors(self, cluster):
        results = cluster.router.analyze_batch([
            payload(0.0),
            {"airfoil": "99", "n_panels": 60},  # invalid NACA code
            payload(4.0),
        ])
        assert len(results) == 3
        assert results[0]["cl"] < results[2]["cl"]  # order preserved
        assert "error" in results[1] and results[1]["type"]
        assert results[2]["cl"] > 0.5
        assert cluster.router.metrics.get("routed_batch") == 1
        assert cluster.router.metrics.get("fanout_requests") >= 1

    def test_batch_survives_a_dead_replica(self, cluster):
        cluster.kill(1)
        results = cluster.router.analyze_batch(
            [payload(alpha) for alpha in np.linspace(0.0, 4.0, 9)])
        assert len(results) == 9
        assert all("error" not in result for result in results)

    def test_draining_replica_gets_no_new_work(self, cluster):
        victim = cluster.router.ring.lookup(key_of(2.0))
        cluster.router.health.set_draining(victim)
        cluster.router.analyze(payload(2.0))
        service = cluster.services[cluster.replica_index(victim)]
        assert service.metrics_snapshot()["requests"]["admitted"] == 0
        # No failover was charged: draining is placement, not failure.
        assert cluster.router.metrics.get("failovers") == 0


class TestJobPlacementAndMigration:
    def test_submit_places_and_completes(self, cluster):
        record = cluster.router.submit_job(dict(SPEC))
        assert record["state"] == JobState.PENDING
        assert record["replica"] in cluster.names
        assert cluster.router.metrics.get("jobs_placed") == 1
        deadline = time.monotonic() + 120.0
        while True:
            current = cluster.router.job(record["id"])
            if current["state"] in JobState.TERMINAL:
                break
            assert time.monotonic() < deadline
            time.sleep(0.05)
        assert current["state"] == JobState.DONE
        placement = cluster.router.journal.get(
            cluster.router.journal.by_job_id(record["id"]).job_key)
        assert not placement.live

    def test_duplicate_job_key_is_idempotent_cluster_wide(self, cluster):
        spec = dict(SPEC, job_key="exp/run-1")
        first = cluster.router.submit_job(dict(spec))
        second = cluster.router.submit_job(dict(spec))
        assert second["id"] == first["id"]
        assert second["replica"] == first["replica"]
        assert cluster.router.metrics.get("jobs_placed") == 1
        document = cluster.router.metrics_document()
        assert document["cluster"]["jobs"]["duplicate_submits"] == 1
        assert document["cluster"]["jobs"]["submitted"] == 1

    def test_jobs_listing_merges_replicas(self, cluster):
        one = cluster.router.submit_job(dict(SPEC, job_key="list/a"))
        two = cluster.router.submit_job(
            dict(SPEC, seed=8, job_key="list/b"))
        listed = {record["id"]: record for record in cluster.router.jobs()}
        assert one["id"] in listed and two["id"] in listed
        assert listed[one["id"]]["replica"] in cluster.names

    def test_dead_replica_jobs_migrate_and_resume(self, cluster):
        """The tentpole scenario, in process: kill the replica running
        a checkpointed job; the router stages the checkpoint on a
        survivor and resubmits, and the finished history is
        byte-identical to an uninterrupted run."""
        record = cluster.router.submit_job(dict(LONG_SPEC))
        home = record["replica"]
        index = cluster.replica_index(home)
        checkpoint = (cluster.services[index].jobs.store
                      ._checkpoint_path(record["id"]))
        deadline = time.monotonic() + 120.0
        import os
        while not os.path.exists(checkpoint):
            assert time.monotonic() < deadline, "checkpoint never appeared"
            time.sleep(0.02)
        cluster.kill(index)
        # Health detects the death; migration stages + resubmits.
        while cluster.router.metrics.get("jobs_migrated") < 1:
            assert time.monotonic() < deadline, "job never migrated"
            time.sleep(0.02)
        assert cluster.router.metrics.get("checkpoints_staged") == 1
        placement = cluster.router.journal.by_job_id(record["id"])
        assert placement.replica != home
        assert placement.migrations == 1
        while True:
            try:
                current = cluster.router.job(record["id"])
            except OverloadedError:
                current = None
            if current is not None and current["state"] in JobState.TERMINAL:
                break
            assert time.monotonic() < deadline
            time.sleep(0.05)
        assert current["state"] == JobState.DONE
        assert current["replica"] == placement.replica
        assert json.dumps(current["result"]["history"], sort_keys=True) == \
            json.dumps(reference_history(LONG_SPEC), sort_keys=True)
        # The survivor *resumed* (loaded the staged checkpoint): it did
        # not recompute the generations done before the death.
        survivor = cluster.services[cluster.replica_index(placement.replica)]
        generations = survivor.jobs.metrics_snapshot()["generations_completed"]
        assert generations < LONG_SPEC["ga"]["generations"]


class TestClusterIntrospection:
    def test_metrics_document_shape(self, cluster):
        cluster.router.analyze(payload(1.0))
        document = cluster.router.metrics_document()
        assert set(document) == {"router", "cluster", "replicas"}
        assert document["router"]["routed"] == 1
        assert set(document["router"]["health"]) == set(cluster.names)
        assert document["cluster"]["requests"]["admitted"] == 1
        assert sorted(document["replicas"]) == sorted(cluster.names)

    def test_unreachable_replica_is_marked(self, cluster):
        cluster.kill(2)
        document = cluster.router.metrics_document()
        assert document["replicas"][cluster.names[2]] == {"unreachable": True}

    def test_status_document(self, cluster):
        cluster.router.submit_job(dict(SPEC, job_key="status/a"))
        status = cluster.router.status()
        assert status["ring"]["replicas"] == 3
        assert status["ring"]["vnodes"] == cluster.router.ring.vnodes
        assert len(status["placements"]) == 1
        total_live = sum(entry["live_jobs"]
                         for entry in status["replicas"].values())
        assert total_live == 1

    def test_healthz_degrades_when_all_down(self, cluster):
        assert cluster.router.healthz()["status"] == "ok"
        for index in range(3):
            cluster.kill(index)
        cluster.router.health.check_now()
        cluster.router.health.check_now()
        health = cluster.router.healthz()
        assert health["status"] == "degraded"
        assert health["routable"] == 0


class TestTopologyValidation:
    @pytest.mark.parametrize("spec", [
        "", "   ", "no-port", "https://127.0.0.1:8000", "127.0.0.1:not-a-port",
        "127.0.0.1:0", "127.0.0.1:70000", ":8000", "127.0.0.1:8000=",
        "http://127.0.0.1:8000/path:1",
    ])
    def test_malformed_replica_rejected(self, spec):
        with pytest.raises(ClusterError):
            parse_replica(spec)

    def test_parse_accepts_url_and_hostport_and_jobs_dir(self):
        assert parse_replica("http://10.0.0.1:8001") == ("10.0.0.1", 8001, None)
        assert parse_replica("10.0.0.1:8001") == ("10.0.0.1", 8001, None)
        assert parse_replica("10.0.0.1:8001=/var/jobs") == \
            ("10.0.0.1", 8001, "/var/jobs")

    def test_duplicate_replicas_rejected(self):
        with pytest.raises(ClusterError, match="duplicate"):
            ClusterRouter(["127.0.0.1:9000", "http://127.0.0.1:9000"])

    def test_empty_topology_rejected(self):
        with pytest.raises(ClusterError, match="at least one"):
            ClusterRouter([])

    def test_cli_route_fails_fast_on_bad_replica(self, capsys):
        assert main(["cluster", "route", "--replica", "bogus"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_cli_route_fails_fast_without_replicas(self, capsys):
        assert main(["cluster", "route"]) == 1
        assert "--replica" in capsys.readouterr().err


class TestClusterHTTP:
    """The router's HTTP front end, driven by the ordinary ServeClient."""

    @pytest.fixture
    def served(self, cluster):
        from repro.cluster import start_cluster_server
        from repro.serve import ServeClient

        server = start_cluster_server(cluster.router)
        client = ServeClient(port=server.port)
        yield server, client
        client.close()
        server.stop()

    def test_analyze_and_batch_over_http(self, served):
        _, client = served
        record = client.analyze("2412", 4.0, n_panels=60)
        assert 0.6 < record["cl"] < 0.9
        results = client.analyze_batch([
            {"airfoil": "2412", "alpha_degrees": 0.0, "n_panels": 60},
            {"airfoil": "2412", "alpha_degrees": 4.0, "n_panels": 60},
        ])
        assert len(results) == 2
        assert results[0]["cl"] < results[1]["cl"]

    def test_replica_status_is_preserved_through_proxy(self, served):
        _, client = served
        from repro.errors import ServeError as Error

        with pytest.raises(Error, match="unknown request fields") as info:
            client.analyze_raw({"airfoil": "2412", "bogus": 1})
        assert info.value.status == 400

    def test_status_endpoint_and_cli(self, served, cluster, capsys):
        server, client = served
        status = client.cluster_status()
        assert status["ring"]["replicas"] == 3
        assert sorted(status["replicas"]) == sorted(cluster.names)
        assert main(["cluster", "status", "--port", str(server.port)]) == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed["ring"] == status["ring"]

    def test_drain_endpoint_toggles_routing(self, served, cluster):
        _, client = served
        name = cluster.names[0]
        reply = json.loads(client._post(
            "/cluster/drain", {"replica": name, "draining": True}))
        assert reply["state"] == "DRAINING"
        assert client.healthz()["replicas"][name] == "DRAINING"
        reply = json.loads(client._post(
            "/cluster/drain", {"replica": name, "draining": False}))
        assert reply["state"] == "UP"

    def test_job_lifecycle_over_http(self, served):
        _, client = served
        record = client.submit_job(SPEC, job_key="http/run-1")
        assert record["replica"]
        final = client.wait_job(record["id"], timeout=120.0)
        assert final["state"] == JobState.DONE
        events = client.job_events(record["id"])
        assert events["events"]
        listed = client.jobs()
        assert any(job["id"] == record["id"] for job in listed)


class TestPlacementJournal:
    def test_roundtrip_replay(self, tmp_path):
        journal = PlacementJournal(str(tmp_path))
        journal.record_placed("k1", "job-k1", "a:1", {"seed": 1})
        journal.record_placed("k2", "job-k2", "a:1", {"seed": 2})
        journal.record_migrated("k1", "b:2")
        journal.record_state("k2", JobState.DONE)
        journal.close()

        reopened = PlacementJournal(str(tmp_path))
        one = reopened.get("k1")
        assert (one.replica, one.migrations, one.live) == ("b:2", 1, True)
        two = reopened.get("k2")
        assert (two.state, two.live) == (JobState.DONE, False)
        assert reopened.live_on("b:2") == [one]
        assert reopened.by_job_id("job-k2") is two
        reopened.close()

    def test_torn_final_line_is_dropped(self, tmp_path):
        journal = PlacementJournal(str(tmp_path))
        journal.record_placed("k1", "job-k1", "a:1", {})
        journal.close()
        path = tmp_path / "placements.jsonl"
        path.write_bytes(path.read_bytes() + b'{"type": "migr')
        reopened = PlacementJournal(str(tmp_path))
        assert reopened.torn_lines == 1
        assert reopened.get("k1").replica == "a:1"
        reopened.close()

    def test_corrupt_interior_line_raises(self, tmp_path):
        path = tmp_path / "placements.jsonl"
        path.write_text('not json\n{"type": "placed", "job_key": "k", '
                        '"job_id": "j", "replica": "a:1"}\n')
        with pytest.raises(ClusterError, match="corrupt placement line 1"):
            PlacementJournal(str(tmp_path))

    def test_duplicate_placement_rejected(self, tmp_path):
        journal = PlacementJournal(str(tmp_path))
        journal.record_placed("k1", "job-k1", "a:1", {})
        with pytest.raises(ClusterError, match="already placed"):
            journal.record_placed("k1", "job-x", "b:2", {})
        journal.close()

    def test_memory_only_journal_works(self):
        journal = PlacementJournal(None)
        journal.record_placed("k1", "job-k1", "a:1", {})
        assert journal.get("k1").replica == "a:1"
        journal.close()


class TestJobPlacer:
    @staticmethod
    def placer(loads):
        return JobPlacer(lambda name: loads.get(name))

    def test_chooses_least_loaded(self):
        placer = self.placer({
            "a:1": {"slots": 1, "states": {"PENDING": 2, "RUNNING": 1}},
            "b:2": {"slots": 1, "states": {"PENDING": 0, "RUNNING": 1}},
            "c:3": {"slots": 1, "states": {}},
        })
        assert placer.choose(["a:1", "b:2", "c:3"]) == "c:3"

    def test_ties_break_by_name(self):
        placer = self.placer({"b:2": {"states": {}}, "a:1": {"states": {}}})
        assert placer.choose(["b:2", "a:1"]) == "a:1"

    def test_no_jobs_capable_candidate_raises(self):
        placer = self.placer({})
        with pytest.raises(ClusterError, match="no replica can accept"):
            placer.choose(["a:1"])

    def test_migration_plan_follows_free_capacity(self):
        placer = self.placer({
            "a:1": {"slots": 4, "states": {"RUNNING": 0}},   # 4 free
            "b:2": {"slots": 4, "states": {"RUNNING": 3}},   # 1 free
        })
        orphans = [f"k{index}" for index in range(5)]
        plan = placer.plan_migration(orphans, ["a:1", "b:2"])
        assert sorted(plan) == sorted(orphans)
        counts = {"a:1": 0, "b:2": 0}
        for target in plan.values():
            counts[target] += 1
        assert counts == {"a:1": 4, "b:2": 1}

    def test_migration_without_survivors_raises(self):
        placer = self.placer({})
        with pytest.raises(ClusterError, match="no surviving replica"):
            placer.plan_migration(["k1"], [])


class TestMetricsMerge:
    def test_counters_sum_and_quantiles_take_worst(self):
        merged = merge_snapshots({
            "a:1": {"requests": {"admitted": 3},
                    "latency_ms": {"count": 2, "mean": 10.0, "p99": 20.0}},
            "b:2": {"requests": {"admitted": 5},
                    "latency_ms": {"count": 6, "mean": 30.0, "p99": 50.0}},
        })
        assert merged["requests"]["admitted"] == 8
        assert merged["latency_ms"]["count"] == 8
        assert merged["latency_ms"]["p99"] == 50.0
        assert abs(merged["latency_ms"]["mean"] - 25.0) < 1e-9
        assert "_mean_weight" not in merged["latency_ms"]

    def test_unreachable_contributes_nothing_but_is_reported(self):
        document = aggregate_cluster(
            {"routed": 1},
            {"a:1": {"requests": {"admitted": 2}}, "b:2": None})
        assert document["cluster"]["requests"]["admitted"] == 2
        assert document["replicas"]["b:2"] == {"unreachable": True}

    def test_identity_keys_dropped(self):
        merged = merge_snapshots({
            "a:1": {"started_at": 123.0, "snapshot_seq": 9,
                    "queue_depth": 1},
            "b:2": {"started_at": 456.0, "snapshot_seq": 2,
                    "queue_depth": 2},
        })
        assert "started_at" not in merged
        assert merged["queue_depth"] == 3
