"""Idempotent keyed submission: model, store, runner, and HTTP layers."""

import time

import pytest

from repro.errors import JobError
from repro.jobs import JobRunner, JobSpec, JobState, JobStore
from repro.jobs.model import derive_job_id, validate_job_key
from repro.serve import AnalysisService, ServeClient, start_server

SPEC = {"seed": 7, "checkpoint_every": 2,
        "ga": {"population_size": 10, "generations": 4, "keep_best": 2},
        "fitness": {"n_panels": 60}}


def spec(**overrides):
    merged = dict(SPEC, **overrides)
    return JobSpec.from_dict(merged)


class TestJobKeyValidation:
    @pytest.mark.parametrize("key", [
        "exp/2026-08/run-1", "a", "UUID-like-0123", "dotted.name:v2",
        "x" * 128,
    ])
    def test_accepts_reasonable_keys(self, key):
        assert validate_job_key(key) == key

    @pytest.mark.parametrize("key", [
        None, 7, b"bytes", "", "x" * 129, "has space", "tab\there",
        "new\nline", "quo\"te", "héllo",
    ])
    def test_rejects_bad_keys(self, key):
        with pytest.raises(JobError, match="job_key"):
            validate_job_key(key)

    def test_derived_id_is_deterministic_and_distinct(self):
        assert derive_job_id("exp/run-1") == derive_job_id("exp/run-1")
        assert derive_job_id("exp/run-1") != derive_job_id("exp/run-2")
        assert derive_job_id("exp/run-1").startswith("job-k")

    def test_two_stores_derive_the_same_id(self, tmp_path):
        """The property the router's checkpoint staging relies on."""
        one = JobStore(str(tmp_path / "a"))
        two = JobStore(str(tmp_path / "b"))
        record_one = one.submit(spec(), job_key="exp/run-1")
        record_two = two.submit(spec(), job_key="exp/run-1")
        assert record_one.id == record_two.id == derive_job_id("exp/run-1")
        one.close()
        two.close()


class TestStoreIdempotency:
    def test_duplicate_key_returns_existing_record(self, tmp_path):
        store = JobStore(str(tmp_path))
        first, created = store.submit_idempotent(spec(), "exp/run-1")
        assert created
        again, created = store.submit_idempotent(spec(), "exp/run-1")
        assert not created
        assert again.id == first.id
        assert store.metrics.snapshot()["duplicate_submits"] == 1
        assert store.metrics.snapshot()["submitted"] == 1
        store.close()

    def test_key_wins_over_spec_difference(self, tmp_path):
        """The key is the identity: racing submitters with drifting
        specs still converge on one record."""
        store = JobStore(str(tmp_path))
        first, _ = store.submit_idempotent(spec(seed=7), "exp/run-1")
        again, created = store.submit_idempotent(spec(seed=999), "exp/run-1")
        assert not created
        assert again.id == first.id
        assert again.spec.seed == 7
        store.close()

    def test_plain_submit_rejects_duplicate_key(self, tmp_path):
        store = JobStore(str(tmp_path))
        store.submit(spec(), job_key="exp/run-1")
        with pytest.raises(JobError, match="already exists"):
            store.submit(spec(), job_key="exp/run-1")
        store.close()

    def test_key_mapping_survives_replay(self, tmp_path):
        store = JobStore(str(tmp_path))
        first, _ = store.submit_idempotent(spec(), "exp/run-1")
        store.close()

        reopened = JobStore(str(tmp_path))
        record, created = reopened.submit_idempotent(spec(), "exp/run-1")
        assert not created
        assert record.id == first.id
        assert reopened.find_by_key("exp/run-1").job_key == "exp/run-1"
        reopened.close()


class TestRunnerIdempotency:
    def test_duplicate_submit_runs_the_job_once(self, tmp_path):
        store = JobStore(str(tmp_path))
        runner = JobRunner(store, slots=1).start()
        try:
            first = runner.submit(spec(), job_key="exp/run-1")
            again = runner.submit(spec(), job_key="exp/run-1")
            assert again.id == first.id
            deadline = time.monotonic() + 120.0
            while not store.get(first.id).terminal:
                assert time.monotonic() < deadline
                time.sleep(0.02)
            assert store.get(first.id).state == JobState.DONE
            # Exactly one run's worth of generations — a second enqueue
            # would double this (or fail on the terminal record).
            generations = SPEC["ga"]["generations"]
            assert runner.metrics.snapshot()["generations_completed"] == \
                generations
        finally:
            assert runner.close()
            store.close()


@pytest.fixture
def served_jobs(tmp_path):
    service = AnalysisService(max_batch=8, n_workers=1,
                              jobs_dir=str(tmp_path / "jobs"), job_slots=1)
    server = start_server(service)
    client = ServeClient(port=server.port)
    client.wait_until_ready()
    yield service, client
    client.close()
    server.stop()
    assert service.close(timeout=30.0)


class TestHTTPIdempotency:
    def test_duplicate_post_returns_same_job(self, served_jobs):
        service, client = served_jobs
        first = client.submit_job(SPEC, job_key="exp/run-1")
        again = client.submit_job(SPEC, job_key="exp/run-1")
        assert again["id"] == first["id"] == derive_job_id("exp/run-1")
        assert service.jobs.store.metrics.snapshot()["duplicate_submits"] == 1
        final = client.wait_job(first["id"], timeout=120.0)
        assert final["state"] == JobState.DONE

    def test_bad_job_key_is_a_client_error(self, served_jobs):
        _, client = served_jobs
        from repro.errors import ServeError

        with pytest.raises(ServeError, match="job_key"):
            client.submit_job(SPEC, job_key="has space")

    def test_duplicate_submits_reach_prometheus(self, served_jobs):
        _, client = served_jobs
        client.submit_job(SPEC, job_key="exp/run-1")
        client.submit_job(SPEC, job_key="exp/run-1")
        text = client.metrics_prometheus()
        assert "repro_jobs_duplicate_submits 1" in text
