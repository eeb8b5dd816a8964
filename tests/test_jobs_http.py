"""End-to-end tests of the jobs HTTP API, the CLI, and crash recovery."""

import json
import os
import re
import signal
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from repro.cli import main
from repro.errors import ServeError
from repro.jobs import JobState
from repro.serve import AnalysisService, ServeClient, start_server

SPEC = {"seed": 7, "checkpoint_every": 2,
        "ga": {"population_size": 10, "generations": 4, "keep_best": 2},
        "fitness": {"n_panels": 60}}


#: The SIGKILL test's job: long enough to still be running when its
#: first checkpoint appears and the server is killed.  With 4
#: generations the last two often finished in the 20 ms between polls
#: (at the untiled kernel too), so the restart found the job DONE.
CRASH_SPEC = dict(SPEC, ga=dict(SPEC["ga"], generations=16))


def reference_history(spec=SPEC):
    from repro.jobs import JobSpec, history_to_dict
    from repro.optimize import GeneticOptimizer

    spec = JobSpec.from_dict(spec)
    history = GeneticOptimizer(
        evaluator=spec.fitness_evaluator(), config=spec.ga_config(),
    ).run(np.random.default_rng(spec.seed))
    return history_to_dict(history)


@pytest.fixture
def served_jobs(tmp_path):
    """A live service with the jobs subsystem enabled."""
    service = AnalysisService(max_batch=32, n_workers=2,
                              jobs_dir=str(tmp_path / "jobs"), job_slots=1)
    server = start_server(service)
    client = ServeClient(port=server.port)
    client.wait_until_ready()
    yield service, server, client
    client.close()
    server.stop()
    assert service.close(timeout=30.0)


class TestJobsEndpoints:
    def test_submit_watch_fetch_lifecycle(self, served_jobs):
        _, _, client = served_jobs
        record = client.submit_job(SPEC)
        assert record["state"] == JobState.PENDING
        assert record["id"].startswith("job-")
        assert record["spec"]["seed"] == 7
        final = client.wait_job(record["id"], timeout=120.0)
        assert final["state"] == JobState.DONE
        assert final["generations_done"] == 4
        champion = final["result"]["champion"]
        assert champion["fitness"] > 0
        assert len(champion["genome"]) == 12  # default layout: 6 + 6
        # The job's history equals the uninterrupted serial GA run.
        assert json.dumps(final["result"]["history"], sort_keys=True) == \
            json.dumps(reference_history(), sort_keys=True)

    def test_events_stream_pagination(self, served_jobs):
        _, _, client = served_jobs
        record = client.submit_job(SPEC)
        client.wait_job(record["id"], timeout=120.0)
        page = client.job_events(record["id"])
        assert [event["seq"] for event in page["events"]] == [1, 2, 3, 4]
        assert [event["generation"] for event in page["events"]] == [0, 1, 2, 3]
        assert page["next_since"] == 4
        assert page["state"] == JobState.DONE
        rest = client.job_events(record["id"], since=3)
        assert [event["seq"] for event in rest["events"]] == [4]
        empty = client.job_events(record["id"], since=4)
        assert empty["events"] == [] and empty["next_since"] == 4

    def test_list_omits_results(self, served_jobs):
        _, _, client = served_jobs
        record = client.submit_job(SPEC)
        client.wait_job(record["id"], timeout=120.0)
        listing = client.jobs()
        assert len(listing) == 1
        assert listing[0]["id"] == record["id"]
        assert "result" not in listing[0]

    def test_cancel_endpoint(self, served_jobs):
        _, _, client = served_jobs
        spec = dict(SPEC, ga=dict(SPEC["ga"], generations=50))
        record = client.submit_job(spec)
        cancelled = client.cancel_job(record["id"])
        assert cancelled["cancel_requested"]
        final = client.wait_job(record["id"], timeout=120.0)
        assert final["state"] == JobState.CANCELLED

    def test_unknown_job_is_404(self, served_jobs):
        _, _, client = served_jobs
        with pytest.raises(ServeError, match="404"):
            client.job("job-missing")
        with pytest.raises(ServeError, match="404"):
            client.job_events("job-missing")
        with pytest.raises(ServeError, match="404"):
            client.cancel_job("job-missing")

    def test_invalid_spec_is_400(self, served_jobs):
        _, _, client = served_jobs
        with pytest.raises(ServeError, match="400"):
            client.submit_job({"seed": 0, "bogus": True})
        with pytest.raises(ServeError, match="400"):
            client.submit_job({"seed": -3})

    def test_bad_since_is_400(self, served_jobs):
        _, _, client = served_jobs
        record = client.submit_job(SPEC)
        with pytest.raises(ServeError, match="400"):
            client._get(f"/jobs/{record['id']}/events?since=soon")
        client.wait_job(record["id"], timeout=120.0)

    def test_jobs_disabled_is_404(self):
        service = AnalysisService(n_workers=1)
        server = start_server(service)
        try:
            client = ServeClient(port=server.port)
            client.wait_until_ready()
            with pytest.raises(ServeError, match="jobs are not enabled"):
                client.jobs()
            with pytest.raises(ServeError, match="jobs are not enabled"):
                client.submit_job(SPEC)
        finally:
            server.stop()
            service.close()

    def test_request_id_echoed(self, served_jobs):
        _, _, client = served_jobs
        record = client.submit_job(SPEC, request_id="jobs-test-1")
        assert client.last_request_id == "jobs-test-1"
        client.wait_job(record["id"], timeout=120.0)


class TestJobsObservability:
    def test_metrics_and_prometheus(self, served_jobs):
        _, _, client = served_jobs
        record = client.submit_job(SPEC)
        client.wait_job(record["id"], timeout=120.0)
        jobs = client.metrics()["jobs"]
        assert jobs["submitted"] == 1
        assert jobs["done"] == 1
        assert jobs["generations_completed"] == 4
        assert jobs["checkpoints"] == 1  # cadence 2, no checkpoint at the end
        assert jobs["states"][JobState.DONE] == 1
        assert jobs["slots"] == 1
        prometheus = client.metrics_prometheus()
        assert "repro_jobs_done 1" in prometheus
        assert "repro_jobs_generations_completed 4" in prometheus
        assert 'repro_jobs_states_DONE 1' in prometheus

    def test_generation_stage_in_live_walo(self, served_jobs):
        _, _, client = served_jobs
        record = client.submit_job(SPEC)
        client.wait_job(record["id"], timeout=120.0)
        stages = client.metrics()["stages"]
        assert stages["generation_seconds"] > 0.0


class TestJobsCLI:
    def test_submit_watch_status_list_cancel(self, served_jobs, capsys):
        _, server, _ = served_jobs
        port = str(server.port)
        assert main(["jobs", "submit", "--port", port, "--seed", "3",
                     "--generations", "2", "--population", "8",
                     "--watch"]) == 0
        out = capsys.readouterr().out
        assert "submitted job-" in out
        assert "gen 1:" in out and "gen 2:" in out
        assert "DONE: best fitness" in out
        job_id = re.search(r"submitted (job-\w+)", out).group(1)

        assert main(["jobs", "status", "--port", port, job_id]) == 0
        status = json.loads(capsys.readouterr().out)
        assert status["state"] == JobState.DONE
        assert status["spec"]["ga"]["generations"] == 2

        assert main(["jobs", "list", "--port", port]) == 0
        assert job_id in capsys.readouterr().out

        assert main(["jobs", "cancel", "--port", port, job_id]) == 0
        assert "DONE" in capsys.readouterr().out  # terminal: no-op

    def test_spec_file_with_flag_overrides(self, served_jobs, tmp_path,
                                           capsys):
        _, server, _ = served_jobs
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(SPEC), encoding="utf-8")
        assert main(["jobs", "submit", "--port", str(server.port),
                     "--spec", f"@{spec_path}", "--generations", "1"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["spec"]["seed"] == 7  # from the file
        assert record["spec"]["ga"]["generations"] == 1  # flag wins
        ServeClient(port=server.port).wait_job(record["id"], timeout=120.0)

    def test_invalid_inline_spec_is_an_error(self, served_jobs, capsys):
        _, server, _ = served_jobs
        assert main(["jobs", "submit", "--port", str(server.port),
                     "--spec", "{not json"]) == 1
        assert "not valid JSON" in capsys.readouterr().err


class TestCrashRecovery:
    """SIGKILL a serve process mid-job; a restart on the same jobs dir
    must resume from the checkpoint and produce the identical history."""

    def start_server_process(self, jobs_dir):
        env = dict(os.environ)
        env["PYTHONPATH"] = "src"
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--jobs-dir", str(jobs_dir), "--log-format", "off",
             "--workers", "1"],
            stdout=subprocess.PIPE, text=True, env=env,
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        )
        banner = proc.stdout.readline()
        match = re.search(r"http://127\.0\.0\.1:(\d+)", banner)
        assert match, f"no port in banner: {banner!r}"
        return proc, int(match.group(1))

    def test_sigkill_resume_produces_identical_history(self, tmp_path):
        jobs_dir = tmp_path / "jobs"
        proc, port = self.start_server_process(jobs_dir)
        try:
            client = ServeClient(port=port)
            client.wait_until_ready(timeout=30.0)
            record = client.submit_job(CRASH_SPEC)
            # Wait until at least one checkpoint exists (cadence 2 ->
            # written after generation 2 of 16), then kill -9.
            checkpoint = jobs_dir / "checkpoints" / f"{record['id']}.json"
            deadline = time.monotonic() + 120.0
            while not checkpoint.exists():
                assert time.monotonic() < deadline, "checkpoint never appeared"
                time.sleep(0.02)
            os.kill(proc.pid, signal.SIGKILL)
            proc.wait(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)

        proc, port = self.start_server_process(jobs_dir)
        try:
            client = ServeClient(port=port)
            client.wait_until_ready(timeout=30.0)
            final = client.wait_job(record["id"], timeout=120.0)
            assert final["state"] == JobState.DONE
            assert final["resumes"] == 1
            assert json.dumps(final["result"]["history"], sort_keys=True) == \
                json.dumps(reference_history(CRASH_SPEC), sort_keys=True)
            assert client.metrics()["jobs"]["resumed"] == 1
        finally:
            proc.terminate()
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=30)


class TestServiceLifecycle:
    def test_close_checkpoints_running_job(self, tmp_path):
        """Service close() stops the runner gracefully: the in-flight
        job stays RUNNING on disk with a checkpoint, ready to resume."""
        from repro.jobs import JobSpec, JobStore

        jobs_dir = str(tmp_path / "jobs")
        service = AnalysisService(n_workers=1, jobs_dir=jobs_dir, job_slots=1)
        spec = dict(SPEC, ga=dict(SPEC["ga"], generations=200,
                                  population_size=16))
        record = service.jobs.submit(JobSpec.from_dict(spec))
        store = service.jobs.store
        deadline = time.monotonic() + 120.0
        while store.get(record.id).generations_done < 2:
            assert time.monotonic() < deadline
            time.sleep(0.02)
        assert service.close(timeout=30.0)
        reopened = JobStore(jobs_dir)
        persisted = reopened.get(record.id)
        assert persisted.state == JobState.RUNNING
        assert reopened.load_checkpoint(record.id) is not None
        reopened.close()
