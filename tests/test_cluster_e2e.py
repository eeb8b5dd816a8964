"""End-to-end cluster test: real processes, real sockets, real kills.

Three ``repro serve`` subprocesses sit behind one ``repro cluster
route`` subprocess.  The tests drive the router's public HTTP API only
(plus direct replica ``/metrics`` reads to observe locality) and cover
the three cluster guarantees: cache-affine routing, request failover,
and job migration with byte-identical resumed history after SIGKILL.
"""

import json
import os
import re
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.errors import OverloadedError, ServeError
from repro.jobs import JobState
from repro.serve import ServeClient

SPEC = {"seed": 7, "checkpoint_every": 2,
        "ga": {"population_size": 24, "generations": 10, "keep_best": 2},
        "fitness": {"n_panels": 200}}

_BANNER_PORT = re.compile(r"http://127\.0\.0\.1:(\d+)")
_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def reference_history(spec):
    from repro.jobs import JobSpec, history_to_dict
    from repro.optimize import GeneticOptimizer

    parsed = JobSpec.from_dict(spec)
    history = GeneticOptimizer(
        evaluator=parsed.fitness_evaluator(), config=parsed.ga_config(),
    ).run(np.random.default_rng(parsed.seed))
    return history_to_dict(history)


def _spawn(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = "src"
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro"] + argv,
        stdout=subprocess.PIPE, text=True, env=env, cwd=_REPO_ROOT,
    )
    banner = proc.stdout.readline()
    match = _BANNER_PORT.search(banner)
    if not match:
        proc.kill()
        proc.wait(timeout=30)
        raise AssertionError(f"no port in banner: {banner!r}")
    return proc, int(match.group(1))


def _reap(proc):
    if proc.poll() is None:
        proc.kill()
    proc.wait(timeout=30)


class Topology:
    """Three serve replicas behind one router, all real processes."""

    def __init__(self, tmp_path):
        self.procs, self.ports, self.jobs_dirs = [], [], []
        replica_flags = []
        try:
            for index in range(3):
                jobs_dir = tmp_path / f"jobs-{index}"
                proc, port = _spawn(
                    ["serve", "--port", "0", "--jobs-dir", str(jobs_dir),
                     "--workers", "1", "--log-format", "off"])
                self.procs.append(proc)
                self.ports.append(port)
                self.jobs_dirs.append(jobs_dir)
                replica_flags += ["--replica",
                                  f"127.0.0.1:{port}={jobs_dir}"]
            self.router_proc, self.router_port = _spawn(
                ["cluster", "route", "--port", "0",
                 "--state-dir", str(tmp_path / "router-state"),
                 "--health-interval-ms", "100", "--down-after", "2",
                 *replica_flags])
            self.procs.append(self.router_proc)
        except BaseException:
            self.close()
            raise
        self.client = ServeClient(port=self.router_port, timeout=30.0)
        self.client.wait_until_ready(timeout=30.0)
        self.names = [f"127.0.0.1:{port}" for port in self.ports]

    def replica_client(self, index):
        return ServeClient(port=self.ports[index], timeout=10.0)

    def sigkill(self, index):
        os.kill(self.procs[index].pid, signal.SIGKILL)
        self.procs[index].wait(timeout=30)

    def router_metrics(self):
        return self.client.metrics()

    def close(self):
        if getattr(self, "client", None) is not None:
            self.client.close()
        for proc in self.procs:
            _reap(proc)


@pytest.fixture
def topology(tmp_path):
    built = Topology(tmp_path)
    yield built
    built.close()


def payload(alpha):
    return {"airfoil": "2412", "alpha_degrees": float(alpha),
            "reynolds": 0, "n_panels": 60}


class TestClusterEndToEnd:
    def test_cache_locality_and_failover(self, topology):
        # --- Locality: repeats of one payload hit exactly one replica's
        # cache; the others never see the key.
        for _ in range(4):
            topology.client.analyze("2412", 3.0, n_panels=60)
        hits = []
        for index in range(3):
            with topology.replica_client(index) as replica:
                hits.append(replica.metrics()["cache"]["hits"])
        assert sorted(hits) == [0, 0, 3], hits

        # --- Failover: SIGKILL one replica; a sweep of fresh payloads
        # (some of which hashed to the dead node) all still answer.
        topology.sigkill(0)
        for alpha in np.linspace(-4.0, 4.0, 12):
            record = topology.client.analyze("2412", float(alpha),
                                             n_panels=60)
            assert "cl" in record
        router = topology.router_metrics()["router"]
        assert router["routed"] >= 16
        assert router["exhausted"] == 0

    def test_sigkill_migrates_job_with_identical_history(self, topology):
        record = topology.client.submit_job(SPEC)
        home = record["replica"]
        index = topology.names.index(home)
        checkpoint = (topology.jobs_dirs[index] / "checkpoints"
                      / f"{record['id']}.json")
        deadline = time.monotonic() + 120.0
        while not checkpoint.exists():
            assert time.monotonic() < deadline, "checkpoint never appeared"
            time.sleep(0.02)
        topology.sigkill(index)

        # The router notices the death, stages the checkpoint on a
        # survivor, resubmits, and the job runs to DONE there.
        final = None
        while final is None or final["state"] not in JobState.TERMINAL:
            assert time.monotonic() < deadline, "job never finished"
            time.sleep(0.1)
            try:
                final = topology.client.job(record["id"])
            except (OverloadedError, ServeError):
                final = None  # mid-migration window
        assert final["state"] == JobState.DONE
        assert final["replica"] != home
        assert json.dumps(final["result"]["history"], sort_keys=True) == \
            json.dumps(reference_history(SPEC), sort_keys=True)

        router = topology.router_metrics()["router"]
        assert router["jobs_migrated"] == 1
        assert router["checkpoints_staged"] == 1
        # The survivor resumed mid-run rather than recomputing: it ran
        # fewer generations than the spec asks for in total.
        survivor = topology.names.index(final["replica"])
        with topology.replica_client(survivor) as replica:
            generations = replica.metrics()["jobs"]["generations_completed"]
        assert 0 < generations < SPEC["ga"]["generations"]
