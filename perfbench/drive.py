"""The two kinds of run: timed (end to end) and traced (per layer).

A timed run spawns the server ``setups`` times (``setup_s`` is
the median spawn-to-warm time), drives the workload on the last spawn
with tracing off, and times only what the client sees plus the server
process's CPU and memory from ``/proc``.  A traced run drives the same
inputs against a tracing server for half the time, reads its
``/metrics`` counters, probes the HTTP floor, then replays the inputs
in process through each layer (see :mod:`layers`).
"""

from __future__ import annotations

import dataclasses
import json
import os
import statistics
import time
from typing import Dict, List, Optional, Tuple

import layers
import loadgen
import oracle
import stats
from server import Connection, Server
from workloads import Inputs, bodies, encode

#: Seconds the poller waits for a GA job before giving up.
JOB_TIMEOUT = 150.0
#: Beyond this much generator CPU (share of one core), or this much
#: self-inflicted send lag at the tail, the generator may have been the
#: bottleneck, and the run is marked invalid.
MAX_GENERATOR_CPU = 0.5
MAX_SELF_LAG_MS = 5.0


@dataclasses.dataclass
class Result:
    """What one run prints: metrics, request accounting, notes, inputs."""

    metrics: Dict[str, Tuple[float, str]]
    attempted: int
    failed: int
    wrong: List[str]
    notes: List[str]
    record: dict


@dataclasses.dataclass
class Outcome:
    """What one drive of a workload produced."""

    records: List[dict]
    ops: int            # completed /analyze answers or evaluated genomes
    window_s: float     # first due/send to last answer (or job DONE)
    from_send: bool     # closed loop: latency timed from the send
    job_s: Optional[float] = None
    job_record: Optional[bytes] = None


# ----------------------------------------------------------------------
# Driving one workload
# ----------------------------------------------------------------------

def warm(inputs: Inputs, port: int) -> None:
    """Warm-up traffic, part of set-up: fill the hot keys into the cache,
    or send a few never-measured requests through the solve path."""
    conn = Connection(port)
    try:
        if inputs.keys:
            status, body = conn.request(
                "POST", "/analyze_batch", encode({"requests": inputs.keys}))
            if status != 200:
                raise RuntimeError(f"hot-key warm-up answered {status}: {body[:200]}")
        for body in bodies(inputs.warmup):
            status, answer = conn.request("POST", "/analyze", body)
            if status != 200:
                raise RuntimeError(f"warm-up answered {status}: {answer[:200]}")
    finally:
        conn.close()


def exercise(inputs: Inputs, port: int, seconds: float) -> Outcome:
    """Run the measured traffic of *inputs* against the server on *port*."""
    if inputs.workload == "analyze_cold":
        start = time.monotonic() + 0.05
        items = [(due, body) for (due, _), body in
                 zip(inputs.schedule, bodies(p for _, p in inputs.schedule))]
        records = loadgen.open_loop(port, "/analyze", items, start)
        return _analyze_outcome(records, start, from_send=False)
    if inputs.workload == "analyze_hot":
        start = time.monotonic()
        records = loadgen.closed_loop(
            port, "/analyze",
            [inputs.draws(c) for c in range(loadgen.CONNECTIONS)],
            bodies(inputs.keys), until=start + seconds)
        return _analyze_outcome(records, start, from_send=True)
    return _job_outcome(inputs, port)


def _analyze_outcome(records, start, *, from_send) -> Outcome:
    ops = sum(1 for r in records if r["status"] == 200)
    window = max(r["done"] for r in records) - start
    return Outcome(records=records, ops=ops, window_s=window,
                   from_send=from_send)


def _job_outcome(inputs: Inputs, port: int) -> Outcome:
    conn = Connection(port)
    try:
        submitted = time.monotonic()
        status, body = conn.request("POST", "/jobs", encode(inputs.job_spec))
    finally:
        conn.close()
    if status != 200:
        raise RuntimeError(f"POST /jobs answered {status}: {body[:200]}")
    job_id = json.loads(body)["id"]

    def final(status: int, answer: bytes) -> bool:
        return status == 200 and json.loads(answer)["state"] in (
            "DONE", "FAILED", "CANCELLED")

    records = loadgen.poll_until(port, f"/jobs/{job_id}", final, JOB_TIMEOUT)
    job_s = records[-1]["done"] - submitted
    ga = inputs.job_spec["ga"]
    return Outcome(records=records,
                   ops=ga["population_size"] * ga["generations"],
                   window_s=job_s, from_send=True, job_s=job_s,
                   job_record=records[-1]["body"])


def verify(inputs: Inputs, outcome: Outcome) -> Tuple[int, int, List[str]]:
    """Check every answer: ``(attempted, failed, wrong-answer messages)``.

    ``failed`` counts refused, timed-out and non-200 requests plus wrong
    answers; a wrong answer fails the run.
    """
    wrong: List[str] = []
    failed = 0
    expected: Dict[str, dict] = {}
    payloads = ([p for _, p in inputs.schedule] if inputs.schedule
                else inputs.keys)
    for record in outcome.records:
        if record["error"] is not None or record["status"] != 200:
            failed += 1
            continue
        if inputs.job_spec is not None:
            continue  # polls carry progress only; the final one is checked below
        payload = payloads[record.get("index", record.get("key"))]
        key = encode(payload).decode()
        if key not in expected:
            expected[key] = oracle.expected_analysis(payload)
        message = oracle.check_analysis(record["body"], expected[key])
        if message is not None:
            failed += 1
            wrong.append(f"{payload}: {message}")
    if inputs.job_spec is not None:
        message = oracle.check_job(inputs.job_spec, outcome.job_record)
        if message is not None:
            failed += 1
            wrong.append(f"job {inputs.job_spec}: {message}")
    return len(outcome.records) + (inputs.job_spec is not None), failed, wrong


def generator_notes(outcome: Outcome, cpu_share: float) -> Tuple[dict, List[str]]:
    """Lag numbers and the validity verdict of the generator."""
    late = stats.lateness(outcome.records, from_send=outcome.from_send)
    lag_ms = [1e3 * x for x in late["lag"]]
    self_lag_ms = stats.quantile([1e3 * x for x in late["self_lag"]], stats.TAIL)
    invalid = []
    if cpu_share > MAX_GENERATOR_CPU:
        invalid.append(f"generator used {cpu_share:.2f} of a core")
    if self_lag_ms > MAX_SELF_LAG_MS:
        invalid.append(f"generator's own send lag p95 {self_lag_ms:.2f} ms")
    verdict = ("INVALID (generator-bound): " + "; ".join(invalid)) if invalid \
        else "valid (generator was not the bottleneck)"
    numbers = {"lag_p95_ms": stats.quantile(lag_ms, stats.TAIL),
               "self_lag_p95_ms": self_lag_ms, "cpu_share": cpu_share}
    return numbers, [
        f"loadgen: cpu_share={cpu_share:.3f} lag_p95={numbers['lag_p95_ms']:.3f} ms "
        f"self_lag_p95={self_lag_ms:.3f} ms -> {verdict}"]


def _spawn(root: str, work: str, inputs: Inputs, *, trace: bool,
           label: str) -> Server:
    jobs_dir = None
    if inputs.job_spec is not None:
        jobs_dir = os.path.join(work, f"jobs-{label}")
    return Server(root, work, trace=trace, jobs_dir=jobs_dir)


# ----------------------------------------------------------------------
# The two kinds of run
# ----------------------------------------------------------------------

def timed_run(root: str, work: str, workload: str, seed: int, seconds: int, *,
              setups: int) -> Result:
    """End-to-end metrics: tracing off, client-side clocks, /proc counters."""
    inputs = Inputs(workload, seed, seconds)
    setup_times, pids = [], []
    server = None
    try:
        for index in range(setups):
            started = time.monotonic()
            server = _spawn(root, work, inputs, trace=False, label=str(index))
            pids.append(server.pid)
            server.wait_healthy()
            warm(inputs, server.port)
            setup_times.append(time.monotonic() - started)
            if index < setups - 1:
                server.stop()
        cpu_before, gen_before = server.cpu_seconds(), time.process_time()
        outcome = exercise(inputs, server.port, seconds)
        cpu_s = server.cpu_seconds() - cpu_before
        gen_share = (time.process_time() - gen_before) / outcome.window_s
        rss_mb = server.rss_peak_mb()
    finally:
        if server is not None:
            server.stop()
    attempted, failed, wrong = verify(inputs, outcome)
    if outcome.ops == 0:
        raise RuntimeError("no operation completed")
    latencies = [1e3 * x for x in stats.lateness(
        outcome.records, from_send=outcome.from_send)["latency"]]
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "throughput_rps": (outcome.ops / outcome.window_s, "1/s"),
        "latency_p50_ms": (statistics.median(latencies), "ms"),
        "latency_p95_ms": (stats.tail(latencies), "ms"),
        "cpu_ms_per_op": (1e3 * cpu_s / outcome.ops, "ms"),
        "rss_peak_mb": (rss_mb, "MiB"),
    }
    _, notes = generator_notes(outcome, gen_share)
    best = stats.highest_supported(len(latencies))
    notes += [
        f"samples: {len(latencies)} latencies; highest supported tail "
        f"p{100 * best:g} = {stats.quantile(latencies, best):.3f} ms",
        f"error_frac: {failed / attempted:.6f} ({failed} of {attempted})",
        f"setup_s samples: {', '.join(f'{s:.4f}' for s in setup_times)}",
    ]
    if outcome.job_s is not None:
        notes.append(f"job_s: {outcome.job_s:.4f} s for {outcome.ops} "
                     f"evaluated genomes")
    record = {"server_pids": pids, "inputs": inputs.record()}
    return Result(metrics, attempted, failed, wrong, notes, record)


def traced_run(root: str, work: str, workload: str, seed: int,
               seconds: int) -> Result:
    """Per-layer metrics: a tracing server for half the time, then an
    in-process replay of the same inputs through each layer."""
    inputs = Inputs(workload, seed, seconds / 2.0)
    server = _spawn(root, work, inputs, trace=True, label="traced")
    try:
        server.wait_healthy()
        warm(inputs, server.port)
        before = _metrics(server.port)
        gen_before = time.process_time()
        outcome = exercise(inputs, server.port, seconds / 2.0)
        gen_share = (time.process_time() - gen_before) / outcome.window_s
        after = _metrics(server.port)
        http = layers.http_probes(server.port, inputs)
        checkpoint = layers.job_checkpoint(server)
    finally:
        server.stop()
    attempted, failed, wrong = verify(inputs, outcome)
    generator, notes = generator_notes(outcome, gen_share)
    ledger = layers.Ledger(inputs, outcome, before, after, http, generator,
                           checkpoint)
    metrics = ledger.measure(work)
    notes += ledger.notes
    record = {"server_pids": [server.pid], "inputs": inputs.record()}
    return Result(metrics, attempted, failed, wrong, notes, record)


def _metrics(port: int) -> dict:
    conn = Connection(port)
    try:
        status, body = conn.request("GET", "/metrics")
    finally:
        conn.close()
    if status != 200:
        raise RuntimeError(f"/metrics answered {status}")
    return json.loads(body)
