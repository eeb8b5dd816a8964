"""Per-layer numbers: the server's own counters plus an in-process replay.

The traced run hands this module what it saw over HTTP (the
``/metrics`` documents before and after the traffic, the HTTP probes,
the generator's lag) and :class:`Ledger` replays the same seeded inputs
through each layer's public call, timing each one.  The ledger then
sets the named layers against the end-to-end time per operation; the
share nothing explains is ``ledger.unattributed_frac``.
"""

from __future__ import annotations

import dataclasses
import glob
import json
import os
import statistics
import time
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

import oracle
import stats
from repro.cluster.ring import HashRing
from repro.core.api import (
    AnalyzeRequest,
    canonical_json,
    evaluate_requests,
    serialize_analysis,
)
from repro.jobs import BatchedGenerationEvaluator, JobSpec, JobStore
from repro.jobs.model import history_to_dict, rng_state_to_dict
from repro.linalg import batched_flops, batched_lu_factor, batched_lu_solve
from repro.optimize.ga import GeneticOptimizer
from repro.optimize.history import OptimizationHistory
from repro.panel.assembly import assemble
from repro.panel.kernels import resolve_kernel
from repro.serve import AnalysisService, ResultCache, ServeClient
from repro.viscous.drag import analyze_viscous
from workloads import GA_POPULATION, Inputs

#: Timed repetitions per layer call; each metric is their median.
REPEATS = 5
#: ``/healthz`` round trips behind ``serve.http.floor_ms``.
FLOOR_PROBES = 20
#: GA generations replayed in process for the job layers.
GA_GENERATIONS = 2
#: Reynolds number for timing the viscous pass on inviscid workloads.
NOMINAL_REYNOLDS = 1e6
#: Server stages a queued request passes before it is solved.
QUEUE_STAGES = ("queue_wait", "batch_collect")


def _seconds(call: Callable[[], object]) -> float:
    started = time.perf_counter()
    call()
    return time.perf_counter() - started


def _median_time(call: Callable[[], object], repeats: int = REPEATS) -> float:
    """Median wall seconds of *repeats* calls."""
    return statistics.median(_seconds(call) for _ in range(repeats))


def _per_item(call: Callable[[object], object], items: Sequence) -> float:
    """Median over :data:`REPEATS` passes of the mean seconds per item."""
    def one_pass():
        for item in items:
            call(item)
    return _median_time(one_pass) / len(items)


def http_probes(port: int, inputs: Inputs) -> dict:
    """Time ``ServeClient.healthz`` and ``ServeClient.analyze_raw`` on the
    live server (the probe payloads miss the cache except on analyze_hot,
    whose probes are its cached keys).

    Each probe first idles for ``inputs.gap``, the time a connection of
    the workload idles between requests.  The pacing matters: on a
    connection that sends right after each answer, TCP delays its ACKs,
    and the server's separate header and body writes then wait ~40 ms
    for one (delayed ACK against Nagle); a connection idle for a while
    ACKs at once and does not pay it.
    """
    client = ServeClient("127.0.0.1", port)

    def paced(call):
        time.sleep(inputs.gap)
        started = time.perf_counter()
        answer = call()
        return time.perf_counter() - started, answer

    try:
        floor = [paced(client.healthz)[0] for _ in range(FLOOR_PROBES)]
        analyze, answers = [], []
        for payload in inputs.probes:
            seconds, answer = paced(lambda: client.analyze_raw(dict(payload)))
            analyze.append(seconds)
            answers.append(answer)
    finally:
        client.close()
    for payload, answer in zip(inputs.probes, answers):
        message = oracle.check_analysis(answer.encode(),
                                        oracle.expected_analysis(payload))
        if message is not None:
            raise RuntimeError(f"wrong probe answer for {payload}: {message}")
    return {"floor_ms": 1e3 * statistics.median(floor),
            "analyze_ms": 1e3 * statistics.median(analyze)}


def job_checkpoint(server) -> Optional[dict]:
    """The last checkpoint the server's GA job wrote, if it ran one."""
    if server.jobs_dir is None:
        return None
    paths = glob.glob(os.path.join(server.jobs_dir, "checkpoints", "*.json"))
    if not paths:
        return None
    with open(paths[0], "r", encoding="utf-8") as handle:
        return json.load(handle)


def _delta(after: dict, before: dict, *path: str) -> float:
    for key in path:
        after, before = after.get(key, {}), before.get(key, {})
    return float(after or 0) - float(before or 0)


def _stage_mean(after: dict, stage: str, before: Optional[dict] = None) -> Optional[float]:
    """Mean ms of one traced stage between two ``/metrics`` documents
    (exact: from the histogram's count and sum), or None if it never ran."""
    path = ("stages_hist_ms", stage)
    count = _delta(after, before or {}, *path, "count")
    return _delta(after, before or {}, *path, "sum_ms") / count if count else None


class Ledger:
    """Measures every per-layer metric for one traced run."""

    def __init__(self, inputs: Inputs, outcome, before: dict, after: dict,
                 http: dict, generator: dict,
                 checkpoint: Optional[dict]) -> None:
        self.inputs, self.outcome = inputs, outcome
        self.before, self.after = before, after
        self.http, self.generator = http, generator
        self.checkpoint = checkpoint
        self.notes: List[str] = []

    # -- server counters -------------------------------------------------

    def server_counters(self) -> dict:
        """Cache, batching and queue-stage numbers over the traffic window."""
        hits = _delta(self.after, self.before, "cache", "hits")
        misses = _delta(self.after, self.before, "cache", "misses")
        solves = _delta(self.after, self.before, "batching", "batched_solves")
        systems = _delta(self.after, self.before, "batching", "solved_systems")
        return {
            "hit_frac": hits / (hits + misses) if hits + misses else 0.0,
            "batch_mean": systems / solves if solves else 0.0,
            **{stage: _stage_mean(self.after, stage, self.before)
               for stage in QUEUE_STAGES},
        }

    # -- in-process replay -----------------------------------------------

    def _service(self, payloads: Sequence[dict]) -> dict:
        """``AnalysisService.analyze`` per payload on a fresh service:
        first call misses the cache, the second hits it."""
        miss, hit = [], []
        with AnalysisService() as service:
            for payload in payloads:
                miss.append(_seconds(lambda: service.analyze(dict(payload))))
                hit.append(_median_time(lambda: service.analyze(dict(payload))))
            snapshot = service.metrics_snapshot()
        return {"miss_ms": 1e3 * statistics.median(miss),
                "hit_ms": 1e3 * statistics.median(hit),
                **{stage: _stage_mean(snapshot, stage) for stage in QUEUE_STAGES}}

    def _solve(self, systems, stack: int) -> dict:
        n = systems[0].matrix.shape[0]
        picks = [systems[i % len(systems)] for i in range(stack)]
        matrices = np.stack([s.matrix for s in picks])
        rhs = np.stack([s.rhs for s in picks])
        seconds = _median_time(
            lambda: batched_lu_solve(batched_lu_factor(matrices), rhs), 3)
        return {"ms_per_system": 1e3 * seconds / stack,
                "gflops": batched_flops(stack, n) / seconds / 1e9}

    def _ga(self, spec: dict) -> dict:
        """Replay the job's first generations the way the job runner
        steps them, timing evaluation apart from the GA's own work."""
        job = JobSpec.from_dict(spec)
        fitness, config = job.fitness_evaluator(), job.ga_config()
        step = GeneticOptimizer(evaluator=fitness,
                                config=dataclasses.replace(config, generations=1))
        batched = BatchedGenerationEvaluator(fitness)
        evaluation: List[float] = []

        def timed(population):
            started = time.perf_counter()
            records = batched(population)
            evaluation.append(time.perf_counter() - started)
            return records

        step.evaluate_all = timed
        rng = np.random.default_rng(job.seed)
        population = [fitness.layout.random_genome(rng)
                      for _ in range(config.population_size)]
        history = OptimizationHistory()
        whole = []
        for generation in range(GA_GENERATIONS):
            started = time.perf_counter()
            population = step.run_from(population, rng, history=history,
                                       generation_offset=generation)
            whole.append(time.perf_counter() - started)
        payload = {"job_id": "perfbench", "generation_offset": GA_GENERATIONS,
                   "population": [genome.tolist() for genome in population],
                   "rng_state": rng_state_to_dict(rng),
                   "history": history_to_dict(history)}
        return {"eval_ms": 1e3 * statistics.median(evaluation),
                "overhead_ms": 1e3 * statistics.median(
                    w - e for w, e in zip(whole, evaluation)),
                "payload": payload}

    def _store(self, work: str, spec: dict, payload: dict) -> dict:
        store = JobStore(os.path.join(work, "layer-jobs"))
        try:
            path = store.write_checkpoint("perfbench", payload)
            checkpoint = _median_time(
                lambda: store.write_checkpoint("perfbench", payload))
            record = store.submit(JobSpec.from_dict(spec))
            progress = {"best_fitness": 1.0, "mean_fitness": 0.5,
                        "feasible_fraction": 1.0}
            append = _median_time(
                lambda: store.record_progress(record.id, 0, progress), 20)
            return {"checkpoint_ms": 1e3 * checkpoint,
                    "checkpoint_kb": os.path.getsize(path) / 1024.0,
                    "append_ms": 1e3 * append}
        finally:
            store.close()

    def measure(self, work: str) -> Dict[str, tuple]:
        inputs = self.inputs
        counters = self.server_counters()
        payloads = inputs.probes
        requests = [AnalyzeRequest.from_dict(p) for p in payloads]
        analyses = evaluate_requests(requests)
        kernel = resolve_kernel(None)
        systems = [assemble(r.build_airfoil(), r.freestream(), kernel=kernel)
                   for r in requests]
        service = self._service(payloads)
        for stage in QUEUE_STAGES:
            # Traffic that never queues (cache hits, GA jobs) leaves the
            # live stage empty; the replay's probe misses stand in.
            if counters[stage] is None:
                counters[stage] = service[stage]
        cold_path = inputs.workload != "analyze_hot"
        service_ms = service["miss_ms"] if cold_path else service["hit_ms"]

        cache = ResultCache()
        keys = [r.cache_key() for r in requests]
        for key, request, analysis in zip(keys, requests, analyses):
            cache.put(key, serialize_analysis(request, analysis))
        ring = HashRing([f"replica-{i}" for i in range(3)])
        if inputs.workload == "ga_job":
            stack = GA_POPULATION
        else:
            stack = max(1, round(counters["batch_mean"]))
        solve = self._solve(systems, stack)
        reynolds = inputs.reynolds or NOMINAL_REYNOLDS
        spec = inputs.job_spec or Inputs("ga_job", inputs.seed, 1).job_spec
        ga = self._ga(spec)
        store = self._store(work, spec, self.checkpoint or ga["payload"])

        us = 1e6
        layer = {
            "decode_us": us * _per_item(AnalyzeRequest.from_dict, payloads),
            "cache_key_us": us * _per_item(AnalyzeRequest.cache_key, requests),
            "build_us": us * _per_item(AnalyzeRequest.build_airfoil, requests),
            "encode_us": us * _per_item(
                lambda pair: canonical_json(serialize_analysis(*pair)),
                list(zip(requests, analyses))),
            "get_us": us * _per_item(cache.get, keys),
            "ring_us": us * _per_item(ring.lookup, keys),
            "assembly_ms": 1e3 * statistics.median(
                _median_time(lambda r=r: assemble(
                    r.build_airfoil(), r.freestream(), kernel=kernel), 3)
                for r in requests),
            "viscous_ms": 1e3 * statistics.median(
                _median_time(lambda a=a: analyze_viscous(a.solution, reynolds), 3)
                for a in analyses),
            "evaluate_ms": 1e3 * statistics.median(
                _median_time(lambda r=r: evaluate_requests([r]), 3)
                for r in requests),
        }
        metrics = {
            "serve.http.floor_ms": (self.http["floor_ms"], "ms"),
            "serve.http.overhead_ms": (self.http["analyze_ms"] - service_ms, "ms"),
            "serve.service.hit_us": (1e3 * service["hit_ms"], "us"),
            "core.decode_us": (layer["decode_us"], "us"),
            "core.cache_key_us": (layer["cache_key_us"], "us"),
            "geometry.build_us": (layer["build_us"], "us"),
            "core.encode_us": (layer["encode_us"], "us"),
            "serve.cache.get_us": (layer["get_us"], "us"),
            "serve.cache.hit_frac": (counters["hit_frac"], "ratio"),
            "serve.queue_wait_ms_mean": (counters["queue_wait"], "ms"),
            "serve.batch_collect_ms_mean": (counters["batch_collect"], "ms"),
            "serve.batch_size_mean": (counters["batch_mean"], "systems"),
            "panel.assembly_ms_per_system": (layer["assembly_ms"], "ms"),
            "linalg.solve_ms_per_system": (solve["ms_per_system"], "ms"),
            "linalg.solve_gflops": (solve["gflops"], "GFLOP/s"),
            "viscous.ms_per_request": (layer["viscous_ms"], "ms"),
            "core.evaluate_ms_per_request": (layer["evaluate_ms"], "ms"),
            "jobs.generation_eval_ms": (ga["eval_ms"], "ms"),
            "optimize.ga_overhead_ms": (ga["overhead_ms"], "ms"),
            "jobs.checkpoint_ms": (store["checkpoint_ms"], "ms"),
            "jobs.checkpoint_kb": (store["checkpoint_kb"], "KiB"),
            "jobs.journal_append_ms": (store["append_ms"], "ms"),
            "cluster.ring_lookup_us": (layer["ring_us"], "us"),
            "loadgen.lag_p95_ms": (self.generator["lag_p95_ms"], "ms"),
            "loadgen.cpu_share": (self.generator["cpu_share"], "ratio"),
        }
        parts, whole = self._ledger(layer, counters, solve, ga, store)
        metrics["ledger.unattributed_frac"] = (
            stats.unattributed_frac(parts, whole), "ratio")
        self.notes.append(
            f"ledger ({inputs.workload}): end-to-end {whole:.3f} ms per op = "
            + " + ".join(f"{name} {ms:.3f}" for name, ms in parts.items())
            + f" + unattributed {whole - sum(parts.values()):.3f}")
        self.notes.append(
            f"solve stack {stack} x n={systems[0].matrix.shape[0]}: "
            f"{solve['ms_per_system']:.3f} ms/system, assembly "
            f"{layer['assembly_ms']:.3f} ms/system")
        return metrics

    def _ledger(self, layer, counters, solve, ga, store):
        """``(layer ms per op, end-to-end ms per op)`` for this workload."""
        if self.inputs.workload == "ga_job":
            generations = self.inputs.job_spec["ga"]["generations"]
            whole = 1e3 * self.outcome.job_s / generations
            return {"generation_eval": ga["eval_ms"],
                    "ga_overhead": ga["overhead_ms"],
                    "checkpoint": store["checkpoint_ms"],
                    "journal_append": store["append_ms"]}, whole
        late = stats.lateness(self.outcome.records,
                              from_send=self.outcome.from_send)["latency"]
        whole = 1e3 * sum(late) / len(late)
        parts = {"http_floor": self.http["floor_ms"],
                 "decode": layer["decode_us"] / 1e3,
                 "cache_key": layer["cache_key_us"] / 1e3,
                 "cache_get": layer["get_us"] / 1e3,
                 "encode": layer["encode_us"] / 1e3}
        if self.inputs.workload == "analyze_cold":
            batch = max(1.0, counters["batch_mean"])
            parts.update({
                "queue_wait": counters["queue_wait"],
                "batch_collect": counters["batch_collect"],
                "assembly": batch * layer["assembly_ms"],
                "solve": batch * solve["ms_per_system"],
                "viscous": batch * layer["viscous_ms"],
            })
        return parts, whole
