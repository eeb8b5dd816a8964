"""Benchmark: the serving stack under concurrent load.

Drives the in-process :class:`~repro.serve.AnalysisService` with N
concurrent clients at several batching settings and prints one JSON
summary per setting: throughput, p50/p99 latency, cache hit rate, and
how much coalescing the micro-batcher achieved.  The point to watch is
the batching column — with ``max_batch=1`` every request is its own
LU call, while the batched settings collapse the same traffic into a
handful of stacks (the serving analogue of the paper's slice sweep).

A separate *assembly-bound* section times ``evaluate_requests``
directly on a stack of distinct large systems and records the traced
assembly and solve wall times — the paper's question of which stage
dominates.  The stack is large enough to be sharded across threads on
a multi-core host.

A final *deadline pressure* row runs the same traffic under a
microscopic per-request deadline: every request expires in the queue
and is shed at batch collection, so the row demonstrates the lifecycle
contract — dead work costs no solves (``solved_systems`` stays 0 while
``expired`` counts the whole offered load).

Each run also writes the machine-readable ``BENCH_serving.json``
artifact (per-row throughput, latency quantiles, and the W/A/L/O stage
breakdown from the live tracer) via
:func:`conftest.write_bench_json`, honouring ``BENCH_OUTPUT_DIR``.

Also runnable standalone::

    PYTHONPATH=src python benchmarks/bench_serving.py [--smoke]
        [--output BENCH_serving.json]
"""

import argparse
import json
import os
import threading
import time

from repro.core.api import AnalyzeRequest, evaluate_requests, usable_cores
from repro.errors import DeadlineExceededError
from repro.serve import AnalysisService

#: (max_batch, max_wait_seconds) settings swept by the benchmark.
SETTINGS = ((1, 0.0), (8, 0.002), (32, 0.01))

#: Reduced sweep used by ``--smoke`` (CI): one unbatched and one
#: batched setting, smaller offered load, same assertions.
SMOKE_SETTINGS = ((1, 0.0), (8, 0.002))

N_CLIENTS = 8
REQUESTS_PER_CLIENT = 8
SMOKE_CLIENTS = 4
SMOKE_REQUESTS_PER_CLIENT = 4
N_PANELS = 60

#: Default artifact filename (see ``conftest.write_bench_json``).
OUTPUT_FILENAME = "BENCH_serving.json"

#: Deadline used by the pressure row: far below any realistic queue
#: time, so every request expires before a worker can collect it.
PRESSURE_DEADLINE_MS = 1e-3


def _request_stream(client_index, requests_per_client):
    """A client's request sequence: few distinct shapes, repeated angles,
    so the cache and the batcher both have something to merge."""
    for index in range(requests_per_client):
        yield AnalyzeRequest(
            airfoil="2412" if (client_index + index) % 2 else "0012",
            alpha_degrees=float((client_index + index) % 4),
            reynolds=None, n_panels=N_PANELS,
        )


def _stage_breakdown(snapshot):
    """The live tracer's W/A/L/O reduction, rounded for the artifact."""
    stages = snapshot.get("stages", {})
    breakdown = {key: round(value, 6) for key, value in stages.items()
                 if key.endswith("_seconds")}
    breakdown["traced"] = stages.get("traced", 0)
    return breakdown


def drive(max_batch, max_wait, *, deadline_ms=None,
          n_clients=N_CLIENTS, requests_per_client=REQUESTS_PER_CLIENT):
    """Run one setting; returns the JSON summary row.

    With ``deadline_ms`` set, every request carries that budget and a
    :class:`DeadlineExceededError` is an expected outcome rather than a
    failure.
    """
    service = AnalysisService(max_batch=max_batch, max_wait=max_wait,
                              cache_size=256, n_workers=2, queue_limit=1024,
                              default_deadline_ms=deadline_ms)
    errors = []
    deadline_hits = [0] * n_clients

    def client(client_index):
        for request in _request_stream(client_index, requests_per_client):
            try:
                service.analyze(request, timeout=60.0)
            except DeadlineExceededError:
                deadline_hits[client_index] += 1
                if deadline_ms is None:  # pragma: no cover - surfaced below
                    errors.append(RuntimeError("unexpected deadline miss"))
            except Exception as error:  # pragma: no cover - surfaced below
                errors.append(error)

    threads = [threading.Thread(target=client, args=(index,))
               for index in range(n_clients)]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - start
    snapshot = service.metrics_snapshot()
    service.close()
    if errors:
        raise errors[0]

    total = n_clients * requests_per_client
    latency = snapshot["latency_ms"]
    return {
        # Part of the row key of the committed trend baselines
        # (benchmarks/check_trend.py); every row solves in-process.
        "backend": "inline",
        "max_batch": max_batch,
        "max_wait_ms": 1e3 * max_wait,
        "deadline_ms": deadline_ms,
        "requests": total,
        "wall_s": round(wall, 4),
        "throughput_rps": round(total / wall, 1),
        "latency_p50_ms": (None if latency["p50"] is None
                           else round(latency["p50"], 3)),
        "latency_p99_ms": (None if latency["p99"] is None
                           else round(latency["p99"], 3)),
        "cache_hit_rate": round(snapshot["cache"]["hit_rate"], 3),
        "batched_solves": snapshot["batching"]["batched_solves"],
        "solved_systems": snapshot["batching"]["solved_systems"],
        "max_batch_observed": snapshot["batching"]["max_batch"],
        "shed": snapshot["requests"]["shed"],
        "expired": snapshot["requests"]["expired"],
        "cancelled": snapshot["requests"]["cancelled"],
        "deadline_misses_seen_by_clients": sum(deadline_hits),
        "stages": _stage_breakdown(snapshot),
    }


def run_sweep(*, smoke=False):
    settings = SMOKE_SETTINGS if smoke else SETTINGS
    n_clients = SMOKE_CLIENTS if smoke else N_CLIENTS
    per_client = SMOKE_REQUESTS_PER_CLIENT if smoke else REQUESTS_PER_CLIENT
    rows = [drive(max_batch, max_wait, n_clients=n_clients,
                  requests_per_client=per_client)
            for max_batch, max_wait in settings]
    rows.append(drive(settings[-1][0], settings[-1][1],
                      deadline_ms=PRESSURE_DEADLINE_MS, n_clients=n_clients,
                      requests_per_client=per_client))
    return rows


#: Assembly-bound workload shape: distinct geometries at the paper's
#: reference panel count, inviscid, so per-request assembly dominates
#: over the stacked LAPACK solve and the viscous pass.
ASSEMBLY_BOUND_PANELS = 200
ASSEMBLY_BOUND_REQUESTS = 24
SMOKE_ASSEMBLY_BOUND_REQUESTS = 8


def assembly_bound_comparison(*, smoke=False):
    """Time an assembly-bound batch through ``evaluate_requests``.

    Returns a dict for the artifact with one row: the traced assembly
    and solve wall times (the envelopes the stage hook reports, from
    the run with the least assembly time of three) and the total wall
    time.
    """
    n_requests = SMOKE_ASSEMBLY_BOUND_REQUESTS if smoke else ASSEMBLY_BOUND_REQUESTS
    requests = [
        AnalyzeRequest(airfoil=f"{1 + index % 6}412",
                       alpha_degrees=0.5 * index, reynolds=None,
                       n_panels=ASSEMBLY_BOUND_PANELS)
        for index in range(n_requests)
    ]

    def measure():
        best = None
        for _ in range(3):
            spans = {}

            def hook(stage, start, end, count):
                spans.setdefault(stage, 0.0)
                spans[stage] += end - start

            started = time.perf_counter()
            outcomes = evaluate_requests(requests, stage_hook=hook)
            wall = time.perf_counter() - started
            assert not any(isinstance(o, Exception) for o in outcomes)
            run = {"assembly_s": round(spans.get("assembly", 0.0), 6),
                   "solve_s": round(spans.get("solve", 0.0), 6),
                   "wall_s": round(wall, 6)}
            if best is None or run["assembly_s"] < best["assembly_s"]:
                best = run
        return best

    return {
        "n_requests": n_requests,
        "n_panels": ASSEMBLY_BOUND_PANELS,
        "usable_cores": usable_cores(),
        "rows": [measure()],
    }


def _artifact(rows, assembly_bound, *, smoke):
    """The ``BENCH_serving.json`` document for one sweep."""
    return {"benchmark": "serving", "smoke": smoke, "rows": rows,
            "assembly_bound": assembly_bound}


def check_rows(rows):
    """Invariants every sweep must satisfy (shared by pytest and CLI)."""
    normal, pressure = rows[:-1], rows[-1]
    for summary in normal:
        assert summary["shed"] == 0
        assert summary["expired"] == 0
        assert summary["solved_systems"] <= summary["requests"]
        assert summary["cache_hit_rate"] > 0.0
        assert summary["stages"]["traced"] >= 1
        # The tracer's paper-vocabulary identity: O = W - L.
        stages = summary["stages"]
        assert abs(stages["overhead_seconds"]
                   - (stages["wall_seconds"] - stages["solve_seconds"])) < 1e-3
    # The batched settings must actually coalesce: fewer LU calls than
    # the unbatched baseline issues.
    unbatched = normal[0]
    for summary in normal[1:]:
        assert summary["batched_solves"] <= unbatched["batched_solves"]
    # Deadline pressure: every request expires in the queue, every
    # expiry reaches its client as a 504-equivalent error, and no
    # expired request ever costs a solve.
    assert pressure["expired"] == pressure["requests"]
    assert pressure["deadline_misses_seen_by_clients"] == pressure["requests"]
    assert pressure["solved_systems"] == 0


def check_assembly_bound(comparison):
    """Invariants for the assembly-bound section."""
    (row,) = comparison["rows"]
    assert 0.0 < row["assembly_s"] < row["wall_s"]
    assert 0.0 < row["solve_s"] < row["wall_s"]


def test_serving_throughput(benchmark):
    from conftest import run_once, write_bench_json

    summaries = run_once(benchmark, run_sweep)
    print("\n" + json.dumps(summaries, indent=2))
    check_rows(summaries)
    comparison = assembly_bound_comparison(smoke=False)
    print(json.dumps(comparison, indent=2))
    check_assembly_bound(comparison)
    path = write_bench_json(OUTPUT_FILENAME,
                            _artifact(summaries, comparison, smoke=False))
    print(f"wrote {path}")


if __name__ == "__main__":
    import sys

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from conftest import write_bench_json

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="reduced sweep for CI smoke runs")
    parser.add_argument("--output", default=OUTPUT_FILENAME, metavar="FILE",
                        help="artifact filename (relative paths land in "
                             "$BENCH_OUTPUT_DIR when set; default "
                             f"{OUTPUT_FILENAME})")
    arguments = parser.parse_args()
    sweep_rows = run_sweep(smoke=arguments.smoke)
    print(json.dumps(sweep_rows, indent=2))
    check_rows(sweep_rows)
    comparison = assembly_bound_comparison(smoke=arguments.smoke)
    print(json.dumps(comparison, indent=2))
    check_assembly_bound(comparison)
    artifact_path = write_bench_json(arguments.output,
                                     _artifact(sweep_rows, comparison,
                                               smoke=arguments.smoke))
    print(f"wrote {artifact_path}")
