"""Benchmark: the service's queue-draining batcher against no batching.

Two rows, one closed-loop load (concurrent in-process clients sending
one n=64 key with the cache off, one worker):

* ``unbatched`` — ``max_batch=1``: every request is its own LU call,
  the queue stands, and throughput is whatever one-at-a-time dispatch
  can do.
* ``default`` — the service as constructed with no batching argument:
  a free worker takes everything already queued (up to the
  ``MAX_BATCH_CEILING`` default) and solves it as one stack, with no
  flush timer.

The sweep asserts the default reaches at least 1.3x the unbatched
throughput — batching must follow the load without a knob — and writes
the machine-readable ``BENCH_batching.json`` artifact via
:func:`conftest.write_bench_json` (honouring ``BENCH_OUTPUT_DIR``).

Also runnable standalone::

    PYTHONPATH=src python benchmarks/bench_batching.py [--smoke]
        [--output BENCH_batching.json]
"""

import argparse
import json
import threading
import time

from repro.serve import AnalysisService

#: Default artifact filename (see ``conftest.write_bench_json``).
OUTPUT_FILENAME = "BENCH_batching.json"

#: Closed-loop client threads driving each service.
N_CLIENTS = 6
SMOKE_CLIENTS = 4

#: Problem size per request (dense LU at serving scale).
N_PANELS = 64

#: Measurement window per row, seconds.
WINDOW_S = 5.0
SMOKE_WINDOW_S = 2.5

#: Warm-up before each measurement, seconds.
WARMUP_S = 2.0

#: The acceptance gate: default throughput over the unbatched row.
MIN_GAIN = 1.3

#: Service arguments per row; ``default`` passes no batching argument.
CONFIGS = {"unbatched": {"max_batch": 1}, "default": {}}


def _load(service, n_clients):
    """Closed-loop load: counts completions, returns (throughput, stop)."""
    stop = threading.Event()
    completed = [0]
    lock = threading.Lock()

    def run():
        while not stop.is_set():
            service.analyze({"airfoil": "0012", "alpha_degrees": 2.0,
                             "n_panels": N_PANELS})
            with lock:
                completed[0] += 1

    pool = [threading.Thread(target=run, daemon=True)
            for _ in range(n_clients)]
    for thread in pool:
        thread.start()

    def throughput(seconds):
        with lock:
            before = completed[0]
        start = time.monotonic()
        time.sleep(seconds)
        with lock:
            after = completed[0]
        return (after - before) / (time.monotonic() - start)

    def shutdown():
        stop.set()
        for thread in pool:
            thread.join(timeout=5.0)

    return throughput, shutdown


def measure(config, *, n_clients, window):
    """One row: a fresh service under the closed-loop load."""
    service = AnalysisService(cache_size=0, n_workers=1, queue_limit=512,
                              **CONFIGS[config])
    throughput, shutdown = _load(service, n_clients)
    try:
        time.sleep(WARMUP_S)
        rps = throughput(window)
        sizes = service.metrics_snapshot()["batching"]["batch_size_histogram"]
    finally:
        shutdown()
        service.close(timeout=30.0)
    requests = sum(int(size) * count for size, count in sizes.items())
    return {"config": config, "max_batch": service.max_batch,
            "throughput_rps": round(rps, 1),
            "mean_batch": round(requests / sum(sizes.values()), 2)}


def run_sweep(*, smoke=False):
    n_clients = SMOKE_CLIENTS if smoke else N_CLIENTS
    window = SMOKE_WINDOW_S if smoke else WINDOW_S
    return [measure(config, n_clients=n_clients, window=window)
            for config in CONFIGS]


def check_rows(rows):
    """Invariants every sweep must satisfy (shared by pytest and CLI)."""
    unbatched, default = rows
    assert unbatched["config"] == "unbatched" and unbatched["max_batch"] == 1
    assert default["config"] == "default" and default["max_batch"] > 1
    # Requests queued behind a busy worker were solved together.
    assert unbatched["mean_batch"] == 1.0, unbatched
    assert default["mean_batch"] > 1.0, default
    gain = default["throughput_rps"] / unbatched["throughput_rps"]
    assert gain >= MIN_GAIN, (
        f"default batching gives {gain:.2f}x the unbatched throughput, "
        f"below the {MIN_GAIN}x gate: {rows}")


def _artifact(rows, *, smoke):
    return {"benchmark": "batching", "smoke": smoke, "rows": rows}


def test_batching_follows_the_load(benchmark):
    from conftest import run_once, write_bench_json

    rows = run_once(benchmark, run_sweep)
    print("\n" + json.dumps(rows, indent=2))
    check_rows(rows)
    path = write_bench_json(OUTPUT_FILENAME, _artifact(rows, smoke=False))
    print(f"wrote {path}")


if __name__ == "__main__":
    import os
    import sys

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from conftest import write_bench_json

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="reduced sizes for CI smoke runs")
    parser.add_argument("--output", default=OUTPUT_FILENAME, metavar="FILE",
                        help="artifact filename (relative paths land in "
                             "$BENCH_OUTPUT_DIR when set; default "
                             f"{OUTPUT_FILENAME})")
    arguments = parser.parse_args()
    sweep_rows = run_sweep(smoke=arguments.smoke)
    print(json.dumps(sweep_rows, indent=2))
    check_rows(sweep_rows)
    artifact_path = write_bench_json(arguments.output,
                                     _artifact(sweep_rows,
                                               smoke=arguments.smoke))
    print(f"wrote {artifact_path}")
