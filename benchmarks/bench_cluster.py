"""Benchmark: the cluster router over 1 vs 3 replicas, plus failover.

Builds real in-process replicas (:class:`~repro.serve.AnalysisService`
behind its HTTP server) behind a :class:`~repro.cluster.ClusterRouter`
and drives them with concurrent clients.  Two scaling rows compare one
replica against three under the same offered load; a third *failover
blip* row repeats the three-replica run and kills a replica mid-sweep,
asserting that every request still completes (the blip is visible as
``failovers`` > 0, not as client errors).

The consistent-hash routing keeps repeated keys on one replica, so the
aggregate cache hit count in each row is the locality signal: it stays
high even as replicas are added, where a round-robin router would
dilute every replica's cache with every key.

Each run writes the machine-readable ``BENCH_cluster.json`` artifact
via :func:`conftest.write_bench_json`, honouring ``BENCH_OUTPUT_DIR``.

Also runnable standalone::

    PYTHONPATH=src python benchmarks/bench_cluster.py [--smoke]
        [--output BENCH_cluster.json]
"""

import argparse
import json
import threading
import time

from repro.cluster import ClusterRouter
from repro.core.api import AnalyzeRequest
from repro.serve import AnalysisService, start_server

N_CLIENTS = 8
REQUESTS_PER_CLIENT = 12
SMOKE_CLIENTS = 4
SMOKE_REQUESTS_PER_CLIENT = 6

#: Distinct request shapes in the workload; small enough that repeats
#: (and therefore cache hits) happen within one sweep.
DISTINCT_KEYS = 16
N_PANELS = 60

OUTPUT_FILENAME = "BENCH_cluster.json"


def _payload(index):
    return {"airfoil": "2412" if index % 2 else "0012",
            "alpha_degrees": float(index % (DISTINCT_KEYS // 2)),
            "reynolds": 0, "n_panels": N_PANELS}


def _routing_key(index):
    return AnalyzeRequest.from_dict(_payload(index)).cache_key()


def drive(n_replicas, *, n_clients, requests_per_client, kill_one=False):
    """Run one sweep through a fresh topology; returns the summary row.

    With ``kill_one`` the busiest-by-ring replica is killed once a
    quarter of the load has been routed, and a directed request for a
    key that replica owned proves the failover path ran.
    """
    services, servers = [], []
    for _ in range(n_replicas):
        service = AnalysisService(max_batch=8,
                                  cache_size=256, n_workers=2,
                                  queue_limit=1024)
        services.append(service)
        servers.append(start_server(service))
    router = ClusterRouter(
        [f"127.0.0.1:{server.port}" for server in servers],
        health_interval=0.05, down_after=2, timeout=30.0,
    ).start()
    total = n_clients * requests_per_client
    errors = []

    def client(client_index):
        for index in range(requests_per_client):
            try:
                router.analyze(_payload(client_index + 2 * index))
            except Exception as error:  # pragma: no cover - surfaced below
                errors.append(error)

    victim_index = None
    post_kill_probe = []
    if kill_one:
        victim = router.ring.lookup(_routing_key(0))
        victim_index = [f"127.0.0.1:{server.port}"
                        for server in servers].index(victim)

    def killer():
        while router.metrics.get("routed") < total // 4:
            time.sleep(0.001)
        servers[victim_index].stop()
        # Sever the pooled keep-alive sockets too: a stopped in-process
        # listener leaves live handler threads behind, which a real
        # SIGKILL would not.
        router.replicas[victim].client.close()
        # A key the dead replica owned must still answer, via its
        # heir.  Issued immediately, before the health probes mark the
        # victim DOWN, so it deterministically exercises the inline
        # failover path (and charges `failovers`).
        record = router.analyze(_payload(0))
        post_kill_probe.append("cl" in record)

    threads = [threading.Thread(target=client, args=(index,))
               for index in range(n_clients)]
    if kill_one:
        threads.append(threading.Thread(target=killer))
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - start

    router_metrics = router.metrics.snapshot()
    cache_hits = sum(service.metrics_snapshot()["cache"]["hits"]
                     for service in services)
    router.close()
    for index, server in enumerate(servers):
        if index != victim_index:
            server.stop()
        services[index].close(timeout=30.0)
    if errors:
        raise errors[0]

    requests = total + (1 if kill_one else 0)
    return {
        "replicas": n_replicas,
        "killed_one": kill_one,
        "requests": requests,
        "wall_s": round(wall, 4),
        "throughput_rps": round(requests / wall, 1),
        "cache_hits": cache_hits,
        "routed": router_metrics["routed"],
        "failovers": router_metrics["failovers"],
        "exhausted": router_metrics["exhausted"],
        "proxy_errors": router_metrics["proxy_errors"],
        "post_kill_probe_ok": post_kill_probe[0] if post_kill_probe else None,
    }


def run_sweep(*, smoke=False):
    n_clients = SMOKE_CLIENTS if smoke else N_CLIENTS
    per_client = SMOKE_REQUESTS_PER_CLIENT if smoke else REQUESTS_PER_CLIENT
    rows = [
        drive(1, n_clients=n_clients, requests_per_client=per_client),
        drive(3, n_clients=n_clients, requests_per_client=per_client),
        drive(3, n_clients=n_clients, requests_per_client=per_client,
              kill_one=True),
    ]
    return rows


def check_rows(rows):
    """Invariants every sweep must satisfy (shared by pytest and CLI)."""
    single, scaled, failover = rows
    for row in rows:
        # Nothing is ever lost: every offered request is routed and
        # none exhausts the ring or surfaces a replica rejection.
        assert row["routed"] == row["requests"], row
        assert row["exhausted"] == 0, row
        assert row["proxy_errors"] == 0, row
        # Affine routing keeps repeats warm: the workload repeats each
        # distinct key several times, so a solid fraction of requests
        # must be cache hits (racing concurrent misses on the same key
        # keep this below the ideal repeat count).
        assert row["cache_hits"] >= row["requests"] // 3, row
    assert single["failovers"] == 0
    assert scaled["failovers"] == 0
    # The blip: the kill forced at least one failover (the directed
    # post-kill probe guarantees one), yet zero client-visible errors.
    assert failover["killed_one"]
    assert failover["failovers"] >= 1
    assert failover["post_kill_probe_ok"] is True


def _artifact(rows, *, smoke):
    return {"benchmark": "cluster", "smoke": smoke, "rows": rows}


def test_cluster_scaling_and_failover(benchmark):
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
