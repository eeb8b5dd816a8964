"""Router counters and cluster-wide metrics aggregation.

The router's ``/metrics`` document has three floors:

``router``
    The router's own counters — requests routed, failovers taken, jobs
    placed and migrated — plus health-probe accounting from the
    :class:`~repro.cluster.health.HealthManager`.
``cluster``
    One *merged* snapshot over every reachable replica, so a dashboard
    can treat N replicas as one logical service: counters sum,
    gauges sum where extensive (queue depth, in-flight) and the
    latency block merges conservatively (counts sum, means weight by
    count, quantiles and max take the worst replica).
``replicas``
    The raw per-replica snapshot (or an ``unreachable`` marker), for
    drilling into a single node — this is also what the cache-locality
    e2e test reads to prove each key's hits land on one replica.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional

from repro.obs.histogram import is_histogram_snapshot, merge_histogram_snapshots
from repro.obs.slo import is_slo_snapshot, merge_slo_snapshots

#: Leaves of a replica snapshot that describe identity, not load —
#: meaningless to sum, so they are dropped from the merged view.
_IDENTITY_KEYS = frozenset({"started_at", "snapshot_seq", "slots"})

#: Latency-block stats that merge by "worst replica wins".
_WORST_WINS = frozenset({"p50", "p90", "p99", "max"})


class RouterMetrics:
    """Thread-safe counters for one :class:`~repro.cluster.ClusterRouter`.

    All counters are monotonic; ``snapshot()`` returns a JSON-ready
    dict that slots in as the ``router`` section of ``/metrics``.
    """

    COUNTERS = (
        "routed",            # single /analyze requests proxied
        "routed_batch",      # /analyze_batch requests proxied
        "fanout_requests",   # batch items fanned out to replicas
        "failovers",         # requests retried on the next ring node
        "exhausted",         # requests that ran out of candidates
        "proxy_errors",      # non-failover upstream errors propagated
        "jobs_placed",       # fresh job placements
        "jobs_migrated",     # jobs resubmitted after a replica death
        "migration_failures",  # orphans we could not resettle
        "checkpoints_staged",  # checkpoint files copied to survivors
        "health_transitions",  # UP<->DOWN edges observed
        "trace_pulls",         # replica /debug/trace/<id> fetches tried
        "trace_pull_failures",  # pulls that errored or missed the ring
        "traces_stitched",     # multi-hop traces assembled successfully
    )

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counts = {name: 0 for name in self.COUNTERS}

    def increment(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self._counts[name] += amount  # KeyError = programming error

    def get(self, name: str) -> int:
        with self._lock:
            return self._counts[name]

    def snapshot(self) -> Dict[str, int]:
        with self._lock:
            return dict(self._counts)


def merge_snapshots(snapshots: Dict[str, Optional[dict]]) -> dict:
    """Merge per-replica ``/metrics`` snapshots into one cluster view.

    *snapshots* maps replica name to its snapshot dict, or ``None``
    for replicas that could not be scraped (they simply contribute
    nothing — the merged view describes what is reachable *now*).
    """
    merged: dict = {}
    for snapshot in snapshots.values():
        if snapshot:
            _merge_into(merged, snapshot)
    _scrub_bookkeeping(merged)
    return merged


def _copy_tree(value):
    """Deep copy of a JSON-shaped value (dicts/lists/scalars)."""
    if isinstance(value, dict):
        return {key: _copy_tree(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_copy_tree(item) for item in value]
    return value


def _scrub_bookkeeping(node: dict) -> None:
    node.pop("_mean_weight", None)
    for value in node.values():
        if isinstance(value, dict):
            _scrub_bookkeeping(value)


def _merge_into(target: dict, source: dict, *, in_latency: bool = False) -> None:
    for key, value in source.items():
        if key in _IDENTITY_KEYS:
            continue
        if isinstance(value, dict):
            if is_histogram_snapshot(value):
                # Bucket ladders match across replicas (same defaults),
                # so histogram merge is exact: counts sum per ``le``,
                # exemplars keep the most recent observation.
                if key in target and is_histogram_snapshot(target[key]):
                    merge_histogram_snapshots(target[key], value)
                else:
                    target[key] = _copy_tree(value)
                continue
            if is_slo_snapshot(value):
                # Counts sum, rates are recomputed from merged counts,
                # and the merged objective keeps the *stricter* of the
                # two (min latency objective, max availability target).
                if key in target and is_slo_snapshot(target[key]):
                    merge_slo_snapshots(target[key], value)
                else:
                    target[key] = _copy_tree(value)
                continue
            node = target.setdefault(key, {})
            _merge_into(node, value, in_latency=(key == "latency_ms"))
        elif isinstance(value, bool) or value is None:
            continue
        elif isinstance(value, (int, float)):
            if in_latency and key in _WORST_WINS:
                target[key] = max(target.get(key, value), value)
            elif in_latency and key == "mean":
                # Weighted by this source's count (merged after "count"
                # only if dict ordering holds; recompute defensively).
                count = float(source.get("count") or 0)
                prior_count = float(target.get("_mean_weight", 0.0))
                prior_mean = float(target.get("mean", 0.0))
                total = prior_count + count
                if total > 0:
                    target["mean"] = ((prior_mean * prior_count
                                       + float(value) * count) / total)
                target["_mean_weight"] = total
            else:
                target[key] = target.get(key, 0) + value
        # strings (states, ids) don't aggregate: dropped by design.


def aggregate_cluster(router: dict,
                      replicas: Dict[str, Optional[dict]]) -> dict:
    """Build the full cluster ``/metrics`` document.

    ``replicas`` values of ``None`` mark unreachable nodes; they are
    reported as such rather than silently omitted, so a scrape makes
    partial visibility explicit.
    """
    return {
        "router": router,
        "cluster": merge_snapshots(replicas),
        "replicas": {
            name: (snapshot if snapshot is not None
                   else {"unreachable": True})
            for name, snapshot in replicas.items()
        },
    }
