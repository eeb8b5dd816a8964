"""Log-bucketed latency histograms with per-bucket exemplars.

The point sketch in :mod:`repro.serve.metrics` (p50/p90/p99 over a
sliding window) answers "how slow is it right now"; it cannot answer
"how is the *tail shaped*" or "show me one request from the bad
bucket".  This module adds both:

* :class:`LatencyHistogram` — fixed log-spaced bucket bounds (each
  bound 2x the previous, so 14 buckets span 0.25 ms to 2 s), counting
  every observation forever (Prometheus-counter semantics, so scrape
  deltas work) plus a running sum;
* **exemplars** — each bucket remembers the most recent observation
  that landed in it *with its trace ID*, so a scrape of a bad tail
  bucket links straight to a renderable trace (``/debug/trace/<id>``).

Snapshots use cumulative ``le`` bucket counts — exactly the
Prometheus ``_bucket`` convention — and are rendered to text
exposition by :mod:`repro.obs.prometheus` (exemplars in OpenMetrics
``# {trace_id="..."} value`` syntax).  ``merge_histogram_snapshots``
gives the cluster aggregator an exact cross-replica sum when bounds
match (they do by default — the bounds are part of the module, not
per-process configuration).
"""

from __future__ import annotations

import math
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence

from repro.errors import ServeError

#: Default bucket upper bounds in milliseconds: a log ladder (x2 per
#: rung) from sub-millisecond cache hits to multi-second stragglers.
#: ``+Inf`` is implicit, as in Prometheus.
DEFAULT_BUCKET_BOUNDS_MS = (
    0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0,
    64.0, 128.0, 256.0, 512.0, 1024.0, 2048.0,
)

#: Snapshot spelling of the overflow bucket's bound.
INF_LE = "+Inf"


def format_le(bound: float) -> str:
    """Canonical string form of a bucket bound (``0.25``, ``16``, ...)."""
    if math.isinf(bound):
        return INF_LE
    if bound == int(bound):
        return str(int(bound))
    return format(bound, "g")


class LatencyHistogram:
    """Thread-safe log-bucketed histogram with per-bucket exemplars.

    Parameters
    ----------
    bounds_ms:
        Ascending finite bucket upper bounds in milliseconds
        (``+Inf`` is appended implicitly).
    clock:
        Wall-clock source stamped on exemplars (injectable for tests).
    """

    def __init__(self, bounds_ms: Sequence[float] = DEFAULT_BUCKET_BOUNDS_MS,
                 *, clock: Callable[[], float] = time.time) -> None:
        bounds = [float(bound) for bound in bounds_ms]
        if not bounds:
            raise ServeError("histogram needs at least one bucket bound")
        if any(not math.isfinite(bound) for bound in bounds):
            raise ServeError("histogram bounds must be finite (+Inf is implicit)")
        if any(later <= earlier for earlier, later in zip(bounds, bounds[1:])):
            raise ServeError("histogram bounds must be strictly ascending")
        self.bounds_ms = tuple(bounds)
        self._clock = clock
        self._lock = threading.Lock()
        # One slot per finite bound plus the overflow bucket.
        self._counts = [0] * (len(bounds) + 1)
        self._exemplars: List[Optional[dict]] = [None] * (len(bounds) + 1)
        self._sum_ms = 0.0
        self._count = 0

    def _bucket_index(self, value_ms: float) -> int:
        # Linear scan: the ladder is ~14 rungs and observations cluster
        # in the first few; a bisect would not buy anything measurable.
        for index, bound in enumerate(self.bounds_ms):
            if value_ms <= bound:
                return index
        return len(self.bounds_ms)

    def observe(self, value_ms: float,
                trace_id: Optional[str] = None) -> None:
        """Count one observation; *trace_id* becomes the bucket's exemplar."""
        value_ms = float(value_ms)
        if value_ms < 0.0 or not math.isfinite(value_ms):
            value_ms = 0.0
        index = self._bucket_index(value_ms)
        with self._lock:
            self._counts[index] += 1
            self._sum_ms += value_ms
            self._count += 1
            if trace_id is not None:
                self._exemplars[index] = {
                    "trace_id": str(trace_id),
                    "value_ms": value_ms,
                    "timestamp": self._clock(),
                }

    def snapshot(self) -> dict:
        """JSON-ready cumulative-``le`` rendering (Prometheus shape).

        ``buckets`` is a list of ``{"le", "count", "exemplar"}`` with
        *cumulative* counts (each bucket includes everything below it,
        the ``_bucket`` convention); ``exemplar`` is the most recent
        observation that landed in that bucket's raw range, or absent.
        """
        with self._lock:
            counts = list(self._counts)
            exemplars = list(self._exemplars)
            total, sum_ms = self._count, self._sum_ms
        buckets = []
        running = 0
        for index, bound in enumerate(self.bounds_ms):
            running += counts[index]
            bucket = {"le": format_le(bound), "count": running}
            if exemplars[index] is not None:
                bucket["exemplar"] = dict(exemplars[index])
            buckets.append(bucket)
        overflow = {"le": INF_LE, "count": running + counts[-1]}
        if exemplars[-1] is not None:
            overflow["exemplar"] = dict(exemplars[-1])
        buckets.append(overflow)
        return {"buckets": buckets, "count": total,
                "sum_ms": round(sum_ms, 6)}


def is_histogram_snapshot(value) -> bool:
    """True when *value* looks like a :meth:`LatencyHistogram.snapshot`."""
    return (isinstance(value, dict)
            and isinstance(value.get("buckets"), list)
            and all(isinstance(bucket, dict) and "le" in bucket
                    for bucket in value["buckets"]))


def merge_histogram_snapshots(target: dict, source: dict) -> dict:
    """Merge *source* into *target* in place (cumulative counts sum).

    Buckets pair up by their ``le`` bound; mismatched ladders raise
    (every process in this codebase shares
    :data:`DEFAULT_BUCKET_BOUNDS_MS`, so a mismatch is a version skew
    worth surfacing, not papering over).  Exemplars keep whichever
    observation is newer.
    """
    if not target:
        target.update({"buckets": [dict(bucket)
                                   for bucket in source.get("buckets", [])],
                       "count": source.get("count", 0),
                       "sum_ms": source.get("sum_ms", 0.0)})
        return target
    ours = target.get("buckets", [])
    theirs = source.get("buckets", [])
    if [bucket.get("le") for bucket in ours] != \
            [bucket.get("le") for bucket in theirs]:
        raise ServeError("cannot merge histograms with different bucket bounds")
    for mine, other in zip(ours, theirs):
        mine["count"] = mine.get("count", 0) + other.get("count", 0)
        other_exemplar = other.get("exemplar")
        if other_exemplar is not None:
            mine_exemplar = mine.get("exemplar")
            if (mine_exemplar is None
                    or other_exemplar.get("timestamp", 0.0)
                    >= mine_exemplar.get("timestamp", 0.0)):
                mine["exemplar"] = dict(other_exemplar)
    target["count"] = target.get("count", 0) + source.get("count", 0)
    target["sum_ms"] = round(
        target.get("sum_ms", 0.0) + source.get("sum_ms", 0.0), 6
    )
    return target


class StageHistograms:
    """A named family of :class:`LatencyHistogram`, one per stage.

    Thread-safe lazy creation so the serving tracer can fold any span
    vocabulary (including job stages like ``generation``) without
    pre-registration.
    """

    def __init__(self, bounds_ms: Sequence[float] = DEFAULT_BUCKET_BOUNDS_MS,
                 *, clock: Callable[[], float] = time.time) -> None:
        self._bounds = tuple(bounds_ms)
        self._clock = clock
        self._lock = threading.Lock()
        self._histograms: Dict[str, LatencyHistogram] = {}

    def observe(self, stage: str, value_ms: float,
                trace_id: Optional[str] = None) -> None:
        with self._lock:
            histogram = self._histograms.get(stage)
            if histogram is None:
                histogram = self._histograms[stage] = LatencyHistogram(
                    self._bounds, clock=self._clock
                )
        histogram.observe(value_ms, trace_id)

    def snapshot(self) -> Dict[str, dict]:
        with self._lock:
            histograms = dict(self._histograms)
        return {stage: histogram.snapshot()
                for stage, histogram in sorted(histograms.items())}
