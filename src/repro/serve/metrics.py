"""Serving-side accounting, in the spirit of :mod:`repro.pipeline.metrics`.

Where the pipeline module reduces a simulated timeline to the paper's
W/A/L/O numbers, this one reduces the live request path to the numbers
an operator tunes against: admission and shedding counts, micro-batch
and solve-stack size histograms, and a latency quantile sketch.
Everything is cheap enough to update under one lock on every request.
"""

from __future__ import annotations

import math
import threading
import time
from collections import Counter, deque
from typing import Optional

from repro.obs.histogram import LatencyHistogram


def percentile(sorted_values, fraction: float) -> Optional[float]:
    """Nearest-rank percentile of an ascending sequence (None if empty).

    Nearest-rank convention: the p-th percentile of ``n`` values is the
    value at (1-based) rank ``ceil(p * n)`` — an actually-observed
    sample, never an interpolation, so ``p100`` is the max and ``p50``
    of a single sample is that sample.  This matches what scrapers see
    in ``/metrics`` (``latency_ms.p50/p90/p99``).

    ``fraction`` must lie in ``[0.0, 1.0]``; ``0.0`` returns the true
    minimum and ``1.0`` the true maximum.  Out-of-range fractions raise
    :class:`ValueError` instead of silently clamping — a typo'd ``1.5``
    must not masquerade as the max.
    """
    if not (0.0 <= fraction <= 1.0):
        raise ValueError(
            f"percentile fraction must be in [0.0, 1.0], got {fraction!r}"
        )
    if not sorted_values:
        return None
    rank = max(0, math.ceil(fraction * len(sorted_values)) - 1)
    return sorted_values[min(rank, len(sorted_values) - 1)]


class ServiceMetrics:
    """Thread-safe counters for one :class:`~repro.serve.AnalysisService`.

    Parameters
    ----------
    latency_window:
        Number of most-recent request latencies retained for the
        p50/p99 estimates (a sliding window, so quantiles track the
        current load rather than the whole process lifetime).
    """

    def __init__(self, latency_window: int = 4096) -> None:
        self._lock = threading.Lock()
        self._started_at = time.time()
        self._started_monotonic = time.monotonic()
        self._snapshot_seq = 0
        self._accounting_drift = 0
        self._accounting_drift_worst = 0
        self._admitted = 0
        self._completed = 0
        self._failed = 0
        self._shed = 0
        self._expired = 0
        self._cancelled = 0
        self._flushes = 0
        self._solves = 0
        self._solved_systems = 0
        self._batch_sizes: Counter = Counter()
        self._stack_sizes: Counter = Counter()
        self._latencies: deque = deque(maxlen=int(latency_window))
        # Log-bucketed tail shape with exemplar trace ids — the point
        # quantiles above answer "how slow", this answers "show me one".
        self.latency_histogram = LatencyHistogram()

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def record_admitted(self) -> None:
        """One request accepted (served from cache or enqueued)."""
        with self._lock:
            self._admitted += 1

    def record_shed(self) -> None:
        """One request rejected by admission control."""
        with self._lock:
            self._shed += 1

    def record_completed(self, latency_seconds: float,
                         trace_id: Optional[str] = None) -> None:
        """One request resolved successfully."""
        with self._lock:
            self._completed += 1
            self._latencies.append(float(latency_seconds))
        self.latency_histogram.observe(1e3 * float(latency_seconds), trace_id)

    def record_failed(self, latency_seconds: float,
                      trace_id: Optional[str] = None) -> None:
        """One request resolved with an error."""
        with self._lock:
            self._failed += 1
            self._latencies.append(float(latency_seconds))
        self.latency_histogram.observe(1e3 * float(latency_seconds), trace_id)

    def record_expired(self) -> None:
        """One admitted request dropped because its deadline passed.

        Expired requests are shed at batch collection, before any
        solve, so their queue time is deliberately kept out of the
        latency window — it would describe dead work, not service.
        """
        with self._lock:
            self._expired += 1

    def record_cancelled(self) -> None:
        """One admitted request whose submitter detached before delivery."""
        with self._lock:
            self._cancelled += 1

    def record_flush(self, n_requests: int) -> None:
        """One micro-batch handed to a worker (size = coalesced requests)."""
        with self._lock:
            self._flushes += 1
            self._batch_sizes[int(n_requests)] += 1

    def record_solve(self, stack_size: int) -> None:
        """One batched LU call over ``stack_size`` unique systems."""
        with self._lock:
            self._solves += 1
            self._solved_systems += int(stack_size)
            self._stack_sizes[int(stack_size)] += 1

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    @property
    def batched_solves(self) -> int:
        """Number of batched LU calls issued so far."""
        with self._lock:
            return self._solves

    def snapshot(self, *, queue_depth: int = 0, cache_stats: dict = None) -> dict:
        """One JSON-ready snapshot of every counter.

        ``queue_depth`` and ``cache_stats`` are sampled by the caller
        (they live on the pool and the cache respectively) and merged
        here so ``/metrics`` is a single document.

        Scraper affordances: ``started_at`` (unix seconds) and the
        monotonically increasing ``snapshot_seq`` let a scraper detect
        restarts (``started_at`` changed) and stale scrapes
        (``snapshot_seq`` did not advance); ``uptime_seconds`` comes
        from the monotonic clock, immune to wall-clock steps.  Latency
        quantiles use the nearest-rank convention (see
        :func:`percentile`).

        ``requests.in_flight`` is derived from counters recorded on
        different threads, so a transient negative is possible mid-race
        — and a *persistent* negative means an accounting bug.  The
        value stays clamped at 0, but every snapshot that observes a
        negative raw value increments ``requests.accounting_drift``
        (with the worst magnitude in ``accounting_drift_worst``), so
        bugs surface in ``/metrics`` instead of being hidden by the
        clamp.
        """
        with self._lock:
            self._snapshot_seq += 1
            latencies = sorted(self._latencies)
            in_flight = (self._admitted - self._completed - self._failed
                         - self._expired - self._cancelled)
            if in_flight < 0:
                self._accounting_drift += 1
                self._accounting_drift_worst = max(
                    self._accounting_drift_worst, -in_flight
                )
            snapshot = {
                "started_at": self._started_at,
                "uptime_seconds": time.monotonic() - self._started_monotonic,
                "snapshot_seq": self._snapshot_seq,
                "requests": {
                    "admitted": self._admitted,
                    "completed": self._completed,
                    "failed": self._failed,
                    "shed": self._shed,
                    "expired": self._expired,
                    "cancelled": self._cancelled,
                    "in_flight": max(0, in_flight),
                    "accounting_drift": self._accounting_drift,
                    "accounting_drift_worst": self._accounting_drift_worst,
                },
                "queue_depth": int(queue_depth),
                "batching": {
                    "flushes": self._flushes,
                    "batched_solves": self._solves,
                    "solved_systems": self._solved_systems,
                    "max_batch": max(self._batch_sizes) if self._batch_sizes else 0,
                    "batch_size_histogram": {
                        str(size): count
                        for size, count in sorted(self._batch_sizes.items())
                    },
                    "stack_size_histogram": {
                        str(size): count
                        for size, count in sorted(self._stack_sizes.items())
                    },
                },
                "latency_ms": {
                    "count": len(latencies),
                    "mean": (1e3 * sum(latencies) / len(latencies)
                             if latencies else None),
                    "p50": _ms(percentile(latencies, 0.50)),
                    "p90": _ms(percentile(latencies, 0.90)),
                    "p99": _ms(percentile(latencies, 0.99)),
                    "max": _ms(latencies[-1] if latencies else None),
                },
                "latency_hist_ms": self.latency_histogram.snapshot(),
            }
        if cache_stats is not None:
            snapshot["cache"] = dict(cache_stats)
        return snapshot


def _ms(seconds: Optional[float]) -> Optional[float]:
    return None if seconds is None else 1e3 * seconds
