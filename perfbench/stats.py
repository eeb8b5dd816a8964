"""The benchmark's own arithmetic: percentiles, schedules, lateness, ledger.

Everything here is pure (no clocks, no sockets) so the unit tests in
``test_stats.py`` can pin it down exactly.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Sequence

#: A tail percentile is reported only when at least this many samples
#: lie beyond it; with fewer, one outlier decides the number.
MIN_BEYOND = 10

#: The tail percentile every latency metric reports.  A 30 s run yields
#: 300-1400 samples per workload: enough for p95 (>= 200 samples)
#: everywhere, but not for p99 (>= 1000) on every workload.
TAIL = 0.95

#: Candidate percentiles for :func:`highest_supported`, highest first.
LADDER = (0.999, 0.99, 0.98, 0.95, 0.90, 0.75, 0.50)


def beyond(n: int, q: float) -> int:
    """How many of *n* sorted samples lie strictly above the nearest-rank
    *q*-quantile (the one at 1-based rank ``ceil(q * n)``)."""
    return n - max(1, math.ceil(q * n)) if n else 0


def supported(n: int, q: float) -> bool:
    """True when *n* samples leave at least :data:`MIN_BEYOND` beyond *q*."""
    return beyond(n, q) >= MIN_BEYOND


def highest_supported(n: int) -> Optional[float]:
    """The highest :data:`LADDER` percentile *n* samples support, or None."""
    for q in LADDER:
        if supported(n, q):
            return q
    return None


def quantile(values: Iterable[float], q: float) -> float:
    """Nearest-rank quantile: the sample at 1-based rank ``ceil(q * n)``.

    Always an observed value, never an interpolation: the convention of
    the server's own ``/metrics`` percentiles, kept here rather than
    imported so that a change to the server cannot change how the
    benchmark scores it.
    """
    ordered = sorted(values)
    if not ordered:
        raise ValueError("quantile of no samples")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile fraction must be in [0, 1], got {q!r}")
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def tail(values: Sequence[float], q: float = TAIL) -> float:
    """The *q*-quantile, refusing a sample too small to support it."""
    if not supported(len(values), q):
        raise ValueError(
            f"p{100 * q:g} needs {MIN_BEYOND} samples beyond it; "
            f"{len(values)} samples leave {beyond(len(values), q)}"
        )
    return quantile(values, q)


def open_loop_schedule(rate: float, seconds: float) -> List[float]:
    """Due offsets (seconds from the start) of a fixed-rate open loop."""
    if rate <= 0.0 or seconds <= 0.0:
        raise ValueError("rate and seconds must be positive")
    return [i / rate for i in range(int(math.floor(rate * seconds)))]


def lateness(records: Sequence[dict], *,
             from_send: bool = False) -> Dict[str, List[float]]:
    """Split each request's time into what the generator and the server cost.

    Each record holds monotonic stamps ``due`` (when the request should
    have gone out), ``free`` (when a connection became free to carry it),
    ``sent`` and ``done``.  Returns lists, in seconds:

    * ``latency`` — ``done - due``: what a user arriving on schedule saw
      (an open loop); ``done - sent`` with *from_send* (a closed loop,
      whose next request is not due until this one returns);
    * ``lag`` — ``sent - due``: how late the request went out, for any
      reason (including waiting for a busy connection);
    * ``self_lag`` — ``sent - max(due, free)``: the part of the lag the
      generator itself caused (oversleeping, its own CPU), which marks a
      run whose generator, not the server, was the bottleneck.
    """
    out: Dict[str, List[float]] = {"latency": [], "lag": [], "self_lag": []}
    for record in records:
        due, sent = record["due"], record["sent"]
        out["latency"].append(record["done"] - (sent if from_send else due))
        out["lag"].append(sent - due)
        out["self_lag"].append(sent - max(due, record["free"]))
    return out


def unattributed_frac(layer_ms: Dict[str, float], end_to_end_ms: float) -> float:
    """``1 - sum(layers) / end_to_end``: the share no named layer explains.

    Negative when the layers over-explain the whole (they were timed in
    isolation and overlap, or the end-to-end sample was unusually fast).
    """
    if end_to_end_ms <= 0.0:
        raise ValueError("end-to-end time must be positive")
    return 1.0 - sum(layer_ms.values()) / end_to_end_ms
