"""Genome-keyed LRU cache of serialized analysis responses.

Keys come from :meth:`repro.core.api.AnalyzeRequest.cache_key` — a
digest of the discretized geometry plus the flow and solver
configuration — so two requests hit the same entry exactly when they
would compute the same record.  Values are the wire-format response
dicts, which are never mutated after insertion.

The counters feed the service's ``/metrics`` endpoint, which exports
them as Prometheus counters, so they only ever rise.  :meth:`get`
counts a lookup as it happens.  The service counts each request once
instead, when its outcome is known: it looks up with the uncounted
:meth:`lookup` and then calls :meth:`record` — a hit when the request
was answered without a solve of its own (at admission, at the worker's
re-check, or by a batchmate's solve), a miss when it was solved, shed,
expired, dropped as cancelled or failed.  So ``hits + misses`` is the
number of finished requests however a burst splits into batches; a
request still in flight is in neither.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Optional

from repro.errors import ServeError


class ResultCache:
    """A thread-safe LRU mapping of cache keys to response records.

    Parameters
    ----------
    capacity:
        Maximum number of retained entries.  ``0`` disables caching
        (every lookup misses, nothing is stored).
    """

    def __init__(self, capacity: int = 1024) -> None:
        capacity = int(capacity)
        if capacity < 0:
            raise ServeError(f"cache capacity cannot be negative, got {capacity}")
        self._capacity = capacity
        self._entries: "OrderedDict[str, dict]" = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    @property
    def capacity(self) -> int:
        """Maximum number of entries retained."""
        return self._capacity

    @property
    def hits(self) -> int:
        """Counted lookups that returned a value, plus requests recorded
        as answered without a solve of their own."""
        with self._lock:
            return self._hits

    @property
    def misses(self) -> int:
        """Counted lookups that returned ``None``, plus requests recorded
        as solved, shed, expired, dropped or failed."""
        with self._lock:
            return self._misses

    @property
    def evictions(self) -> int:
        """Number of entries displaced by the LRU policy."""
        with self._lock:
            return self._evictions

    @property
    def hit_rate(self) -> float:
        """``hits / (hits + misses)``; 0.0 before any lookup.

        Numerator and denominator come from one locked snapshot — an
        unlocked read could pair a pre-lookup ``hits`` with a
        post-lookup ``misses`` and report a rate no counter state ever
        had (including one slightly above 1.0).
        """
        with self._lock:
            total = self._hits + self._misses
            return self._hits / total if total else 0.0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: str) -> Optional[dict]:
        """Counted lookup: refreshes recency and updates hit/miss."""
        with self._lock:
            value = self._entries.get(key)
            if value is None:
                self._misses += 1
                return None
            self._entries.move_to_end(key)
            self._hits += 1
            return value

    def lookup(self, key: str) -> Optional[dict]:
        """Uncounted lookup that refreshes recency; the caller counts
        the request's outcome with :meth:`record` once it is known."""
        with self._lock:
            value = self._entries.get(key)
            if value is not None:
                self._entries.move_to_end(key)
            return value

    def record(self, hit: bool) -> None:
        """Count one request's lookup as a hit or a miss."""
        with self._lock:
            if hit:
                self._hits += 1
            else:
                self._misses += 1

    def peek(self, key: str) -> Optional[dict]:
        """Uncounted lookup: no recency refresh, no counter updates."""
        with self._lock:
            return self._entries.get(key)

    def put(self, key: str, value: dict) -> None:
        """Insert (or refresh) an entry, evicting the LRU tail."""
        with self._lock:
            if self._capacity == 0:
                return
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self._capacity:
                self._entries.popitem(last=False)
                self._evictions += 1

    def clear(self) -> None:
        """Drop every entry (counters are retained)."""
        with self._lock:
            self._entries.clear()

    def stats(self) -> dict:
        """Counter snapshot for the metrics endpoint."""
        with self._lock:
            total = self._hits + self._misses
            return {
                "capacity": self._capacity,
                "size": len(self._entries),
                "hits": self._hits,
                "misses": self._misses,
                "evictions": self._evictions,
                "hit_rate": self._hits / total if total else 0.0,
            }
