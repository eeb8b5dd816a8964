"""Tests for the genome-keyed LRU result cache."""

import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.api as api
import repro.serve.service as service_module
from repro.core.api import AnalyzeRequest, canonical_json, serialize_analysis
from repro.errors import (
    DeadlineExceededError,
    GeometryError,
    OverloadedError,
    ServeError,
)
from repro.serve import AnalysisService, ResultCache
from tests.test_serve_lifecycle import _GatedService


class TestLRUPolicy:
    def test_evicts_least_recently_used(self):
        cache = ResultCache(capacity=2)
        cache.put("a", {"v": 1})
        cache.put("b", {"v": 2})
        assert cache.get("a") == {"v": 1}  # refreshes 'a'
        cache.put("c", {"v": 3})  # displaces 'b', the LRU entry
        assert cache.peek("b") is None
        assert cache.peek("a") == {"v": 1}
        assert cache.peek("c") == {"v": 3}
        assert cache.evictions == 1

    def test_put_refreshes_recency(self):
        cache = ResultCache(capacity=2)
        cache.put("a", {"v": 1})
        cache.put("b", {"v": 2})
        cache.put("a", {"v": 10})  # re-put refreshes and replaces
        cache.put("c", {"v": 3})
        assert cache.peek("b") is None
        assert cache.peek("a") == {"v": 10}

    def test_len_tracks_entries(self):
        cache = ResultCache(capacity=3)
        for index in range(5):
            cache.put(str(index), {"v": index})
        assert len(cache) == 3


class TestCounters:
    def test_hit_and_miss_counting(self):
        cache = ResultCache(capacity=4)
        assert cache.get("missing") is None
        cache.put("k", {"v": 1})
        assert cache.get("k") == {"v": 1}
        assert cache.get("k") == {"v": 1}
        assert (cache.hits, cache.misses) == (2, 1)
        assert cache.hit_rate == pytest.approx(2 / 3)

    def test_peek_is_uncounted(self):
        cache = ResultCache(capacity=4)
        cache.put("k", {"v": 1})
        cache.peek("k")
        cache.peek("missing")
        assert (cache.hits, cache.misses) == (0, 0)

    def test_lookup_is_uncounted_and_record_counts_once(self):
        cache = ResultCache(capacity=2)
        cache.put("a", {"v": 1})
        cache.put("b", {"v": 2})
        assert cache.lookup("a") == {"v": 1}  # refreshes 'a'
        assert cache.lookup("missing") is None
        assert (cache.hits, cache.misses) == (0, 0)
        cache.put("c", {"v": 3})  # displaces 'b', the LRU entry
        assert cache.peek("b") is None
        cache.record(True)
        cache.record(False)
        cache.record(False)
        assert (cache.hits, cache.misses) == (1, 2)

    def test_stats_document(self):
        cache = ResultCache(capacity=4)
        cache.put("k", {"v": 1})
        cache.get("k")
        cache.get("nope")
        stats = cache.stats()
        assert stats == {"capacity": 4, "size": 1, "hits": 1, "misses": 1,
                         "evictions": 0, "hit_rate": 0.5}

    def test_hit_rate_before_any_lookup(self):
        assert ResultCache(capacity=4).hit_rate == 0.0


class TestEdgeCases:
    def test_zero_capacity_disables_caching(self):
        cache = ResultCache(capacity=0)
        cache.put("k", {"v": 1})
        assert cache.get("k") is None
        assert len(cache) == 0

    def test_negative_capacity_rejected(self):
        with pytest.raises(ServeError):
            ResultCache(capacity=-1)

    def test_clear_keeps_counters(self):
        cache = ResultCache(capacity=4)
        cache.put("k", {"v": 1})
        cache.get("k")
        cache.clear()
        assert len(cache) == 0
        assert cache.hits == 1


class _CountingLock:
    """Wraps the cache's lock to count context-manager acquisitions."""

    def __init__(self, inner):
        self._inner = inner
        self.acquisitions = 0

    def __enter__(self):
        self.acquisitions += 1
        return self._inner.__enter__()

    def __exit__(self, exc_type, exc, tb):
        return self._inner.__exit__(exc_type, exc, tb)


class TestCounterLocking:
    def test_counter_properties_read_under_the_lock(self):
        """Regression: hits/misses/evictions/hit_rate read the counters
        without the lock, so hit_rate could pair a pre-lookup numerator
        with a post-lookup denominator from a concurrent get()."""
        cache = ResultCache(capacity=4)
        cache.put("k", {"v": 1})
        cache.get("k")
        cache.get("absent")
        counting = _CountingLock(cache._lock)
        cache._lock = counting
        assert cache.hits == 1
        assert cache.misses == 1
        assert cache.evictions == 0
        assert cache.hit_rate == 0.5
        assert counting.acquisitions == 4  # one locked snapshot apiece


def _request(index):
    return {"airfoil": "0012", "alpha_degrees": float(index),
            "n_panels": 20, "reynolds": None}


class TestOneLookupPerRequest:
    """Each request counts one lookup: a hit when it is answered without
    a solve of its own, however a burst splits into batches."""

    def test_recheck_and_batchmate_hits_count_per_request(self):
        # The gated worker holds a batch of one A.  Meanwhile three more
        # A and two B queue up, missing at admission; the next batch
        # answers the A's from the cache at its re-check and the second
        # B from its batchmate's solve.  Two of six requests were solved.
        service = _GatedService(max_batch=8, cache_size=8, n_workers=1)
        try:
            pendings = [service.submit(_request(1))]
            assert service.parked.wait(10.0)
            pendings += [service.submit(_request(1)) for _ in range(3)]
            pendings += [service.submit(_request(2)) for _ in range(2)]
            service.gate.set()
            for pending in pendings:
                pending.result(timeout=10.0)
            stats = service.cache.stats()
            assert (stats["hits"], stats["misses"]) == (4, 2)
            assert service.metrics_snapshot()["batching"]["solved_systems"] == 2
        finally:
            service.gate.set()
            service.close()

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.one_of(st.integers(min_value=0, max_value=2),
                              st.just("batch")), max_size=16),
           st.sampled_from([0, 8]))
    def test_hits_plus_misses_is_requests_for_any_split(self, steps, capacity):
        """Requests are admitted in order; each ``"batch"`` step hands
        everything queued so far to the worker logic as one batch."""
        with AnalysisService(cache_size=capacity, n_workers=1) as service:
            queued = []
            service._pool.submit = lambda job, on_enqueue: (on_enqueue(),
                                                            queued.append(job))
            pendings = []
            for step in steps + ["batch"]:
                if step != "batch":
                    pendings.append(service.submit(_request(step)))
                elif queued:
                    service._process_batch(list(queued))
                    queued.clear()
            for pending in pendings:
                assert "cl" in pending.result(timeout=10.0)
            stats = service.cache.stats()
            solved = service.metrics_snapshot()["batching"]["solved_systems"]
            assert stats["hits"] + stats["misses"] == len(pendings)
            assert stats["hits"] == len(pendings) - solved

    def test_counters_never_fall_during_a_burst(self):
        """Prometheus exports hits and misses as counters, so a dip reads
        as a reset.  A sampler reads them throughout a burst of identical
        requests; the gated worker holds the first one so that the rest
        of the burst is admitted, and missed, before any solve."""
        service = _GatedService(max_batch=8, cache_size=8, n_workers=1)
        samples, lock, done = [], threading.Lock(), threading.Event()

        def sample():
            with lock:
                samples.append(service.cache.stats())

        def sampler():
            while not done.is_set():
                sample()
                time.sleep(0.0005)

        thread = threading.Thread(target=sampler)
        thread.start()
        try:
            pendings = [service.submit(_request(1))]
            assert service.parked.wait(10.0)
            pendings += [service.submit(_request(1)) for _ in range(15)]
            sample()
            service.gate.set()
            for pending in pendings:
                pending.result(timeout=10.0)
            sample()
        finally:
            done.set()
            thread.join()
            service.gate.set()
            service.close()
        for counter in ("hits", "misses"):
            series = [snapshot[counter] for snapshot in samples]
            assert series == sorted(series), counter
        assert (samples[-1]["hits"], samples[-1]["misses"]) == (15, 1)

    def test_dropped_and_shed_requests_count_as_misses(self):
        # The gated worker holds a solve; behind it one request is
        # cancelled by its submitter, one expires in the queue and one
        # is shed at admission.  None was answered from the cache.
        service = _GatedService(max_batch=1, cache_size=8, n_workers=1,
                                queue_limit=2)
        try:
            blocker = service.submit(_request(1))
            assert service.parked.wait(10.0)
            victim = service.submit(_request(2))
            expiring = service.submit(_request(3), deadline_ms=0.001)
            with pytest.raises(OverloadedError):
                service.submit(_request(4))
            assert victim.cancel()
            service.gate.set()
            blocker.result(timeout=10.0)
            with pytest.raises(DeadlineExceededError):
                expiring.result(timeout=10.0)
            deadline = time.monotonic() + 5.0
            while (service.cache.misses < 4
                   and time.monotonic() < deadline):
                time.sleep(0.01)
            stats = service.cache.stats()
            assert (stats["hits"], stats["misses"]) == (0, 4)
        finally:
            service.gate.set()
            service.close()

    def test_a_batch_that_raises_counts_each_request_once(self, monkeypatch):
        """Processing raises after the first of two groups was answered:
        the answered request stays completed, the other fails, and each
        counts one lookup."""
        real = service_module.serialize_analysis
        calls = []

        def flaky(request, outcome):
            calls.append(request)
            if len(calls) == 2:
                raise RuntimeError("serializer broke")
            return real(request, outcome)

        monkeypatch.setattr(service_module, "serialize_analysis", flaky)
        with AnalysisService(cache_size=8, n_workers=1) as service:
            queued = []
            service._pool.submit = lambda job, on_enqueue: (on_enqueue(),
                                                            queued.append(job))
            pendings = [service.submit(_request(index)) for index in (1, 2)]
            try:
                service._process_batch(list(queued))
            except RuntimeError as error:
                service._fail_batch(list(queued), error)
            assert "cl" in pendings[0].result(timeout=10.0)
            with pytest.raises(ServeError, match="serializer broke"):
                pendings[1].result(timeout=10.0)
            snapshot = service.metrics_snapshot()
            requests = snapshot["requests"]
            assert (requests["completed"], requests["failed"],
                    requests["cancelled"]) == (1, 1, 0)
            assert requests["accounting_drift"] == 0
            assert (snapshot["cache"]["hits"], snapshot["cache"]["misses"]) == (0, 2)


class TestKeyWithoutGeometry:
    """The cache key digests the request, so a hit builds no airfoil and
    a miss builds its airfoil once, at admission."""

    def test_a_section_with_an_equal_outline_gets_its_own_body(self):
        # "0012" and "0412" build byte-identical outlines; an outline key
        # answered the second with the first one's body ("NACA 0012").
        payload = {"n_panels": 60, "reynolds": None}
        with AnalysisService() as service:
            service.analyze({"airfoil": "0012", **payload})
            body = service.analyze({"airfoil": "0412", **payload})
        request = AnalyzeRequest(airfoil="0412", **payload)
        assert (canonical_json(body)
                == canonical_json(serialize_analysis(request, request.run())))
        assert body["airfoil"] == "NACA 0412"

    def test_a_miss_builds_once_and_a_hit_builds_nothing(self, monkeypatch):
        built = []
        real_naca = api.naca

        def counting_naca(*args, **kwargs):
            built.append(args)
            return real_naca(*args, **kwargs)

        monkeypatch.setattr(api, "naca", counting_naca)
        payload = {"airfoil": "2412", "n_panels": 40, "reynolds": 1e6}
        with AnalysisService() as service:
            first = service.analyze(dict(payload))
            assert len(built) == 1
            assert service.analyze(dict(payload)) == first
            assert len(built) == 1

    def test_an_invalid_designation_is_refused_before_admission(self):
        with AnalysisService() as service:
            with pytest.raises(GeometryError,
                               match="unsupported 5-digit camber code '123'"):
                service.submit({"airfoil": "12345", "n_panels": 40})
            requests = service.metrics_snapshot()["requests"]
            stats = service.cache.stats()
        assert requests["admitted"] == 0 and requests["in_flight"] == 0
        assert (stats["hits"], stats["misses"]) == (0, 0)
