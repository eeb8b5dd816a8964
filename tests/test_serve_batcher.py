"""Tests for micro-batch collection: the queue-draining rule."""

import queue
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ServeError
from repro.serve import (
    MAX_BATCH_CEILING,
    AnalysisService,
    WorkerPool,
    collect_batch,
    validate_max_batch,
)
from tests.test_serve_lifecycle import _GatedService


class TestBatchPolicy:
    """The batching policy is one validated ``max_batch``."""

    def test_validation(self):
        with pytest.raises(ServeError):
            validate_max_batch(0)
        with pytest.raises(ServeError):
            validate_max_batch(-3)
        with pytest.raises(ServeError):
            WorkerPool(lambda items: None, max_batch=0)

    def test_coerces_types(self):
        assert validate_max_batch(8.0) == 8
        assert type(validate_max_batch(8.0)) is int

    def test_rejects_fractional_max_batch(self):
        # Regression: 2.7 used to be silently truncated to 2, flushing
        # smaller batches than configured with no error anywhere.
        with pytest.raises(ServeError, match="integer"):
            validate_max_batch(2.7)
        with pytest.raises(ServeError, match="integer"):
            AnalysisService(max_batch=2.7)

    def test_rejects_non_numeric_max_batch(self):
        with pytest.raises(ServeError, match="integer"):
            validate_max_batch("eight")

    def test_default_is_the_ceiling(self):
        with AnalysisService() as service:
            assert service.max_batch == MAX_BATCH_CEILING == 64


class TestCollectBatch:
    def test_max_batch_path_flushes_without_waiting(self):
        source = queue.Queue()
        for index in range(10):
            source.put(index)
        first = source.get()
        start = time.monotonic()
        items, saw = collect_batch(source, first, 4)
        elapsed = time.monotonic() - start
        assert items == [0, 1, 2, 3] and not saw
        assert elapsed < 1.0
        assert source.qsize() == 6

    def test_zero_wait_still_drains_backlog(self):
        source = queue.Queue()
        for index in range(5):
            source.put(index)
        first = source.get()
        items, saw = collect_batch(source, first, 100)
        assert items == [0, 1, 2, 3, 4] and not saw

    def test_sentinel_is_pushed_back(self):
        sentinel = object()
        source = queue.Queue()
        source.put("b")
        source.put(sentinel)
        items, saw = collect_batch(source, "a", 10,
                                   sentinel=sentinel)
        assert items == ["a", "b"] and saw
        # Re-queued so sibling workers observe the shutdown too.  (In
        # real use the sentinel is always last: admissions stop before
        # shutdown enqueues it.)
        assert source.get_nowait() is sentinel


class _NonBlockingQueue(queue.Queue):
    """A queue that fails any blocking read: draining must never wait."""

    def get(self, block=True, timeout=None):
        assert not block, "collect_batch waited on the queue"
        return super().get(block=False)


_ENTRY = st.sampled_from(["live", "dead"])


class TestDrainRule:
    @given(first=_ENTRY, queued=st.lists(_ENTRY, max_size=20),
           sentinel_at=st.none() | st.integers(0, 20),
           max_batch=st.integers(1, 8))
    @settings(max_examples=150, deadline=None)
    def test_property_batch_is_first_plus_queued_live_items(
            self, first, queued, sentinel_at, max_batch):
        """For any queue contents, drop predicate and max_batch: the
        batch is the first item plus the next live items in FIFO order,
        up to max_batch; dropped items are notified and not counted;
        the sentinel is pushed back; and no read ever blocks, so an
        empty queue returns at once."""
        sentinel = object()
        head = (0, first)
        contents = [(index + 1, kind) for index, kind in enumerate(queued)]
        if sentinel_at is not None:
            contents.insert(min(sentinel_at, len(contents)), sentinel)
        source = _NonBlockingQueue()
        for entry in contents:
            source.put(entry)
        dropped, admitted = [], []

        def drop(entry):
            if entry[1] == "dead":
                dropped.append(entry)
                return True
            return False

        items, saw = collect_batch(source, head, max_batch,
                                   sentinel=sentinel, drop=drop,
                                   on_admit=admitted.append)

        want_items, want_dropped, want_saw, taken = [], [], False, 0
        for position, entry in enumerate([head] + contents):
            if position:
                if len(want_items) == max_batch:
                    break
                taken += 1
                if entry is sentinel:
                    want_saw = True
                    break
            (want_dropped if entry[1] == "dead" else want_items).append(entry)
        assert items == want_items == admitted
        assert dropped == want_dropped
        assert saw is want_saw
        rest = contents[taken:] + ([sentinel] if want_saw else [])
        assert [source.get_nowait() for _ in range(source.qsize())] == rest

    def test_idle_service_does_not_hold_a_lone_request(self):
        """Regression: an idle default service used to hold a lone
        request for a 50 ms flush window waiting for batchmates."""
        with AnalysisService() as service:
            service.analyze({"airfoil": "2412", "alpha_degrees": 4.0,
                             "n_panels": 200})
            deadline = time.monotonic() + 5.0
            while not service.recent_traces() and time.monotonic() < deadline:
                time.sleep(0.001)
            (trace,) = service.recent_traces()
            assert trace.annotations["cache_hit"] is False
            assert trace.stage_seconds()["batch_collect"] < 5e-3

    def test_requests_queued_behind_a_busy_worker_share_one_stack(self):
        k = 5
        service = _GatedService(cache_size=0, n_workers=1)
        try:
            blocker = service.submit({"airfoil": "0012", "reynolds": None,
                                      "n_panels": 60})
            assert service.parked.wait(10.0)
            pendings = [service.submit({"airfoil": "2412",
                                        "alpha_degrees": float(index),
                                        "reynolds": None, "n_panels": 60})
                        for index in range(k)]
            service.gate.set()
            for pending in [blocker] + pendings:
                pending.result(timeout=10.0)
            batching = service.metrics_snapshot()["batching"]
            assert batching["batch_size_histogram"] == {"1": 1, str(k): 1}
            assert batching["stack_size_histogram"] == {"1": 1, str(k): 1}
        finally:
            service.gate.set()
            assert service.close(timeout=10.0)


class TestCollectBatchDrop:
    def test_dropped_items_are_excluded_and_notified(self):
        source = queue.Queue()
        for value in (1, -2, 3, -4, 5):
            source.put(value)
        first = source.get()
        dropped = []

        def drop(item):
            if item < 0:
                dropped.append(item)
                return True
            return False

        items, saw = collect_batch(source, first, 10,
                                   drop=drop)
        assert items == [1, 3, 5] and not saw
        assert dropped == [-2, -4]

    def test_first_item_can_be_dropped(self):
        source = queue.Queue()
        source.put("live")
        items, saw = collect_batch(source, "dead", 4,
                                   drop=lambda item: item == "dead")
        assert items == ["live"] and not saw

    def test_all_dropped_returns_empty_batch(self):
        source = queue.Queue()
        source.put("dead")
        items, saw = collect_batch(source, "dead", 4,
                                   drop=lambda item: True)
        assert items == [] and not saw

    def test_dropped_items_do_not_consume_batch_slots(self):
        """Dead work must not displace live work: with max_batch=2 and
        expired items interleaved, the batch still fills with live ones."""
        source = queue.Queue()
        for value in ("dead", "live-1", "dead", "live-2"):
            source.put(value)
        first = source.get()
        items, _ = collect_batch(source, first, 2,
                                 drop=lambda item: item == "dead")
        assert items == ["live-1", "live-2"]

    def test_sentinel_still_observed_while_dropping(self):
        sentinel = object()
        source = queue.Queue()
        source.put("dead")
        source.put(sentinel)
        items, saw = collect_batch(source, "live", 10,
                                   sentinel=sentinel,
                                   drop=lambda item: item == "dead")
        assert items == ["live"] and saw
        assert source.get_nowait() is sentinel

    @given(expired=st.lists(st.booleans(), min_size=1, max_size=30),
           max_batch=st.integers(1, 8))
    @settings(max_examples=80, deadline=None)
    def test_property_zero_wait_with_expired_items(self, expired, max_batch):
        """With a pre-filled backlog of (index, expired) items: no
        expired item is ever batched, live items keep FIFO order, and
        the batch never exceeds max_batch live items."""
        backlog = list(enumerate(expired))
        source = queue.Queue()
        for entry in backlog[1:]:
            source.put(entry)
        dropped = []

        def drop(entry):
            if entry[1]:
                dropped.append(entry)
                return True
            return False

        items, saw = collect_batch(source, backlog[0], max_batch,
                                   drop=drop)
        assert not saw
        assert all(not is_expired for _, is_expired in items)
        assert len(items) <= max_batch
        live = [entry for entry in backlog if not entry[1]]
        assert items == live[:len(items)]  # FIFO order, no skips
        # Everything examined was either batched or dropped; nothing
        # vanished.  (The scan stops once the batch is full.)
        examined = len(items) + len(dropped) + source.qsize()
        assert examined == len(backlog)
        if len(items) < max_batch:  # backlog exhausted without filling up
            assert items == live
            assert dropped == [entry for entry in backlog if entry[1]]
