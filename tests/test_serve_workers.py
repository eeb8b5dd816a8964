"""Tests for the worker pool: admission control, shedding, drain."""

import threading
import time

import pytest

from repro.errors import OverloadedError, ServeError
from repro.serve import PendingResult, WorkerPool


class TestPendingResult:
    def test_resolve(self):
        pending = PendingResult()
        pending.resolve({"v": 1})
        assert pending.done()
        assert pending.result(timeout=0.1) == {"v": 1}

    def test_fail_reraises_in_waiter(self):
        pending = PendingResult()
        pending.fail(ServeError("boom"))
        with pytest.raises(ServeError, match="boom"):
            pending.result(timeout=0.1)

    def test_first_write_wins(self):
        pending = PendingResult()
        pending.resolve("first")
        pending.fail(ServeError("late"))
        pending.resolve("late")
        assert pending.result(timeout=0.1) == "first"

    def test_timeout(self):
        with pytest.raises(ServeError, match="timed out"):
            PendingResult().result(timeout=0.01)

    def test_write_attempts_report_whether_they_won(self):
        pending = PendingResult()
        assert pending.resolve("first") is True
        assert pending.resolve("late") is False
        assert pending.fail(ServeError("late")) is False
        assert pending.cancel() is False

    def test_cancel_detaches_the_waiter(self):
        pending = PendingResult()
        assert pending.cancel() is True
        assert pending.cancelled and pending.done()
        assert pending.resolve("too late") is False
        assert pending.fail(ServeError("too late")) is False
        with pytest.raises(ServeError, match="cancelled"):
            pending.result(timeout=0.1)

    def test_cancel_loses_to_a_delivered_result(self):
        pending = PendingResult()
        pending.resolve({"v": 1})
        assert pending.cancel() is False
        assert not pending.cancelled
        assert pending.result(timeout=0.1) == {"v": 1}

    def test_each_waiter_gets_a_fresh_exception_instance(self):
        """Regression: one failed batch fans the same exception object
        out to every waiter; re-raising it concurrently in several
        threads garbles its traceback.  Each result() call must raise
        its own instance, chained to the original."""
        original = ValueError("shared failure")
        first, second = PendingResult(), PendingResult()
        first.fail(original)
        second.fail(original)
        with pytest.raises(ValueError, match="shared failure") as excinfo_a:
            first.result(timeout=0.1)
        with pytest.raises(ValueError, match="shared failure") as excinfo_b:
            second.result(timeout=0.1)
        assert excinfo_a.value is not original
        assert excinfo_b.value is not original
        assert excinfo_a.value is not excinfo_b.value
        assert excinfo_a.value.__cause__ is original
        assert excinfo_b.value.__cause__ is original

    def test_repeated_result_calls_each_get_fresh_instances(self):
        pending = PendingResult()
        pending.fail(ServeError("boom"))
        raised = []
        for _ in range(3):
            with pytest.raises(ServeError, match="boom") as excinfo:
                pending.result(timeout=0.1)
            raised.append(excinfo.value)
        assert len({id(error) for error in raised}) == 3

    def test_unreconstructible_exception_falls_back_to_serve_error(self):
        class Picky(Exception):
            def __init__(self, code, detail):
                super().__init__(f"{code}: {detail}")
                self.args = ()  # reconstruction via *args impossible

        original = Picky(42, "nope")
        pending = PendingResult()
        pending.fail(original)
        with pytest.raises(ServeError, match="Picky") as excinfo:
            pending.result(timeout=0.1)
        assert excinfo.value.__cause__ is original


class TestWorkerPool:
    def test_processes_everything_submitted(self):
        processed = []

        def process(items):
            processed.extend(items)
            for item in items:
                item.resolve(True)

        pool = WorkerPool(process, max_batch=4,
                          n_workers=2, queue_limit=32)
        pendings = [PendingResult() for _ in range(10)]
        for pending in pendings:
            pool.submit(pending)
        for pending in pendings:
            assert pending.result(timeout=5.0) is True
        assert pool.shutdown(timeout=5.0)
        assert sorted(map(id, processed)) == sorted(map(id, pendings))

    def test_sheds_when_queue_is_full(self):
        release = threading.Event()
        started = threading.Event()

        def process(items):
            started.set()
            release.wait(5.0)
            for item in items:
                item.resolve(True)

        pool = WorkerPool(process, max_batch=1,
                          n_workers=1, queue_limit=2)
        first = PendingResult()
        pool.submit(first)
        assert started.wait(5.0)  # worker is now stuck holding `first`
        queued = [PendingResult(), PendingResult()]
        for pending in queued:
            pool.submit(pending)
        with pytest.raises(OverloadedError):
            pool.submit(PendingResult())
        release.set()
        for pending in [first] + queued:
            assert pending.result(timeout=5.0) is True
        assert pool.shutdown(timeout=5.0)

    def test_graceful_drain_finishes_accepted_work(self):
        def process(items):
            time.sleep(0.01)
            for item in items:
                item.resolve(True)

        pool = WorkerPool(process, max_batch=2,
                          n_workers=1, queue_limit=64)
        pendings = [PendingResult() for _ in range(12)]
        for pending in pendings:
            pool.submit(pending)
        assert pool.shutdown(timeout=10.0)
        assert all(pending.done() for pending in pendings)
        with pytest.raises(ServeError):  # post-drain submissions refused
            pool.submit(PendingResult())

    def test_process_errors_go_to_handler_and_worker_survives(self):
        failures = []

        def process(items):
            if items[0] == "bad":
                raise ValueError("exploded")
            items[0].resolve(True)

        pool = WorkerPool(process, max_batch=1,
                          n_workers=1, queue_limit=8,
                          on_error=lambda items, error: failures.append(
                              (items, str(error))))
        pool.submit("bad")
        good = PendingResult()
        pool.submit(good)
        assert good.result(timeout=5.0) is True  # worker outlived the error
        assert failures == [(["bad"], "exploded")]
        assert pool.shutdown(timeout=5.0)

    def test_no_stray_threads_after_shutdown(self):
        baseline = threading.active_count()
        pool = WorkerPool(lambda items: None, n_workers=3, queue_limit=8)
        assert threading.active_count() == baseline + 3
        assert pool.shutdown(timeout=5.0)
        assert threading.active_count() == baseline

    def test_shutdown_is_idempotent(self):
        pool = WorkerPool(lambda items: None, n_workers=1, queue_limit=8)
        assert pool.shutdown(timeout=5.0)
        assert pool.shutdown(timeout=5.0)

    def test_constructor_validation(self):
        with pytest.raises(ServeError):
            WorkerPool(lambda items: None, n_workers=0)
        with pytest.raises(ServeError):
            WorkerPool(lambda items: None, queue_limit=0)

    def test_drop_predicate_sheds_items_before_processing(self):
        """Items the drop predicate rejects never reach process() and
        never occupy a batch slot."""
        release = threading.Event()
        started = threading.Event()
        batches = []

        def process(items):
            started.set()
            release.wait(5.0)
            batches.append(list(items))
            for item in items:
                item.resolve(True)

        pool = WorkerPool(process, max_batch=8,
                          n_workers=1, queue_limit=16,
                          drop=lambda pending: pending.cancelled)
        blocker = PendingResult()
        pool.submit(blocker)
        assert started.wait(5.0)  # worker is parked inside process()
        kept, dropped = PendingResult(), PendingResult()
        pool.submit(dropped)
        pool.submit(kept)
        assert dropped.cancel() is True  # submitter walks away while queued
        release.set()
        assert kept.result(timeout=5.0) is True
        assert pool.shutdown(timeout=5.0)
        flattened = [item for batch in batches for item in batch]
        assert kept in flattened and dropped not in flattened


class TestShutdownRaces:
    def test_submit_cannot_land_behind_a_concurrent_shutdown_sentinel(self):
        """Regression (deterministically lost race): submit() checked the
        drain flag, then a concurrent shutdown() enqueued the sentinel,
        then submit()'s put landed *behind* it — workers exited and the
        item was silently dropped.  Admission must be atomic with the
        drain flag."""
        from repro.serve.workers import _SENTINEL

        pool = WorkerPool(
            lambda items: [item.resolve(True) for item in items],
            max_batch=4, n_workers=1,
            queue_limit=8,
        )
        inner = pool._queue
        sentinel_enqueued = threading.Event()
        shutdown_results = []
        shutdown_threads = []

        class RacingQueue:
            """Delegates to the real queue, but the first non-sentinel
            put_nowait first triggers a concurrent shutdown() and gives
            it every chance to enqueue the sentinel ahead of the item."""

            def __init__(self):
                self._tripped = False

            def put_nowait(self, item):
                if item is _SENTINEL:
                    inner.put_nowait(item)
                    sentinel_enqueued.set()
                    return
                if not self._tripped:
                    self._tripped = True
                    thread = threading.Thread(
                        target=lambda: shutdown_results.append(
                            pool.shutdown(timeout=5.0)))
                    thread.start()
                    shutdown_threads.append(thread)
                    # Pre-fix this wait returns as soon as the sentinel
                    # lands (losing the race); post-fix shutdown() blocks
                    # on the admission lock and the wait just times out.
                    sentinel_enqueued.wait(0.5)
                inner.put_nowait(item)

            def put(self, item, *args, **kwargs):
                if item is _SENTINEL:
                    inner.put(item, *args, **kwargs)
                    sentinel_enqueued.set()
                    return
                inner.put(item, *args, **kwargs)

            def __getattr__(self, name):
                return getattr(inner, name)

        pool._queue = RacingQueue()
        pending = PendingResult()
        pool.submit(pending)
        # The admitted item must still be answered even though a
        # shutdown raced the submission.
        assert pending.result(timeout=5.0) is True
        for thread in shutdown_threads:
            thread.join(5.0)
        assert shutdown_results == [True]

    @pytest.mark.filterwarnings(
        "ignore::pytest.PytestUnhandledThreadExceptionWarning")
    def test_shutdown_timeout_honoured_with_dead_workers_and_full_queue(self):
        """Regression: shutdown() used a blocking queue.put for the
        sentinel; with dead workers behind a full queue it deadlocked
        forever, ignoring its own timeout.  It must return False within
        the timeout instead."""
        def process(items):
            raise ValueError("worker dies here")

        pool = WorkerPool(process, max_batch=1,
                          n_workers=1, queue_limit=1, on_error=None)
        pool.submit("doomed")
        pool._threads[0].join(5.0)
        assert not pool._threads[0].is_alive()  # worker died on the item
        pool.submit("stuck")  # fills the queue; nobody will ever drain it
        start = time.monotonic()
        assert pool.shutdown(timeout=0.3) is False
        assert time.monotonic() - start < 3.0
        # A later attempt still fails fast rather than hanging.
        assert pool.shutdown(timeout=0.1) is False
