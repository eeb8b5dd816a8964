"""Worker pool with bounded admission and graceful drain.

The pool owns the service's only queue.  Admission is a non-blocking
``put``: when the queue is full the request is *shed* with
:class:`~repro.errors.OverloadedError` instead of building an unbounded
backlog — the paper's pipeline keeps every resource busy precisely
because it never lets work pile up faster than the solver drains it,
and a service under overload should say so rather than time out.

Shutdown is graceful by construction: the drain flag stops new
admissions, a sentinel is enqueued *behind* every accepted request
(FIFO), and each worker that draws the sentinel pushes it back for its
siblings before exiting.  Everything admitted before ``shutdown`` is
therefore still processed.  Admission and drain share one lock, so a
request can never slip in behind the sentinel, and the sentinel put is
bounded by the shutdown timeout, so a wedged queue reports failure
instead of deadlocking.
"""

from __future__ import annotations

import queue as queue_module
import threading
import time
from typing import Callable, List, Optional

from repro.errors import OverloadedError, ServeError
from repro.serve.batcher import (
    MAX_BATCH_CEILING,
    collect_batch,
    validate_max_batch,
)

#: Queue marker that tells workers to exit.
_SENTINEL = object()


class PendingResult:
    """A write-once slot a submitter blocks on.

    Workers call :meth:`resolve` or :meth:`fail`; the submitting thread
    calls :meth:`result`, which re-raises a failure in its own context,
    or :meth:`cancel` to detach (a timed-out or disconnected submitter
    that no longer wants the answer).  Exactly one of the three writes
    wins; the writers learn which from the boolean return value.
    """

    __slots__ = ("_event", "_lock", "_value", "_error", "_cancelled",
                 "request_id")

    def __init__(self) -> None:
        self._event = threading.Event()
        self._lock = threading.Lock()
        self._value = None
        self._error: Optional[BaseException] = None
        self._cancelled = False
        #: Request ID assigned at admission (set by the service), so
        #: front ends can echo it even for instantly-resolved waiters.
        self.request_id: Optional[str] = None

    def resolve(self, value) -> bool:
        """Deliver a successful result; True if this write won."""
        with self._lock:
            if self._event.is_set():
                return False
            self._value = value
            self._event.set()
            return True

    def fail(self, error: BaseException) -> bool:
        """Deliver a failure; True if this write won."""
        with self._lock:
            if self._event.is_set():
                return False
            self._error = error
            self._event.set()
            return True

    def cancel(self) -> bool:
        """Detach from the outcome; True if nothing had been delivered.

        After a successful cancel the submitter is gone: a later
        :meth:`resolve`/:meth:`fail` is a no-op (and returns False), so
        workers can use that return value to account for answers nobody
        is waiting on, and batch collection can drop the item outright.
        """
        with self._lock:
            if self._event.is_set():
                return False
            self._cancelled = True
            self._event.set()
            return True

    @property
    def cancelled(self) -> bool:
        """True once the submitter has detached via :meth:`cancel`."""
        return self._cancelled

    def done(self) -> bool:
        """True once a result, failure, or cancellation has landed."""
        return self._event.is_set()

    def result(self, timeout: Optional[float] = None):
        """Block for the outcome; raise it if it was a failure.

        A failure is re-raised as a *fresh per-call instance* chained to
        the original (``raise ... from``): one batch failure fans out to
        many waiters, and concurrently raising the same exception object
        in several threads garbles its traceback for all of them.
        """
        if not self._event.wait(timeout):
            raise ServeError(
                f"timed out after {timeout}s waiting for an analysis result"
            )
        if self._cancelled:
            raise ServeError("request was cancelled by its submitter")
        if self._error is not None:
            original = self._error
            try:
                clone = type(original)(*original.args)
            except Exception:
                clone = ServeError(f"{type(original).__name__}: {original}")
            raise clone from original
        return self._value


class WorkerPool:
    """Micro-batching workers over one bounded queue.

    Parameters
    ----------
    process:
        Callable invoked with each coalesced micro-batch (a list of
        submitted items).  It must resolve every item itself and should
        not raise; anything it does raise goes to *on_error*.
    max_batch:
        The most requests one micro-batch may hold (see
        :func:`~repro.serve.batcher.collect_batch`).
    n_workers:
        Worker thread count.  One worker maximizes coalescing; more
        overlap post-processing of separate batches.
    queue_limit:
        Admission bound — the most requests allowed to wait.
    on_error:
        Called as ``on_error(items, exception)`` when *process* raises,
        so the owner can fail the affected items; by default the error
        is re-raised into the worker thread (killing it), so services
        should always pass a handler.
    drop:
        Optional predicate consulted for every dequeued item before it
        joins a batch (see :func:`~repro.serve.batcher.collect_batch`).
        Return True to discard the item; the callable owns any waiter
        notification and accounting for what it drops.
    on_admit:
        Optional callback invoked with every item the moment it joins
        a forming batch — the tracing stamp that ends the item's queue
        wait.  Must be cheap and must not raise.
    """

    def __init__(self, process: Callable[[List], None],
                 max_batch: int = MAX_BATCH_CEILING, *,
                 n_workers: int = 2, queue_limit: int = 256,
                 name: str = "repro-serve",
                 on_error: Optional[Callable[[List, BaseException], None]] = None,
                 drop: Optional[Callable[[object], bool]] = None,
                 on_admit: Optional[Callable[[object], None]] = None):
        if int(n_workers) < 1:
            raise ServeError(f"n_workers must be at least 1, got {n_workers}")
        if int(queue_limit) < 1:
            raise ServeError(f"queue_limit must be at least 1, got {queue_limit}")
        self._process = process
        self._max_batch = validate_max_batch(max_batch)
        self._queue: queue_module.Queue = queue_module.Queue(maxsize=int(queue_limit))
        self._queue_limit = int(queue_limit)
        self._on_error = on_error
        self._drop = drop
        self._on_admit = on_admit
        self._draining = threading.Event()
        # Guards the check-drain-then-enqueue pair in submit() against a
        # concurrent shutdown(): without it the sentinel can land between
        # the check and the put, stranding the item behind the sentinel.
        self._admission_lock = threading.Lock()
        self._sentinel_placed = False
        self._threads = [
            threading.Thread(target=self._run, name=f"{name}-worker-{index}",
                             daemon=True)
            for index in range(int(n_workers))
        ]
        for thread in self._threads:
            thread.start()

    @property
    def max_batch(self) -> int:
        """The most requests one micro-batch may hold."""
        return self._max_batch

    @property
    def n_workers(self) -> int:
        """Number of worker threads."""
        return len(self._threads)

    @property
    def queue_limit(self) -> int:
        """The admission bound."""
        return self._queue_limit

    @property
    def queue_depth(self) -> int:
        """Approximate number of requests waiting (racy by nature)."""
        return self._queue.qsize()

    def submit(self, item, *,
               on_enqueue: Optional[Callable[[], None]] = None) -> None:
        """Admit one item, or shed it.

        Raises :class:`ServeError` while draining and
        :class:`OverloadedError` when the queue is full.  The drain
        check and the enqueue are atomic with respect to
        :meth:`shutdown`, so an admitted item always precedes the
        shutdown sentinel in the queue.

        *on_enqueue*, when given, runs once the item is certain to be
        queued but before any worker can see it, so an owner that
        counts admissions there never sees an item finish before it
        was admitted.
        """
        with self._admission_lock:
            if self._draining.is_set():
                raise ServeError("service is shutting down; request refused")
            # Only admission-lock holders add items and workers only
            # remove them, so room seen here is still there for the put.
            if self._queue.full():
                raise OverloadedError(
                    f"service overloaded: {self._queue_limit} requests already "
                    "queued; retry with backoff"
                )
            if on_enqueue is not None:
                on_enqueue()
            self._queue.put_nowait(item)

    def shutdown(self, timeout: float = 10.0) -> bool:
        """Drain accepted work, stop the workers, and join them.

        Returns True when the sentinel was placed and every worker
        exited within *timeout*; False means the pool is wedged (for
        example dead workers behind a full queue) and the caller should
        not trust that accepted work was completed.  Idempotent: later
        calls re-join, and re-attempt sentinel placement if an earlier
        call failed to place it.
        """
        deadline = time.monotonic() + max(0.0, float(timeout))
        with self._admission_lock:
            self._draining.set()
        if not self._sentinel_placed:
            # Bounded put: with dead workers behind a full queue an
            # unbounded put would deadlock forever and ignore *timeout*.
            try:
                self._queue.put(_SENTINEL,
                                timeout=max(0.0, deadline - time.monotonic()))
                self._sentinel_placed = True
            except queue_module.Full:
                return False
        for thread in self._threads:
            thread.join(max(0.0, deadline - time.monotonic()))
        return not any(thread.is_alive() for thread in self._threads)

    def _run(self) -> None:
        while True:
            first = self._queue.get()
            if first is _SENTINEL:
                self._queue.put(_SENTINEL)  # wake the next worker
                return
            items, saw_sentinel = collect_batch(
                self._queue, first, self._max_batch, sentinel=_SENTINEL,
                drop=self._drop, on_admit=self._on_admit,
            )
            if items:
                try:
                    self._process(items)
                except BaseException as error:  # keep the worker alive
                    if self._on_error is None:
                        raise
                    self._on_error(items, error)
            if saw_sentinel:
                return
