"""Dynamic micro-batching of analyze requests.

Coalescing concurrent requests into stacks is the serving analogue of
the paper's pipeline slicing: the offline pipeline cuts one huge batch
into slices small enough to overlap assembly and solve, while the
service glues many tiny requests into slices big enough to amortize
per-call overhead.  Slicing pays only when a transfer or a second
stage can hide behind compute; a lone request has neither, so the
service never holds one back waiting for batchmates.

The rule is to *drain* the queue: a worker takes the request it was
woken for plus whatever is already queued, up to ``max_batch``, and
solves at once.  Batches still grow with load, because requests queue
while every worker is busy, but an idle worker never sits on a
request.  There is no timer and no knob besides ``max_batch``, the
memory ceiling of one stack.

Two pieces live here:

* :func:`validate_max_batch` — the one batching setting, checked;
* :func:`collect_batch` — the queue drain a worker runs to coalesce
  one micro-batch.
"""

from __future__ import annotations

import queue as queue_module
from typing import List, Tuple

from repro.errors import ServeError

#: Default and ceiling of a micro-batch: beyond this, one stack's
#: influence matrices stop fitting comfortably in cache and memory.
MAX_BATCH_CEILING = 64


def validate_max_batch(max_batch) -> int:
    """Return *max_batch* as a positive integer, or raise :class:`ServeError`.

    A fractional value (say 2.7) is refused rather than truncated: a
    silently smaller cap reads as a throughput regression with no error
    anywhere.
    """
    try:
        batch = int(max_batch)
    except (TypeError, ValueError):
        raise ServeError(f"max_batch must be an integer, got {max_batch!r}")
    if batch != max_batch:
        raise ServeError(f"max_batch must be an integer, got {max_batch!r}")
    if batch < 1:
        raise ServeError(f"max_batch must be at least 1, got {max_batch}")
    return batch


def collect_batch(source: "queue_module.Queue", first_item, max_batch: int,
                  *, sentinel=None, drop=None,
                  on_admit=None) -> Tuple[List, bool]:
    """Coalesce one micro-batch starting from an already-dequeued item.

    Takes *first_item* plus whatever *source* already holds, in FIFO
    order, until the batch has *max_batch* items or the queue is
    empty, and returns without waiting for more.

    *drop*, when given, is consulted for every dequeued item (including
    *first_item*): returning True discards the item instead of batching
    it — this is where expired or cancelled requests are shed *before*
    they cost a solve slot.  The callable owns any accounting or waiter
    notification for what it drops, and dropped items do not count
    toward *max_batch*, so dead work never displaces live work.

    *on_admit*, when given, is called with every item that joins the
    batch, at the moment it joins — the tracing hook that marks the end
    of a request's queue wait and the start of its batch-collect stage
    (see :mod:`repro.serve.tracing`).  It must be cheap and must not
    raise.

    Returns ``(items, saw_sentinel)``; ``items`` may be empty when
    everything was dropped.  When the shutdown *sentinel* is drawn it
    is pushed back (so sibling workers also observe it), the batch
    collected so far is returned, and ``saw_sentinel`` is True.
    """
    items: List = []

    def admit(item) -> None:
        if drop is None or not drop(item):
            if on_admit is not None:
                on_admit(item)
            items.append(item)

    admit(first_item)
    while len(items) < max_batch:
        try:
            item = source.get_nowait()
        except queue_module.Empty:
            break
        if sentinel is not None and item is sentinel:
            source.put(item)
            return items, True
        admit(item)
    return items, False
