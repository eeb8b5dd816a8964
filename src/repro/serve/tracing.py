"""Per-request tracing for the serving path.

The paper's whole argument is a stage decomposition — where did the
wall time go? — and :mod:`repro.pipeline.metrics` answers it for the
*simulated* pipeline.  This module answers it for the *live* service:
every sampled request carries a :class:`repro.obs.trace.Trace` through
admission, queueing, batch collection, cache lookup, assembly, the
batched solve, and serialization; completed traces land in a bounded
ring buffer for ``/debug/trace`` and are reduced into a running W/A/L/O
aggregate for the ``stages`` section of ``/metrics`` — the same
vocabulary (and the same ``O = W - L`` identity) the simulator's
tables use, so an operator can compare production against Table 3
directly.

Sampling is deterministic stride sampling (an accumulator, not a PRNG):
``sample_rate=1.0`` traces everything, ``0.25`` every fourth request,
``0.0`` nothing.  An unsampled request costs one float-add under a
lock — tracing's fixed overhead is a handful of ``time.monotonic()``
calls per *sampled* request, which is why the default rate can stay 1.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Dict, List, Optional, Sequence

from repro.errors import ServeError
from repro.obs.histogram import StageHistograms
from repro.obs.trace import Trace, walo_summary
from repro.pipeline.trace import GanttRow, GanttSegment, GanttTrace, render_ascii

#: Stage names recorded along the serving path (the span vocabulary).
STAGE_QUEUE_WAIT = "queue_wait"
STAGE_BATCH_COLLECT = "batch_collect"
STAGE_CACHE_LOOKUP = "cache_lookup"
STAGE_ASSEMBLY = "assembly"
STAGE_SOLVE = "solve"
STAGE_POSTPROCESS = "postprocess"
STAGE_SERIALIZE = "serialize"
#: One GA generation of a background optimization job (emitted by
#: :mod:`repro.jobs.runner`; folds into the aggregate as
#: ``generation_seconds``).
STAGE_GENERATION = "generation"

#: Gantt glyphs for live serving stages (ASCII rendering).
LIVE_GLYPHS: Dict[str, str] = {
    STAGE_QUEUE_WAIT: "q",
    STAGE_BATCH_COLLECT: "b",
    STAGE_CACHE_LOOKUP: "h",
    STAGE_ASSEMBLY: "a",
    STAGE_SOLVE: "s",
    STAGE_POSTPROCESS: "p",
    STAGE_SERIALIZE: "z",
    STAGE_GENERATION: "g",
}

#: Row titles for the live-stage legend.
LIVE_TITLES: Dict[str, str] = {
    STAGE_QUEUE_WAIT: "queue wait",
    STAGE_BATCH_COLLECT: "batch collect",
    STAGE_CACHE_LOOKUP: "cache lookup",
    STAGE_ASSEMBLY: "assembly",
    STAGE_SOLVE: "solve",
    STAGE_POSTPROCESS: "postprocess",
    STAGE_SERIALIZE: "serialize",
    STAGE_GENERATION: "GA generation",
}

#: Stage keys always present in :meth:`Tracer.stages_snapshot`.
_CORE_STAGES = (STAGE_QUEUE_WAIT, STAGE_BATCH_COLLECT, STAGE_CACHE_LOOKUP,
                STAGE_ASSEMBLY, STAGE_SOLVE, STAGE_SERIALIZE)


class Tracer:
    """Sampling, retention, and aggregation of completed request traces.

    Parameters
    ----------
    sample_rate:
        Fraction of requests that get a span trace, in ``[0, 1]``.
        Deterministic stride sampling: with rate ``r`` every
        ``1/r``-th request is traced, so tests and benchmarks see a
        stable pattern instead of PRNG noise.
    ring_size:
        Completed traces retained for ``/debug/trace`` (0 keeps none;
        the W/A/L/O aggregate still accumulates).
    """

    def __init__(self, sample_rate: float = 1.0, ring_size: int = 256) -> None:
        rate = float(sample_rate)
        if not 0.0 <= rate <= 1.0:
            raise ServeError(
                f"sample_rate must be within [0, 1], got {sample_rate}"
            )
        if int(ring_size) < 0:
            raise ServeError(f"ring_size cannot be negative, got {ring_size}")
        self.sample_rate = rate
        self.ring_size = int(ring_size)
        self._lock = threading.Lock()
        self._accumulator = 0.0
        self._ring: "deque[Trace]" = deque(maxlen=self.ring_size or None)
        self._keep = self.ring_size > 0
        self._finished = 0
        self._evicted = 0
        self._wall = 0.0
        self._stage_seconds: Dict[str, float] = {}
        self.stage_histograms = StageHistograms()

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------

    def start(self, trace_id: str,
              sampled: Optional[bool] = None) -> Optional[Trace]:
        """A new :class:`Trace` when this request is sampled, else None.

        *sampled* overrides the local stride decision: a propagated
        trace context's head-based verdict (True forces a trace, False
        forces none) without consuming the stride accumulator, so
        forwarded traffic does not perturb local sampling determinism.
        """
        if sampled is not None:
            return Trace(trace_id) if sampled else None
        if self.sample_rate <= 0.0:
            return None
        with self._lock:
            self._accumulator += self.sample_rate
            if self._accumulator < 1.0:
                return None
            self._accumulator -= 1.0
        return Trace(trace_id)

    # ------------------------------------------------------------------
    # Completion
    # ------------------------------------------------------------------

    def finish(self, trace: Trace, outcome: str = "completed") -> Trace:
        """Close *trace*, fold it into the aggregate, retain it."""
        trace.close(outcome)
        stages = trace.stage_seconds()
        with self._lock:
            self._finished += 1
            self._wall += trace.root.duration
            for name, seconds in stages.items():
                self._stage_seconds[name] = (
                    self._stage_seconds.get(name, 0.0) + seconds
                )
            if self._keep:
                if len(self._ring) == self.ring_size:
                    self._evicted += 1
                self._ring.append(trace)
        for name, seconds in stages.items():
            self.stage_histograms.observe(name, seconds * 1000.0,
                                          trace.trace_id)
        return trace

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def recent(self, n: Optional[int] = None) -> List[Trace]:
        """The most recent completed traces, oldest first."""
        with self._lock:
            traces = list(self._ring)
        if n is not None and n >= 0:
            traces = traces[-n:] if n else []
        return traces

    def find(self, trace_id: str) -> Optional[Trace]:
        """The most recent retained trace with *trace_id*, or None."""
        with self._lock:
            for trace in reversed(self._ring):
                if trace.trace_id == trace_id:
                    return trace
        return None

    def stages_snapshot(self) -> dict:
        """The live W/A/L/O aggregate for the ``/metrics`` document.

        ``overhead_seconds`` is ``wall_seconds - solve_seconds`` by
        construction, the identity the paper's tables satisfy; per-stage
        totals beyond the core vocabulary appear under their span name.
        """
        with self._lock:
            stage_seconds = dict(self._stage_seconds)
            snapshot = {
                "traced": self._finished,
                "sample_rate": self.sample_rate,
                "wall_seconds": self._wall,
                "ring": {
                    "capacity": self.ring_size,
                    "size": len(self._ring),
                    "evicted": self._evicted,
                },
            }
        for stage in _CORE_STAGES:
            snapshot[f"{stage}_seconds"] = stage_seconds.pop(stage, 0.0)
        for stage, seconds in sorted(stage_seconds.items()):
            snapshot[f"{stage}_seconds"] = seconds
        snapshot["overhead_seconds"] = (
            snapshot["wall_seconds"] - snapshot["solve_seconds"]
        )
        return snapshot


# ----------------------------------------------------------------------
# Gantt rendering of live traces
# ----------------------------------------------------------------------

def traces_to_gantt(traces: Sequence[Trace], *,
                    name: str = "recent requests") -> GanttTrace:
    """Convert completed request traces into a per-request Gantt.

    Each trace becomes one row (labelled with a shortened request ID),
    each closed child span one segment; times are re-based to the
    earliest root start so the x-axis starts at 0 like the simulator's
    figures.
    """
    closed = [trace for trace in traces if trace.closed]
    if not closed:
        return GanttTrace(name=name, rows=[], makespan=0.0)
    origin = min(trace.root.start for trace in closed)
    makespan = max(trace.root.end for trace in closed) - origin
    rows = []
    for index, trace in enumerate(closed):
        segments = [
            GanttSegment(start=span.start - origin, end=span.end - origin,
                         kind=span.name, label=span.name)
            for span in trace.spans[1:]
            if span.end is not None and span.end > span.start
        ]
        rows.append(GanttRow(resource=_row_label(trace, index),
                             segments=segments))
    return GanttTrace(name=name, rows=rows, makespan=makespan)


def render_recent(traces: Sequence[Trace], *, width: int = 78) -> str:
    """ASCII Gantt of recent request traces (``/debug/trace`` body)."""
    if not traces:
        return "no completed traces yet; send some traffic first"
    return render_ascii(traces_to_gantt(traces), width=width,
                        glyphs=LIVE_GLYPHS, titles=LIVE_TITLES)


def _row_label(trace: Trace, index: int) -> str:
    short = trace.trace_id[:10]
    outcome = (trace.outcome or "?")[:1]
    return f"{index:>2} {short} {outcome}"
