"""Cross-process trace context: the ``X-Repro-Trace`` currency.

A request ID (:mod:`repro.obs.ids`) names a request; a *trace context*
carries the tracing decision with it across process boundaries.  The
header value is three ``;``-separated fields::

    X-Repro-Trace: <trace_id>;<parent_span_id>;<sampled>

* ``trace_id`` — the tree identity, validated with the same rules as a
  request ID (the ``;`` separator is outside the request-ID alphabet,
  so a validated ID can never be confused with a field boundary);
* ``parent_span_id`` — the caller's span this hop nests under, a short
  hex token minted by :func:`new_span_id`;
* ``sampled`` — ``1`` or ``0``: the *head-based* sampling decision.
  Whoever opens the trace (client or router) decides once; every
  downstream hop obeys, so a trace is either recorded on every hop or
  on none, and the stitched tree is never missing a floor.

The other half of cross-process tracing is clock stitching:
:func:`anchor_remote_spans` maps a remote hop's span tree (recorded on
*its* monotonic clock) into the caller's clock using the caller's
send/receive bounds around the exchange, hardened against clock skew:
stitched spans always land inside the caller's bounds and stay
monotonic.
"""

from __future__ import annotations

import dataclasses
import uuid
from typing import List, Optional, Sequence

from repro.errors import ServeError
from repro.obs.ids import new_request_id, validate_request_id
from repro.obs.trace import Span

#: Header carrying the trace context on proxied/forwarded requests.
TRACE_HEADER = "X-Repro-Trace"

#: Characters allowed in a span ID (hex, as minted by uuid4).
_SPAN_ID_ALPHABET = frozenset("0123456789abcdef")

#: Longest accepted span ID (a full uuid4 hex is 32 characters).
MAX_SPAN_ID_LENGTH = 32


def new_span_id() -> str:
    """A fresh 16-character hex span ID."""
    return uuid.uuid4().hex[:16]


def validate_span_id(value) -> str:
    """Validate a span ID (lowercase hex, 1..32 chars); returns it."""
    if not isinstance(value, str):
        raise ServeError(
            f"span id must be a string, got {type(value).__name__}"
        )
    if not value or len(value) > MAX_SPAN_ID_LENGTH:
        raise ServeError(
            f"span id must be 1..{MAX_SPAN_ID_LENGTH} characters"
        )
    if not set(value) <= _SPAN_ID_ALPHABET:
        raise ServeError("span id must be lowercase hex")
    return value


@dataclasses.dataclass(frozen=True)
class TraceContext:
    """One hop's view of a distributed trace.

    Immutable: forwarding to the next hop goes through :meth:`child`,
    which keeps the trace identity and sampling decision but re-parents
    under a fresh span ID.
    """

    trace_id: str
    parent_span_id: str
    sampled: bool

    def header_value(self) -> str:
        """The ``X-Repro-Trace`` wire encoding of this context."""
        return (f"{self.trace_id};{self.parent_span_id};"
                f"{1 if self.sampled else 0}")

    def child(self, span_id: Optional[str] = None) -> "TraceContext":
        """The context the *next* hop should receive: same trace, same
        sampling decision, parented under *span_id* (fresh if None)."""
        return TraceContext(
            trace_id=self.trace_id,
            parent_span_id=(new_span_id() if span_id is None
                            else validate_span_id(span_id)),
            sampled=self.sampled,
        )

    def to_dict(self) -> dict:
        return {"trace_id": self.trace_id,
                "parent_span_id": self.parent_span_id,
                "sampled": self.sampled}


def new_trace_context(trace_id: Optional[str] = None, *,
                      sampled: bool = True) -> TraceContext:
    """Mint a root context (the hop that *decides* to sample)."""
    return TraceContext(
        trace_id=new_request_id() if trace_id is None
        else validate_request_id(trace_id),
        parent_span_id=new_span_id(),
        sampled=bool(sampled),
    )


def parse_trace_header(value) -> TraceContext:
    """Parse and validate an ``X-Repro-Trace`` header value.

    Raises :class:`ServeError` for anything other than exactly
    ``trace_id;span_id;flag`` with each field valid — a hostile header
    must never smuggle content into logs, responses, or downstream
    headers.
    """
    if not isinstance(value, str):
        raise ServeError(
            f"trace header must be a string, got {type(value).__name__}"
        )
    fields = value.split(";")
    if len(fields) != 3:
        raise ServeError(
            f"trace header must be 'trace_id;span_id;flag', "
            f"got {len(fields)} field(s)"
        )
    trace_id, span_id, flag = fields
    if flag not in ("0", "1"):
        raise ServeError(
            f"trace header sampled flag must be '0' or '1', got {flag!r}"
        )
    return TraceContext(
        trace_id=validate_request_id(trace_id),
        parent_span_id=validate_span_id(span_id),
        sampled=flag == "1",
    )


def maybe_parse_trace_header(value) -> Optional[TraceContext]:
    """:func:`parse_trace_header`, or ``None`` for an absent header."""
    if value is None:
        return None
    return parse_trace_header(value)


# ----------------------------------------------------------------------
# Clock stitching
# ----------------------------------------------------------------------

def anchor_remote_spans(spans: Sequence[Span], send_start: float,
                        recv_end: float) -> List[Span]:
    """Map a remote hop's span tree into the caller's monotonic clock.

    *spans* is the remote trace's span list (root first) on the remote
    clock; ``send_start``/``recv_end`` bound the exchange on the
    *caller's* clock (the caller's proxy span).  The remote timeline is
    pinned by estimating its start as ``recv_end - elapsed`` — exact up
    to the one-way network latency.  Two guarantees on top:

    * **containment** — when the remote's measured elapsed exceeds the
      caller's window (clock skew, or a caller clock that ticked
      slower), the remote timeline is *compressed* linearly into the
      window instead of spilling out of it, so a stitched Gantt row
      never escapes its parent hop's bar;
    * **monotonicity** — the mapping is affine with a positive scale,
      so span ordering and nesting survive exactly.

    Open spans (``end is None``) are closed at the remote root's end
    before mapping.  Returns new :class:`Span` objects; parents are
    preserved by index.
    """
    spans = list(spans)
    if not spans:
        return []
    send_start = float(send_start)
    recv_end = float(recv_end)
    if recv_end < send_start:
        raise ServeError(
            f"proxy bounds are inverted: send={send_start} recv={recv_end}"
        )
    root = spans[0]
    remote_start = root.start
    remote_end = root.end if root.end is not None else max(
        [remote_start] + [span.end for span in spans if span.end is not None]
    )
    elapsed = max(0.0, remote_end - remote_start)
    window = recv_end - send_start
    if elapsed > window and elapsed > 0.0:
        scale = window / elapsed
        base = send_start
    else:
        scale = 1.0
        base = recv_end - elapsed

    def remap(instant: float) -> float:
        mapped = base + (instant - remote_start) * scale
        # Containment is exact by construction; the clamp only guards
        # against child spans recorded outside their own root.
        return min(recv_end, max(send_start, mapped))

    anchored = []
    for span in spans:
        end = span.end if span.end is not None else remote_end
        anchored.append(Span(name=span.name, start=remap(span.start),
                             end=remap(end), parent=span.parent))
    return anchored
