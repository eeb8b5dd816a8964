"""repro.serve: the batched airfoil-evaluation service.

Turns the library's batched panel solver into a long-running request
path: a micro-batcher stacks the analyze requests that queue while a
worker is busy (an idle worker solves what it has at once, with no
flush timer), a genome-keyed LRU cache
short-circuits repeats, a bounded worker pool sheds load instead of
melting, and a stdlib-only HTTP front end exposes the whole thing as
``python -m repro serve``.

Requests are first-class citizens with a lifecycle: each may carry a
deadline (``X-Repro-Deadline-Ms`` header / ``deadline_ms`` field) and
is dropped at batch-collection time — answered 504, never costing a
solve — once that deadline expires; a timed-out or disconnected
submitter detaches via :meth:`PendingResult.cancel`; and
:class:`ServeClient` can retry shed (503) requests with capped
exponential backoff and full jitter.

The path is observable end to end: every request carries an ID
(``X-Repro-Request-Id``, accepted or generated) and, when sampled,
a span tree recording queue wait, batch collect, cache lookup,
assembly, solve, and serialization.  ``/metrics`` reduces live spans
to the paper's W/A/L/O stage vocabulary (JSON or Prometheus text via
``?format=prometheus`` / ``/metrics/prometheus``), ``/debug/trace``
renders recent requests as an ASCII Gantt, and a structured logger
emits one line per request completion, failure, or shed.

Quickstart (in-process)::

    from repro.serve import AnalysisService

    with AnalysisService(max_batch=16) as service:
        record = service.analyze({"airfoil": "2412", "alpha_degrees": 4.0})
        print(record["cl"], service.metrics_snapshot()["cache"])

Quickstart (over HTTP)::

    from repro.serve import AnalysisService, ServeClient, start_server

    service = AnalysisService()
    server = start_server(service)  # ephemeral port
    client = ServeClient(port=server.port)
    print(client.analyze("2412", 4.0)["cl"])
    server.stop(); service.close()

See ``docs/serving.md`` for the architecture.
"""

from repro.serve.batcher import (
    MAX_BATCH_CEILING,
    collect_batch,
    validate_max_batch,
)
from repro.serve.cache import ResultCache
from repro.serve.client import ServeClient
from repro.serve.http import AnalysisHTTPServer, start_server
from repro.serve.metrics import ServiceMetrics
from repro.serve.service import AnalysisService
from repro.serve.tracing import Tracer
from repro.serve.workers import PendingResult, WorkerPool

__all__ = [
    "AnalysisHTTPServer",
    "AnalysisService",
    "MAX_BATCH_CEILING",
    "PendingResult",
    "ResultCache",
    "ServeClient",
    "ServiceMetrics",
    "Tracer",
    "WorkerPool",
    "collect_batch",
    "start_server",
    "validate_max_batch",
]
