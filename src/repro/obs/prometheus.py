"""Prometheus text-format exposition of the ``/metrics`` snapshot.

:func:`render_prometheus` flattens the service's nested JSON snapshot
into the `Prometheus exposition format
<https://prometheus.io/docs/instrumenting/exposition_formats/>`_ —
``# HELP`` / ``# TYPE`` comments followed by ``name{labels} value``
samples — with four structural rules:

* nested dict paths join with ``_`` (``requests.admitted`` becomes
  ``repro_requests_admitted``);
* keys ending in ``_histogram`` (size → count maps) become one labeled
  family: ``repro_batching_batch_size{bucket="8"} 3``;
* the ``latency_ms`` quantile block becomes a summary-style family
  with ``quantile`` labels plus ``_count``/``_mean``/``_max`` samples,
  mapping any ``pXX``/``pXXX`` key data-driven (``p50`` → ``0.5``,
  ``p999`` → ``0.999``) — a malformed quantile key raises instead of
  silently vanishing from the scrape;
* :class:`repro.obs.histogram.LatencyHistogram` snapshots become real
  histogram families — cumulative ``_bucket{le="..."}`` samples with
  OpenMetrics exemplars (``# {trace_id="..."} value`` appended to the
  bucket line) plus ``_sum`` and ``_count``.

Strings and ``None`` values are skipped (Prometheus samples are
numbers), booleans render as 0/1, and emitting the same (name, labels)
sample twice is an error rather than a silently corrupt scrape.
"""

from __future__ import annotations

import re
from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from repro.errors import ServeError
from repro.obs.histogram import is_histogram_snapshot

#: Snapshot leaf keys that are monotonically increasing counters; every
#: other numeric leaf is exposed as a gauge.
COUNTER_KEYS = frozenset({
    "admitted", "completed", "failed", "shed", "expired", "cancelled",
    "accounting_drift", "flushes", "batched_solves", "solved_systems",
    "hits", "misses", "evictions", "snapshot_seq", "traced", "evicted",
    # jobs subsystem (the "jobs" snapshot section)
    "submitted", "started", "done", "resumed", "checkpoints",
    "generations_completed", "duplicate_submits",
    # cluster router (the "router" section of the cluster document)
    "routed", "routed_batch", "fanout_requests", "failovers", "exhausted",
    "proxy_errors", "jobs_placed", "jobs_migrated", "migration_failures",
    "checkpoints_staged", "health_transitions", "probes", "probe_failures",
    # SLO lifetime totals (the "slo" snapshot section)
    "availability_good", "availability_bad", "latency_good", "latency_bad",
    # distributed tracing
    "traces_stitched", "trace_pulls", "trace_pull_failures",
    # online autotuning (the "autotune" snapshot section; "decisions"
    # stays a gauge — the journal is a bounded ring)
    "cycles", "applies", "advises", "holds", "cycle_errors",
    "ring_reweights",
})

#: ``pXX`` quantile keys: two or more digits read as decimal fraction
#: digits, so ``p50`` → 0.5, ``p99`` → 0.99, ``p999`` → 0.999.  One
#: digit is rejected as ambiguous (is ``p5`` the 5th or 50th
#: percentile?).
_QUANTILE_KEY = re.compile(r"^p(\d{2,4})$")

#: Latency-block stats that are legitimately not quantiles.
_LATENCY_STATS = frozenset({"count", "mean", "max", "min", "sum"})

_NAME_SANITIZER = re.compile(r"[^a-zA-Z0-9_:]")
_LABEL_ESCAPES = str.maketrans({"\\": r"\\", '"': r"\"", "\n": r"\n"})


class _Family:
    """One metric family: a type plus its labeled samples."""

    __slots__ = ("mtype", "help", "samples")

    def __init__(self, mtype: str, help_text: str) -> None:
        self.mtype = mtype
        self.help = help_text
        self.samples: List[Tuple[Tuple[Tuple[str, str], ...], float,
                                 Optional[str]]] = []


def metric_name(*parts: str) -> str:
    """Join path components into a legal Prometheus metric name."""
    name = _NAME_SANITIZER.sub("_", "_".join(str(part) for part in parts))
    if not name or name[0].isdigit():
        name = "_" + name
    return name


def quantile_label(stat: str) -> Optional[str]:
    """``p50`` → ``"0.5"``, ``p999`` → ``"0.999"``; None for non-p keys.

    Raises :class:`ServeError` for a key that *looks* like a quantile
    but cannot be mapped (``p5``, ``p12345``) — dropping it silently
    would make the scrape lie by omission.
    """
    if not stat.startswith("p"):
        return None
    match = _QUANTILE_KEY.match(stat)
    if match is None:
        raise ServeError(f"unmappable quantile key in latency block: {stat!r}")
    digits = match.group(1)
    label = ("0." + digits).rstrip("0")
    return label + "0" if label.endswith(".") else label


def render_prometheus(snapshot: dict, *, prefix: str = "repro") -> str:
    """Render a nested metrics snapshot as Prometheus exposition text."""
    families: "OrderedDict[str, _Family]" = OrderedDict()
    seen: set = set()

    def add(name: str, value, *, labels: Optional[Dict[str, str]] = None,
            mtype: Optional[str] = None, help_text: str = "",
            exemplar: Optional[dict] = None) -> None:
        family = families.get(name)
        if family is None:
            family = families[name] = _Family(
                mtype or "gauge", help_text or f"repro metric {name}"
            )
        label_items = tuple(sorted((labels or {}).items()))
        if (name, label_items) in seen:
            raise ServeError(f"duplicate Prometheus sample: {name}{dict(label_items)}")
        seen.add((name, label_items))
        family.samples.append((label_items, float(value),
                               _render_exemplar(exemplar)))

    _walk(snapshot, [prefix], add)

    lines: List[str] = []
    for name, family in families.items():
        lines.append(f"# HELP {name} {family.help}")
        lines.append(f"# TYPE {name} {family.mtype}")
        for label_items, value, exemplar in family.samples:
            rendered = "".join((
                name,
                _render_labels(label_items),
                " ",
                _format_value(value),
                exemplar or "",
            ))
            lines.append(rendered)
    return "\n".join(lines) + "\n" if lines else ""


def _walk(node: dict, path: List[str], add) -> None:
    for key, value in node.items():
        if isinstance(value, dict):
            if is_histogram_snapshot(value):
                _bucket_family(value, path + [str(key)], add)
            elif str(key).endswith("_histogram"):
                base = metric_name(*path, str(key)[: -len("_histogram")])
                for bucket, count in sorted(value.items(),
                                            key=lambda item: _bucket_order(item[0])):
                    add(base, count, labels={"bucket": str(bucket)},
                        mtype="counter",
                        help_text=f"histogram {'.'.join(path[1:] + [str(key)])}")
            elif key == "latency_ms":
                _latency_family(value, path, add)
            else:
                _walk(value, path + [str(key)], add)
        elif isinstance(value, bool):
            add(metric_name(*path, str(key)), int(value))
        elif isinstance(value, (int, float)) and value is not None:
            mtype = "counter" if key in COUNTER_KEYS else "gauge"
            add(metric_name(*path, str(key)), value, mtype=mtype)
        # strings and None carry no numeric sample: skipped by design.


def _latency_family(block: dict, path: List[str], add) -> None:
    base = metric_name(*path, "latency_ms")
    for stat, value in block.items():
        if value is None:
            continue
        quantile = quantile_label(str(stat))
        if quantile is not None:
            add(base, value, labels={"quantile": quantile},
                mtype="summary", help_text="request latency quantiles (ms)")
        else:
            mtype = "counter" if stat == "count" else "gauge"
            add(f"{base}_{metric_name(stat)}", value, mtype=mtype)


def _bucket_family(block: dict, path: List[str], add) -> None:
    """A :class:`LatencyHistogram` snapshot as a ``_bucket`` family."""
    base = metric_name(*path)
    dotted = ".".join(path[1:])
    for bucket in block.get("buckets", []):
        add(f"{base}_bucket", bucket.get("count", 0),
            labels={"le": str(bucket.get("le"))}, mtype="histogram",
            help_text=f"latency histogram {dotted} (ms)",
            exemplar=bucket.get("exemplar"))
    add(f"{base}_sum", block.get("sum_ms", 0.0), mtype="counter",
        help_text=f"latency histogram {dotted} total (ms)")
    add(f"{base}_count", block.get("count", 0), mtype="counter",
        help_text=f"latency histogram {dotted} observation count")


def _render_exemplar(exemplar: Optional[dict]) -> Optional[str]:
    """OpenMetrics exemplar suffix: `` # {trace_id="..."} value``."""
    if not exemplar or "trace_id" not in exemplar:
        return None
    trace_id = str(exemplar["trace_id"]).translate(_LABEL_ESCAPES)
    value = _format_value(float(exemplar.get("value_ms", 0.0)))
    return f' # {{trace_id="{trace_id}"}} {value}'


def _bucket_order(bucket) -> Tuple[int, str]:
    try:
        return (0, f"{float(bucket):024.6f}")
    except (TypeError, ValueError):
        return (1, str(bucket))


def _render_labels(label_items: Tuple[Tuple[str, str], ...]) -> str:
    if not label_items:
        return ""
    rendered = ",".join(
        f'{metric_name(key)}="{str(value).translate(_LABEL_ESCAPES)}"'
        for key, value in label_items
    )
    return "{" + rendered + "}"


def _format_value(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return format(value, ".10g")
