"""Benchmark trend gate: fresh ``--smoke`` artifacts vs committed baselines.

CI runs the four smoke benchmarks (``bench_serving.py``,
``bench_kernels.py``, ``bench_cluster.py``, ``bench_batching.py``),
each of which writes a
machine-readable ``BENCH_*.json`` artifact, then runs this script to
compare the fresh numbers against the baselines committed under
``benchmarks/baselines/``.  A performance metric that regresses beyond
the configured noise band fails the build; so does a *structural*
regression — a missing artifact, a missing row, or a row that lost a
metric — because silence is how perf regressions usually ship.

The noise band is deliberately wide by default (smoke runs on shared
CI runners are noisy; the gate exists to catch order-of-magnitude
cliffs, not 5% wobble) and configurable per invocation::

    PYTHONPATH=src python benchmarks/check_trend.py \
        --current-dir artifacts [--tolerance 0.5] [--update]

``--tolerance 0.5`` means a lower-is-better metric may double and a
higher-is-better metric may halve before the gate trips.  ``--update``
rewrites the baselines from the current artifacts instead of
comparing (run it locally after an intentional perf change and commit
the result).

The comparison logic is importable (:func:`compare`, :func:`main`) so
the regression test can drive it on synthetic documents.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, List, Optional, Tuple

#: Baselines live next to this script, committed to the repo.
BASELINE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "baselines")

#: Artifact filenames the gate covers.
ARTIFACTS = ("BENCH_serving.json", "BENCH_kernels.json",
             "BENCH_cluster.json", "BENCH_batching.json")

#: Default noise band: a metric may move by this *fraction* in the bad
#: direction before the gate fails (0.5 = half/double).
DEFAULT_TOLERANCE = 0.5

#: Per-benchmark comparison spec: how rows are identified across runs,
#: and which metrics are gated in which direction.  ``higher`` metrics
#: fail when current < baseline * (1 - tolerance); ``lower`` metrics
#: fail when current > baseline * (1 + tolerance).
SPECS = {
    "BENCH_serving.json": {
        "key_fields": ("backend", "max_batch", "deadline_ms"),
        "higher": ("throughput_rps",),
        "lower": ("latency_p99_ms",),
    },
    "BENCH_kernels.json": {
        "key_fields": ("n", "dtype"),
        "higher": ("fused_speedup",),
        "lower": (),
    },
    "BENCH_cluster.json": {
        "key_fields": ("replicas", "killed_one"),
        "higher": ("throughput_rps",),
        "lower": (),
    },
    "BENCH_batching.json": {
        "key_fields": ("config",),
        "higher": ("throughput_rps",),
        "lower": (),
    },
}


def _row_key(row: dict, fields: Tuple[str, ...]) -> str:
    return json.dumps({field: row.get(field) for field in fields},
                      sort_keys=True)


def _index_rows(document: dict, fields: Tuple[str, ...]) -> Dict[str, dict]:
    rows = document.get("rows")
    if not isinstance(rows, list):
        return {}
    indexed: Dict[str, dict] = {}
    for row in rows:
        if isinstance(row, dict):
            indexed[_row_key(row, fields)] = row
    return indexed


def compare(baseline: dict, current: dict, spec: dict, *,
            tolerance: float = DEFAULT_TOLERANCE,
            name: str = "artifact") -> List[str]:
    """Failure messages from comparing one artifact pair (empty = pass).

    Structural failures (rows present in the baseline but absent from
    the current run, or metrics that vanished) are reported alongside
    out-of-band metric moves, with the ratio that tripped the gate.
    """
    failures: List[str] = []
    fields = spec["key_fields"]
    baseline_rows = _index_rows(baseline, fields)
    current_rows = _index_rows(current, fields)
    if not baseline_rows:
        failures.append(f"{name}: baseline has no comparable rows")
        return failures
    for key, base_row in sorted(baseline_rows.items()):
        row = current_rows.get(key)
        if row is None:
            failures.append(f"{name}: row {key} missing from current run")
            continue
        for metric in spec["higher"]:
            failures.extend(_gate(name, key, metric, base_row, row,
                                  tolerance, higher_is_better=True))
        for metric in spec["lower"]:
            failures.extend(_gate(name, key, metric, base_row, row,
                                  tolerance, higher_is_better=False))
    return failures


def _gate(name: str, key: str, metric: str, base_row: dict, row: dict,
          tolerance: float, *, higher_is_better: bool) -> List[str]:
    base = base_row.get(metric)
    if not isinstance(base, (int, float)) or isinstance(base, bool):
        return []  # baseline never recorded it: nothing to gate against
    value = row.get(metric)
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return [f"{name}: row {key} lost metric {metric!r}"]
    if base <= 0:
        return []
    if higher_is_better:
        floor = base * (1.0 - tolerance)
        if value < floor:
            return [f"{name}: {metric} regressed for row {key}: "
                    f"{value:g} < {floor:g} (baseline {base:g}, "
                    f"tolerance {tolerance:g})"]
    else:
        ceiling = base * (1.0 + tolerance)
        if value > ceiling:
            return [f"{name}: {metric} regressed for row {key}: "
                    f"{value:g} > {ceiling:g} (baseline {base:g}, "
                    f"tolerance {tolerance:g})"]
    return []


def _load(path: str) -> Optional[dict]:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, json.JSONDecodeError):
        return None


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--current-dir", default=".", metavar="DIR",
                        help="directory holding the fresh BENCH_*.json "
                             "artifacts (default: cwd)")
    parser.add_argument("--baseline-dir", default=BASELINE_DIR, metavar="DIR",
                        help="directory holding the committed baselines "
                             "(default: benchmarks/baselines/)")
    parser.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE,
                        metavar="FRACTION",
                        help="allowed fractional move in the bad direction "
                             f"before failing (default {DEFAULT_TOLERANCE})")
    parser.add_argument("--update", action="store_true",
                        help="rewrite the baselines from the current "
                             "artifacts instead of comparing")
    arguments = parser.parse_args(argv)
    if not 0.0 < arguments.tolerance:
        print("check_trend: --tolerance must be positive", file=sys.stderr)
        return 2

    if arguments.update:
        os.makedirs(arguments.baseline_dir, exist_ok=True)
        updated = 0
        for filename in ARTIFACTS:
            document = _load(os.path.join(arguments.current_dir, filename))
            if document is None:
                print(f"check_trend: skipping {filename} (no current artifact)")
                continue
            destination = os.path.join(arguments.baseline_dir, filename)
            with open(destination, "w", encoding="utf-8") as handle:
                json.dump(document, handle, indent=2, sort_keys=True)
                handle.write("\n")
            print(f"check_trend: baseline updated: {destination}")
            updated += 1
        return 0 if updated else 2

    failures: List[str] = []
    compared = 0
    for filename in ARTIFACTS:
        baseline = _load(os.path.join(arguments.baseline_dir, filename))
        if baseline is None:
            # A benchmark with no committed baseline is not gated yet;
            # say so loudly rather than silently covering nothing.
            print(f"check_trend: no baseline for {filename}; not gated")
            continue
        current = _load(os.path.join(arguments.current_dir, filename))
        if current is None:
            failures.append(f"{filename}: current artifact missing or "
                            f"unreadable in {arguments.current_dir}")
            continue
        failures.extend(compare(baseline, current, SPECS[filename],
                                tolerance=arguments.tolerance, name=filename))
        compared += 1
    if not compared and not failures:
        print("check_trend: nothing compared (no baselines committed)",
              file=sys.stderr)
        return 2
    for failure in failures:
        print(f"check_trend: FAIL {failure}", file=sys.stderr)
    if failures:
        return 1
    print(f"check_trend: OK ({compared} artifact(s) within "
          f"tolerance {arguments.tolerance:g})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
