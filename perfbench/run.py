"""End-to-end HTTP benchmark of ``python -m repro serve`` with a per-layer ledger.

Run from the repository root::

    python3 perfbench/run.py --workload analyze_cold --seed 1 --seconds 20 --trace 0

``--trace 0`` times what a client sees and reports the end-to-end
metrics; ``--trace 1`` reruns the workload against a tracing server,
replays the same seeded inputs in process through each layer's public
calls, and reports the per-layer metrics and the ledger.  The last line
of standard output is one JSON object; the lines before it are the same
numbers for people, plus the run record (seed, inputs, nproc, server
pids).  Exit code 1 means a wrong answer, 2 a broken checkout.
See ``README.md`` in this directory for every metric.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK_DIR = os.path.join(ROOT, "perfbench", "_work")
WORKLOADS = ("analyze_cold", "analyze_hot", "ga_job")

#: Server spawns per ``--trace 0`` run; ``setup_s`` is their median.
SETUPS = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"error: no src/repro package under {ROOT}; run from a full "
              "checkout of the repository", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds < 1:
        print("error: --seed must be >= 0 and --seconds >= 1", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    for key in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[key]  # measure the defaults, in and out of process

    import drive  # needs repro on the path

    work = os.path.join(WORK_DIR, str(os.getpid()))
    os.makedirs(work)
    os.environ["TMPDIR"] = work
    try:
        if args.trace:
            result = drive.traced_run(ROOT, work, args.workload, args.seed,
                                      args.seconds)
        else:
            result = drive.timed_run(ROOT, work, args.workload, args.seed,
                                     args.seconds, setups=SETUPS)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            os.rmdir(WORK_DIR)

    record = dict(result.record, seed=args.seed, workload=args.workload,
                  nproc=os.cpu_count(), trace=args.trace)
    print("run-record " + json.dumps(record, sort_keys=True))
    for name, (value, unit) in result.metrics.items():
        print(f"{name:<34} {value:>14.6g} {unit}")
    for line in result.notes:
        print(line)
    wrong = len(result.wrong)
    for message in result.wrong[:10]:
        print(f"WRONG ANSWER: {message}")
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result.metrics.items()},
    }))
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
