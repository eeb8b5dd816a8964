"""Real-compute micro-benchmarks of the library's numerical kernels.

Unlike the table/figure benches (which report *simulated* seconds),
these measure the actual NumPy kernels on the host running the test
suite: influence-matrix assembly and the batched LU solve.  They give
pytest-benchmark something physically meaningful to time and document
the real (interpreter-bound) throughput of the reproduction — the
reason the paper's wall-clock numbers are simulated rather than
measured (see DESIGN.md).

The kernel sweep times the two assembly kernels (``reference`` and
``fused`` — see ``docs/kernels.md``) against each other across sizes
and precisions and writes the machine-readable
``BENCH_kernels.json`` artifact via :func:`conftest.write_bench_json`,
honouring ``BENCH_OUTPUT_DIR``.  The fused kernel must beat the
reference by at least :data:`MIN_FUSED_SPEEDUP` at n=200 double — the
CI acceptance gate for the transcendental-sharing rewrite.

Also runnable standalone::

    PYTHONPATH=src python benchmarks/bench_kernels.py [--smoke]
        [--output BENCH_kernels.json]
"""

import argparse
import json
import os
import time

import numpy as np
import pytest

from repro.geometry import naca
from repro.linalg import batched_lu_factor, batched_lu_solve
from repro.panel import (
    Freestream,
    assemble,
    assemble_batch,
    stream_influence_matrix,
)

#: Panel counts swept by the full benchmark; ``--smoke`` keeps only
#: the paper's canonical n=200.
SWEEP_SIZES = (100, 200, 400)
SMOKE_SIZES = (200,)

#: Timing repetitions (best-of) per row.
REPEATS = 7
SMOKE_REPEATS = 5

#: CI acceptance gate: fused over reference at n=200 double.
MIN_FUSED_SPEEDUP = 2.0

#: Default artifact filename (see ``conftest.write_bench_json``).
OUTPUT_FILENAME = "BENCH_kernels.json"


@pytest.fixture(scope="module")
def foil200():
    return naca("2412", 200)


@pytest.fixture(scope="module")
def batch_systems():
    foils = [naca("2412", 100), naca("0012", 100), naca("4412", 100),
             naca("2212", 100)] * 4
    matrices, rhs, _ = assemble_batch(foils, Freestream.from_degrees(2.0))
    return matrices, rhs


def test_assembly_n200_double(benchmark, foil200):
    """One 200-panel system assembly (the paper's per-candidate unit)."""
    system = benchmark(assemble, foil200, Freestream.from_degrees(2.0))
    assert system.matrix.shape == (200, 200)


def test_assembly_n200_single(benchmark, foil200):
    """Single-precision assembly of the same system."""
    system = benchmark(assemble, foil200, Freestream.from_degrees(2.0),
                       dtype=np.float32)
    assert system.matrix.dtype == np.float32


def test_assembly_n200_reference_kernel(benchmark, foil200):
    """The same assembly through the readable reference kernel."""
    system = benchmark(assemble, foil200, Freestream.from_degrees(2.0),
                       kernel="reference")
    assert system.matrix.shape == (200, 200)


def test_batched_lu_factor_16x100(benchmark, batch_systems):
    """Batched factorization of 16 systems of dimension 100."""
    matrices, _ = batch_systems
    factors = benchmark(batched_lu_factor, matrices)
    assert factors.batch == 16


def test_batched_lu_solve_16x100(benchmark, batch_systems):
    """Batched triangular solves for 16 systems of dimension 100."""
    matrices, rhs = batch_systems
    factors = batched_lu_factor(matrices)
    solution = benchmark(batched_lu_solve, factors, rhs)
    residual = np.einsum("bij,bj->bi", matrices, solution) - rhs
    assert np.max(np.abs(residual)) < 1e-8


# ----------------------------------------------------------------------
# Kernel sweep (the BENCH_kernels.json artifact)
# ----------------------------------------------------------------------

def _best_of_interleaved(functions, repeats):
    """Best wall time per function over *repeats* interleaved rounds.

    Timing the contenders round-robin (reference, fused, reference,
    ...) instead of back-to-back blocks means slow drift on
    a noisy host (CI neighbours, thermal throttling) hits every kernel
    equally, so the *ratios* the gate asserts on stay stable even when
    the absolute times wobble.  One untimed warmup per function.
    """
    for function in functions.values():
        function()
    best = {name: float("inf") for name in functions}
    for _ in range(repeats):
        for name, function in functions.items():
            started = time.perf_counter()
            function()
            best[name] = min(best[name], time.perf_counter() - started)
    return best


def kernel_sweep(*, smoke=False):
    """Time every (size, dtype, kernel) assembly combination.

    Returns the rows plus the fused-over-reference speedups that the
    CI gate (:func:`check_sweep`) asserts on.
    """
    sizes = SMOKE_SIZES if smoke else SWEEP_SIZES
    repeats = SMOKE_REPEATS if smoke else REPEATS
    rows = []
    for n in sizes:
        foil = naca("2412", n)
        points = foil.control_points
        for dtype in (np.float64, np.float32):
            timings = _best_of_interleaved(
                {
                    kernel: (lambda kernel=kernel: stream_influence_matrix(
                        points, foil, dtype=dtype, kernel=kernel))
                    for kernel in ("reference", "fused")
                },
                repeats,
            )
            rows.append({
                "n": n, "dtype": np.dtype(dtype).name,
                "seconds": {k: round(t, 6) for k, t in timings.items()},
                "fused_speedup": round(
                    timings["reference"] / max(timings["fused"], 1e-12), 3
                ),
            })
    return {
        "benchmark": "kernels",
        "smoke": smoke,
        "min_fused_speedup": MIN_FUSED_SPEEDUP,
        "rows": rows,
    }


def check_sweep(artifact):
    """The acceptance gate: fused beats reference at n=200 double."""
    gated = [row for row in artifact["rows"]
             if row["n"] == 200 and row["dtype"] == "float64"]
    assert gated, "sweep must include the n=200 float64 row"
    for row in gated:
        assert row["fused_speedup"] >= MIN_FUSED_SPEEDUP, (
            f"fused kernel speedup {row['fused_speedup']}x at n=200 "
            f"float64 is below the {MIN_FUSED_SPEEDUP}x gate"
        )


def test_kernel_sweep_smoke():
    """The CI gate, runnable inside pytest as well as standalone."""
    from conftest import write_bench_json

    artifact = kernel_sweep(smoke=True)
    print("\n" + json.dumps(artifact["rows"], indent=2))
    check_sweep(artifact)
    path = write_bench_json(OUTPUT_FILENAME, artifact)
    print(f"wrote {path}")


if __name__ == "__main__":
    import sys

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from conftest import write_bench_json

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="reduced sweep for CI smoke runs")
    parser.add_argument("--output", default=OUTPUT_FILENAME, metavar="FILE",
                        help="artifact filename (relative paths land in "
                             "$BENCH_OUTPUT_DIR when set; default "
                             f"{OUTPUT_FILENAME})")
    arguments = parser.parse_args()
    result = kernel_sweep(smoke=arguments.smoke)
    print(json.dumps(result, indent=2))
    check_sweep(result)
    artifact_path = write_bench_json(arguments.output, result)
    print(f"wrote {artifact_path}")
