"""Dense linear algebra: the LAPACK solve path and its LU oracle.

Every panel system is solved by :func:`solve_stack`
(:mod:`repro.linalg.lapack`), which hands a ``(batch, n, n)`` stack to
LAPACK through ``numpy.linalg.solve`` with OpenBLAS pinned to one
thread — the ``getrf``/``getrs`` calls the paper makes through MKL.

The hand-written LU (:mod:`repro.linalg.lu`, :mod:`repro.linalg.batched`,
:mod:`repro.linalg.triangular`) is the oracle: tests hold the LAPACK
solves to a scaled-residual bound (:func:`relative_residual`) and
``perfbench`` times it as a per-layer reference.  Its flop counts feed
the hardware model.
"""

from repro.linalg.analysis import (
    condition_estimate_1norm,
    frobenius_norm,
    infinity_norm,
    one_norm,
    relative_residual,
)
from repro.linalg.refinement import RefinementResult, refine_solve
from repro.linalg.batched import (
    BatchedLU,
    batched_flops,
    batched_lu_factor,
    batched_lu_solve,
    batched_solve,
)
from repro.linalg.lapack import blas_threads, solve_stack
from repro.linalg.lu import (
    LUFactorization,
    factor_flops,
    lu_factor,
    lu_solve,
    solve,
    solve_flops,
)
from repro.linalg.triangular import solve_lower, solve_lower_unit, solve_upper

__all__ = [
    "BatchedLU",
    "LUFactorization",
    "RefinementResult",
    "refine_solve",
    "batched_flops",
    "batched_lu_factor",
    "batched_lu_solve",
    "batched_solve",
    "blas_threads",
    "condition_estimate_1norm",
    "factor_flops",
    "frobenius_norm",
    "infinity_norm",
    "lu_factor",
    "lu_solve",
    "one_norm",
    "relative_residual",
    "solve",
    "solve_flops",
    "solve_stack",
    "solve_lower",
    "solve_lower_unit",
    "solve_upper",
]
