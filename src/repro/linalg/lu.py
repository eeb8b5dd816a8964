"""LU factorization with partial pivoting, written from scratch.

The paper's linear solves are ``dgetrf``/``dgetrs`` calls on batches of
small dense matrices (MKL on the CPU and Xeon Phi, MAGMA on the GPU).
The panel method makes those calls through
:func:`repro.linalg.lapack.solve_stack`; this module is the
single-matrix oracle it is tested against (the batched variant lives
in :mod:`repro.linalg.batched`).  Its flop counts feed the hardware
model's timings.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.errors import LinalgError


@dataclasses.dataclass(frozen=True)
class LUFactorization:
    """Compact LU factorization ``P A = L U``.

    Attributes
    ----------
    lu:
        ``(n, n)`` array holding ``U`` on and above the diagonal and the
        strict lower triangle of ``L`` below it (unit diagonal implied).
    pivots:
        Row permutation as an index array: row ``i`` of the permuted
        matrix was row ``pivots[i]`` of the original.
    n_swaps:
        Number of row interchanges performed (parity of the permutation).
    """

    lu: np.ndarray
    pivots: np.ndarray
    n_swaps: int

    @property
    def n(self) -> int:
        """Dimension of the factored matrix."""
        return self.lu.shape[0]

    def lower(self) -> np.ndarray:
        """The unit lower-triangular factor ``L`` as a dense matrix."""
        lower = np.tril(self.lu, -1)
        np.fill_diagonal(lower, 1.0)
        return lower

    def upper(self) -> np.ndarray:
        """The upper-triangular factor ``U`` as a dense matrix."""
        return np.triu(self.lu)

    def permutation_matrix(self) -> np.ndarray:
        """The permutation ``P`` with ``P A = L U`` as a dense matrix."""
        n = self.n
        perm = np.zeros((n, n), dtype=self.lu.dtype)
        perm[np.arange(n), self.pivots] = 1.0
        return perm

    def determinant(self) -> float:
        """Determinant of the original matrix."""
        sign = -1.0 if self.n_swaps % 2 else 1.0
        return float(sign * np.prod(np.diagonal(self.lu)))


def lu_factor(matrix: np.ndarray, *, overwrite: bool = False) -> LUFactorization:
    """Factor a square matrix as ``P A = L U`` with partial pivoting.

    Raises :class:`LinalgError` when a pivot is exactly zero (the matrix
    is singular to working precision).
    """
    a = np.array(matrix, copy=not overwrite)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise LinalgError(f"expected a square matrix, got shape {a.shape}")
    if not np.issubdtype(a.dtype, np.floating):
        a = a.astype(np.float64)
    n = a.shape[0]
    pivots = np.arange(n)
    n_swaps = 0
    for k in range(n):
        pivot_offset = int(np.argmax(np.abs(a[k:, k])))
        pivot_row = k + pivot_offset
        if a[pivot_row, k] == 0.0:
            raise LinalgError(f"matrix is singular: zero pivot in column {k}")
        if pivot_row != k:
            a[[k, pivot_row]] = a[[pivot_row, k]]
            pivots[[k, pivot_row]] = pivots[[pivot_row, k]]
            n_swaps += 1
        if k + 1 < n:
            a[k + 1:, k] /= a[k, k]
            a[k + 1:, k + 1:] -= np.outer(a[k + 1:, k], a[k, k + 1:])
    return LUFactorization(lu=a, pivots=pivots, n_swaps=n_swaps)


def lu_solve(factorization: LUFactorization, rhs: np.ndarray) -> np.ndarray:
    """Solve ``A x = b`` given the factorization of ``A``.

    ``rhs`` may be a vector or a matrix of stacked right-hand-side
    columns; the result has the same shape.
    """
    from repro.linalg.triangular import solve_lower_unit, solve_upper

    lu = factorization.lu
    b = np.asarray(rhs, dtype=lu.dtype)
    vector_input = b.ndim == 1
    if vector_input:
        b = b[:, None]
    if b.shape[0] != factorization.n:
        raise LinalgError(
            f"rhs has {b.shape[0]} rows but the matrix dimension is {factorization.n}"
        )
    permuted = b[factorization.pivots]
    y = solve_lower_unit(lu, permuted)
    x = solve_upper(lu, y)
    return x[:, 0] if vector_input else x


def solve(matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Convenience wrapper: factor then solve in one call."""
    return lu_solve(lu_factor(matrix), rhs)


def factor_flops(n: int) -> int:
    """Floating-point operations of an ``n x n`` LU factorization.

    The classical count ``2/3 n^3 - n^2/2 - n/6 + n^2`` reduces to the
    leading-order expression the paper quotes, ``(2/3) n^3``.
    """
    return (2 * n**3) // 3


def solve_flops(n: int, n_rhs: int = 1) -> int:
    """Floating-point operations of the two triangular solves."""
    return 2 * n * n * n_rhs
