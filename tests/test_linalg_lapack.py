"""Tests for the stacked LAPACK solve and its BLAS thread pin.

:func:`repro.linalg.solve_stack` is held to the hand-written LU oracle
through a scaled-residual bound, not through bytes: LAPACK blocks and
orders its arithmetic differently, so the two agree only to rounding.
The bound is ``relative_residual <= RESIDUAL_FACTOR * n * eps`` for the
stack's dtype, on diagonally dominant stacks whose entries stay clear
of underflow (subnormal results lose relative precision in any
solver); there both solvers measure below ``0.5 * n * eps``.
"""

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.errors import LinalgError
from repro.linalg import (
    batched_solve,
    blas_threads,
    relative_residual,
    solve_stack,
)
from repro.linalg import lapack
from repro.obs.logging import StructuredLogger

#: Multiple of ``n * eps`` a solve's scaled residual must stay under.
RESIDUAL_FACTOR = 4.0


@st.composite
def stacks(draw, dtype=None):
    """A diagonally dominant ``(batch, n, n)`` stack and its ``rhs``."""
    dtype = dtype or draw(st.sampled_from([np.float32, np.float64]))
    batch = draw(st.integers(1, 13))
    n = draw(st.integers(1, 9))
    width = 32 if dtype == np.float32 else 64
    # No magnitudes near underflow: the bound assumes none occurs.
    elements = st.one_of(st.just(0.0),
                         st.floats(0.125, 10.0, width=width),
                         st.floats(-10.0, -0.125, width=width))
    matrices = draw(hnp.arrays(dtype, (batch, n, n), elements=elements))
    shift = np.abs(matrices).sum(axis=(1, 2)) + n
    matrices = matrices + (shift[:, None, None] * np.eye(n)).astype(dtype)
    rhs = draw(hnp.arrays(dtype, (batch, n), elements=elements))
    return matrices, rhs


def bound(matrices) -> float:
    return RESIDUAL_FACTOR * matrices.shape[1] * np.finfo(matrices.dtype).eps


class TestSolveStackProperties:
    @given(stack=stacks())
    @settings(max_examples=80, deadline=None)
    def test_scaled_residual_within_bound_like_the_oracle(self, stack):
        matrices, rhs = stack
        solved = solve_stack(matrices, rhs)
        oracle = batched_solve(matrices, rhs)
        assert solved.dtype == matrices.dtype
        assert solved.shape == rhs.shape
        for a, x, x_oracle, b in zip(matrices, solved, oracle, rhs):
            assert relative_residual(a, x, b) <= bound(matrices)
            assert relative_residual(a, x_oracle, b) <= bound(matrices)

    @given(stack=stacks())
    @settings(max_examples=60, deadline=None)
    def test_member_alone_is_byte_identical_to_member_in_stack(self, stack):
        matrices, rhs = stack
        solved = solve_stack(matrices, rhs)
        for index in range(len(matrices)):
            alone = solve_stack(matrices[index:index + 1], rhs[index:index + 1])
            assert alone[0].tobytes() == solved[index].tobytes()

    @given(stack=stacks(), flip=st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_mixed_float_dtypes_raise(self, stack, flip):
        matrices, rhs = stack
        other = np.float64 if matrices.dtype == np.float32 else np.float32
        if flip:
            matrices = matrices.astype(other)
        else:
            rhs = rhs.astype(other)
        with pytest.raises(LinalgError, match="does not match"):
            solve_stack(matrices, rhs)

    @given(batch=st.integers(1, 13), n=st.integers(1, 9), data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_integer_stacks_promote_to_float64(self, batch, n, data):
        matrices = data.draw(hnp.arrays(np.int64, (batch, n, n),
                                        elements=st.integers(-9, 9)))
        matrices = matrices + (10 * n) * np.eye(n, dtype=np.int64)
        rhs = data.draw(hnp.arrays(np.int32, (batch, n),
                                   elements=st.integers(-9, 9)))
        solved = solve_stack(matrices, rhs)
        assert solved.dtype == np.float64
        expected = solve_stack(matrices.astype(np.float64),
                               rhs.astype(np.float64))
        assert solved.tobytes() == expected.tobytes()


class TestSolveStackErrors:
    def test_names_the_first_singular_member(self, rng):
        matrices = rng.standard_normal((5, 6, 6)) + 6 * np.eye(6)
        matrices[3] = 0.0
        matrices[4, :, 0] = 0.0
        with pytest.raises(LinalgError, match="matrix 3 in the batch is singular"):
            solve_stack(matrices, np.ones((5, 6)))

    @pytest.mark.parametrize("shape", [(4, 4), (2, 3, 4), (1, 2, 2, 2)])
    def test_rejects_non_stacks(self, shape):
        with pytest.raises(LinalgError, match=r"\(batch, n, n\)"):
            solve_stack(np.ones(shape), np.ones(shape[:2]))

    def test_rhs_shape_mismatch(self):
        with pytest.raises(LinalgError, match="rhs shape"):
            solve_stack(np.eye(3)[None], np.ones((1, 4)))


class TestBlasPin:
    def test_pinned_to_one_thread(self):
        threads = blas_threads()
        if threads is None:
            pytest.skip("this NumPy is not linked to OpenBLAS")
        assert threads == lapack.PINNED_THREADS == 1

    def test_missing_setter_logs_once_and_reports_none(self, monkeypatch):
        stream = io.StringIO()
        monkeypatch.setattr(lapack, "_PINNED", False)
        monkeypatch.setattr(lapack, "_THREADS", lapack._THREADS)
        monkeypatch.setattr(lapack, "_openblas_paths", lambda: [])
        monkeypatch.setattr(lapack, "StructuredLogger",
                            lambda fmt: StructuredLogger(fmt, stream))
        assert blas_threads() is None
        assert blas_threads() is None
        lines = stream.getvalue().splitlines()
        assert len(lines) == 1 and '"event":"blas_unpinned"' in lines[0]
        assert solve_stack(np.eye(2)[None], np.ones((1, 2))).tolist() == [[1.0, 1.0]]
