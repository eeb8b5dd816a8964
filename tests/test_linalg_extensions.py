"""Tests for mixed-precision iterative refinement."""

import numpy as np
import pytest

from repro.errors import LinalgError
from repro.geometry import naca
from repro.linalg import refine_solve, solve
from repro.panel import Freestream, assemble


def panel_system(n=120, alpha=4.0):
    system = assemble(naca("2412", n), Freestream.from_degrees(alpha))
    return (np.asarray(system.matrix, np.float64),
            np.asarray(system.rhs, np.float64))


class TestIterativeRefinement:
    def test_reaches_double_precision_on_panel_system(self):
        matrix, rhs = panel_system()
        result = refine_solve(matrix, rhs)
        assert result.converged
        assert result.residual_norms[-1] < 1e-12
        reference = solve(matrix, rhs)
        assert result.solution == pytest.approx(reference, abs=1e-8)

    def test_few_iterations_suffice(self):
        """Well-conditioned panel systems refine in 1-3 sweeps."""
        matrix, rhs = panel_system()
        result = refine_solve(matrix, rhs)
        assert result.iterations <= 3

    def test_residual_decreases(self):
        matrix, rhs = panel_system(n=80)
        result = refine_solve(matrix, rhs)
        norms = result.residual_norms
        assert norms[-1] < norms[0]

    def test_first_residual_is_single_precision(self):
        """Before refinement the residual sits at float32 accuracy."""
        matrix, rhs = panel_system(n=80)
        result = refine_solve(matrix, rhs)
        assert 1e-9 < result.residual_norms[0] < 1e-4

    def test_random_well_conditioned(self, rng):
        a = rng.standard_normal((60, 60)) + 60 * np.eye(60)
        b = rng.standard_normal(60)
        result = refine_solve(a, b)
        assert result.converged
        assert result.solution == pytest.approx(np.linalg.solve(a, b), abs=1e-9)

    def test_shape_errors(self):
        with pytest.raises(LinalgError):
            refine_solve(np.ones((2, 3)), np.ones(2))
        with pytest.raises(LinalgError):
            refine_solve(np.eye(3), np.ones(4))

    def test_zero_matrix(self):
        with pytest.raises(LinalgError):
            refine_solve(np.zeros((3, 3)), np.ones(3))

    def test_iteration_cap_respected(self, rng):
        # A nastier matrix: moderate conditioning still converges but
        # the cap must bound the work.
        a = rng.standard_normal((40, 40)) + 8 * np.eye(40)
        b = rng.standard_normal(40)
        result = refine_solve(a, b, max_iterations=2)
        assert result.iterations <= 2
