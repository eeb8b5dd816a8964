"""Kernel selection, bit parity, tiling, and degenerate-geometry
regressions.

The fused kernel's contract is the strongest one NumPy can offer:
``tobytes()``-identical to the reference kernel in *both* precisions,
on random field points, across its row-tile boundaries, and on every
system of the serving request mix.  See ``docs/kernels.md``.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.api import MAX_PANELS
from repro.errors import PanelMethodError
from repro.geometry import naca
from repro.geometry.airfoil import Airfoil
from repro.panel import (
    DEFAULT_KERNEL,
    KERNEL_NAMES,
    Freestream,
    assemble,
    resolve_kernel,
    stream_influence_matrix,
    velocity_influence,
)
from repro.panel import kernels as kernels_module
from tests.test_analysis_bodies_fixture import request_mix

DTYPES = (np.float64, np.float32)


def field_points(airfoil, seed):
    """A deterministic mix of hard points: control points, panel
    endpoints (on-surface), and random near/far field points."""
    rng = np.random.default_rng(seed)
    far = rng.uniform(-3.0, 4.0, size=(8, 2))
    near = airfoil.control_points[::7] + rng.uniform(-1e-3, 1e-3, size=(
        len(airfoil.control_points[::7]), 2))
    return np.concatenate([
        airfoil.control_points[::5],
        airfoil.points[:-1:5],
        near,
        far,
    ])


class TestResolveKernel:
    def test_default(self):
        assert resolve_kernel() == DEFAULT_KERNEL == "fused"

    def test_spelling_normalized(self):
        assert resolve_kernel("  Fused ") == "fused"

    def test_unknown_rejected(self):
        with pytest.raises(PanelMethodError, match="unknown assembly kernel"):
            resolve_kernel("simd")

    def test_names_cover_dispatch_tables(self):
        assert set(KERNEL_NAMES) == set(kernels_module._STREAM_KERNELS)
        assert set(KERNEL_NAMES) == set(kernels_module._VELOCITY_KERNELS)


class TestFusedBitParity:
    """The acceptance-criteria property: fused == reference, bytewise."""

    @given(
        code=st.sampled_from(["0012", "2412", "4408", "6321"]),
        n_panels=st.sampled_from([16, 40, 90]),
        seed=st.integers(0, 2 ** 31 - 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_stream_identical_both_dtypes(self, code, n_panels, seed):
        foil = naca(code, n_panels)
        points = field_points(foil, seed)
        for dtype in DTYPES:
            reference = stream_influence_matrix(points, foil, dtype=dtype,
                                                kernel="reference")
            fused = stream_influence_matrix(points, foil, dtype=dtype,
                                            kernel="fused")
            assert fused.dtype == np.dtype(dtype)
            assert fused.tobytes() == reference.tobytes()

    @given(
        code=st.sampled_from(["0012", "2412", "4408", "6321"]),
        n_panels=st.sampled_from([16, 40, 90]),
        seed=st.integers(0, 2 ** 31 - 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_velocity_identical_both_dtypes(self, code, n_panels, seed):
        foil = naca(code, n_panels)
        points = field_points(foil, seed)
        for dtype in DTYPES:
            reference = velocity_influence(points, foil, dtype=dtype,
                                           kernel="reference")
            fused = velocity_influence(points, foil, dtype=dtype,
                                       kernel="fused")
            assert fused.tobytes() == reference.tobytes()


def tile_rows(n_panels, dtype):
    """Target rows per tile of the fused kernels' ``(rows, n+1)`` planes."""
    return kernels_module.TILE_BYTES // (
        (n_panels + 1) * np.dtype(dtype).itemsize)


def tile_points(foil, count, step):
    """*count* points: control points fill the first tile; after it come
    the outline's exact panel endpoints, every third swapped for a
    random field point, so the ``0 * log 0`` guard and the endpoint
    signed zeros act in later tiles too."""
    rng = np.random.default_rng(count)
    head = np.resize(foil.control_points, (min(count, step), 2))
    tail = np.resize(foil.points, (max(count - step, 0), 2))
    tail[1::3] = rng.uniform(-3.0, 4.0, size=tail[1::3].shape)
    return np.concatenate([head, tail])


class TestTileBoundaries:
    """Bit parity when the points do not fill a whole number of tiles."""

    @pytest.mark.parametrize("function",
                             [stream_influence_matrix, velocity_influence])
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("n_panels", [40, 200, 1024])
    def test_partial_and_whole_tiles_match_reference(self, n_panels, dtype,
                                                     function):
        foil = naca("2412", n_panels)
        step = tile_rows(n_panels, dtype)
        assert step > 1
        for count in (0, 1, step - 1, step, step + 1, 2 * step + 1):
            points = tile_points(foil, count, step)
            reference = function(points, foil, dtype=dtype,
                                 kernel="reference")
            fused = function(points, foil, dtype=dtype, kernel="fused")
            assert fused.shape == reference.shape, count
            assert fused.tobytes() == reference.tobytes(), count


class TestSafeLogOut:
    def test_masked_entries_forget_the_buffer(self):
        r_sq = np.array([[0.0, 4.0], [1e-320, 1.0]])
        out = np.full_like(r_sq, 7.0)
        result = kernels_module.safe_log_sq(r_sq, np.float64, out=out)
        assert result is out
        assert result.tobytes() == kernels_module.safe_log_sq(
            r_sq, np.float64).tobytes()


class TestTileScratch:
    """The fused kernels hold one tile of scratch, not the full grid.

    At 64 KiB, n=1,024 in float64 runs 7 rows per tile, so its control
    points take about 150 tiles."""

    @pytest.mark.parametrize("function",
                             [stream_influence_matrix, velocity_influence])
    def test_scratch_under_2_mib_at_max_panels(self, function):
        foil = naca("2412", MAX_PANELS)
        points = foil.control_points
        tracemalloc.start()
        try:
            result = function(points, foil)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - result.nbytes < 2 * 2 ** 20


def near_duplicate_airfoil():
    """A float64 outline with two points 1e-12 apart: legal in double,
    but the pair collapses to one point when cast to float32."""
    points = naca("2412", 40).points.copy()
    extra = points[10] + np.array([1e-12, 0.0])
    outline = np.insert(points, 11, extra, axis=0)
    return Airfoil(points=outline)


class TestDegenerateGeometryRegression:
    """S1: float32 near-duplicate points must not produce NaN/inf.

    Pre-fix, ``_safe_log_sq`` guarded only exact zeros and the panel
    length appeared unclamped in denominators, so the collapsed panel
    yielded 0/0 = NaN across its whole matrix column.
    """

    @pytest.mark.parametrize("kernel", KERNEL_NAMES)
    def test_stream_finite_in_float32(self, kernel):
        foil = near_duplicate_airfoil()
        values = stream_influence_matrix(foil.control_points, foil,
                                         dtype=np.float32, kernel=kernel)
        assert np.all(np.isfinite(values))

    @pytest.mark.parametrize("kernel", KERNEL_NAMES)
    def test_velocity_finite_in_float32(self, kernel):
        foil = near_duplicate_airfoil()
        values = velocity_influence(foil.control_points, foil,
                                    dtype=np.float32, kernel=kernel)
        assert np.all(np.isfinite(values))

    def test_collapsed_panel_contributes_nothing(self):
        foil = near_duplicate_airfoil()
        values = stream_influence_matrix(foil.control_points, foil,
                                         dtype=np.float32)
        assert np.all(values[:, 10] == 0.0)

    @pytest.mark.parametrize("kernel", KERNEL_NAMES)
    def test_double_precision_still_finite(self, kernel):
        foil = near_duplicate_airfoil()
        values = stream_influence_matrix(foil.control_points, foil,
                                         kernel=kernel)
        assert np.all(np.isfinite(values))


def square_airfoil(dtype=np.float64):
    return Airfoil(points=np.array(
        [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [0.0, 0.0]],
        dtype=dtype,
    ))


class TestVelocityPrincipalValues:
    """S4: on-panel, endpoint, and shared-endpoint semantics, pinned
    across both dtypes and both kernels."""

    @pytest.mark.parametrize("kernel", KERNEL_NAMES)
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_on_panel_midpoint_principal_value(self, dtype, kernel):
        # The midpoint of the bottom panel of the unit square: the
        # panel's own tangential influence is the principal value -1/2
        # (eta = +0 selects the outer side), its normal influence is 0
        # by symmetry (r_start == r_end).
        foil = square_airfoil(dtype)
        point = np.array([[0.5, 0.0]], dtype=dtype)
        v = velocity_influence(point, foil, dtype=dtype, kernel=kernel)
        assert v[0, 0] == pytest.approx([-0.5, 0.0], abs=1e-6)
        assert np.all(np.isfinite(v))

    @pytest.mark.parametrize("kernel", KERNEL_NAMES)
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_exact_endpoint_contribution_vanishes(self, dtype, kernel):
        # At a panel's exact endpoint both the subtended angle and the
        # log ratio vanish, so the two panels sharing the corner each
        # contribute exactly zero — symmetrically, unlike the legacy
        # two-arctan2 form whose start endpoint saw a spurious -1/2.
        foil = square_airfoil(dtype)
        corner = np.array([[0.0, 0.0]], dtype=dtype)
        v = velocity_influence(corner, foil, dtype=dtype, kernel=kernel)
        assert np.all(v[0, 0] == 0.0)  # panel starting at the corner
        assert np.all(v[0, 3] == 0.0)  # panel ending at the corner
        assert np.all(np.isfinite(v))

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_edge_points_bitwise_identical_reference_vs_fused(self, dtype):
        foil = square_airfoil(dtype)
        points = np.array(
            [[0.5, 0.0], [0.0, 0.0], [1.0, 1.0], [0.25, 0.0], [1.0, 0.5]],
            dtype=dtype,
        )
        reference = velocity_influence(points, foil, dtype=dtype,
                                       kernel="reference")
        fused = velocity_influence(points, foil, dtype=dtype, kernel="fused")
        assert fused.tobytes() == reference.tobytes()

    @pytest.mark.parametrize("kernel", KERNEL_NAMES)
    def test_airfoil_surface_points_finite_both_dtypes(self, naca2412,
                                                       kernel):
        for dtype in DTYPES:
            v = velocity_influence(naca2412.points[:-1], naca2412,
                                   dtype=dtype, kernel=kernel)
            assert np.all(np.isfinite(v))


class TestRhsDtypeHonesty:
    """S2: the assembled RHS must be computed natively in the system
    dtype, not in float64 and truncated."""

    def test_float32_rhs_is_native_single_precision(self):
        foil = naca("2412", 40)
        freestream = Freestream.from_degrees(3.0)
        system = assemble(foil, freestream, dtype=np.float32)
        expected = freestream.stream_function(foil.control_points,
                                              dtype=np.float32)
        assert system.rhs.dtype == np.float32
        assert system.rhs.tobytes() == expected.tobytes()

    def test_truncated_double_differs_here(self):
        # Documents why the parity above is a real pin: for this exact
        # configuration the pre-fix path (compute in float64, truncate)
        # produces different bytes, so the test above fails pre-fix.
        foil = naca("2412", 40)
        freestream = Freestream.from_degrees(3.0)
        native32 = freestream.stream_function(foil.control_points,
                                              dtype=np.float32)
        truncated = freestream.stream_function(
            foil.control_points).astype(np.float32)
        assert native32.tobytes() != truncated.tobytes()

    def test_float64_rhs_unchanged(self):
        foil = naca("2412", 40)
        freestream = Freestream.from_degrees(3.0)
        system = assemble(foil, freestream)
        legacy = freestream.stream_function(foil.control_points)
        assert system.rhs.tobytes() == legacy.tobytes()

    def test_stream_function_dtype_argument(self):
        freestream = Freestream.from_degrees(30.0)
        points = np.array([[0.3, -0.2], [1.5, 0.7]])
        single = freestream.stream_function(points, dtype=np.float32)
        assert single.dtype == np.float32
        default = freestream.stream_function(points)
        assert default.dtype == np.float64
        assert single == pytest.approx(default, rel=1e-6)


class TestKernelThreading:
    """``assemble(kernel=...)`` reaches the selected kernel."""

    def test_assemble_kernel_parity(self, naca2412):
        freestream = Freestream.from_degrees(2.0)
        fused = assemble(naca2412, freestream, kernel="fused")
        reference = assemble(naca2412, freestream, kernel="reference")
        assert fused.matrix.tobytes() == reference.matrix.tobytes()
        assert fused.rhs.tobytes() == reference.rhs.tobytes()


class TestServingMixParity:
    """Every system of the serving request mix assembles to the same
    bytes on ``reference`` as on the default kernel, so the suite, which
    solves on the default kernel, also covers what it would check on
    ``reference``."""

    def test_reference_and_default_assemble_identical_systems(self):
        for index, request in enumerate(request_mix()):
            airfoil = request.build_airfoil()
            freestream = request.freestream()
            # Every fourth request also runs in float32: the NACA
            # sections at index 0 mod 8, the B-splines at 3 mod 8.
            dtypes = DTYPES if index % 8 in (0, 3) else DTYPES[:1]
            for dtype in dtypes:
                default = assemble(airfoil, freestream, dtype=dtype)
                reference = assemble(airfoil, freestream, dtype=dtype,
                                     kernel="reference")
                where = f"request {index} ({airfoil.name}, {np.dtype(dtype)})"
                assert default.matrix.tobytes() == reference.matrix.tobytes(), where
                assert default.rhs.tobytes() == reference.rhs.tobytes(), where
