"""Regression tests for the seams between the slice tuners and the metrics.

Each test class pins one of the PR's satellite bugfixes:

* ``tune_slices``/``tune_distribution`` grid validation (silent skips,
  duplicates, out-of-range candidates),
* honest ``Optional[int]`` annotations and degenerate-timeline
  ``ScheduleError``s in the pipeline metrics,
* ``serve.metrics.percentile`` boundary semantics.

All were demonstrated failing against the pre-fix code.
"""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ScheduleError
from repro.hardware import paper_workstation
from repro.pipeline import Workload, tune_distribution, tune_slices
from repro.pipeline.metrics import HybridMetrics, lower_bound_gap
from repro.serve.metrics import percentile


@pytest.fixture(scope="module")
def workload():
    return Workload(batch=64, n=200, precision="single")


@pytest.fixture(scope="module")
def gpu_station():
    return paper_workstation(sockets=2, accelerator="k80-half", precision="single")


@pytest.fixture(scope="module")
def dual_station():
    return paper_workstation(sockets=2, accelerator="k80-dual", precision="single")


class TestSliceGridValidation:
    def test_all_candidates_exceed_batch_names_grid_and_batch(
            self, workload, gpu_station):
        # Pre-fix: every candidate was skipped silently and the sweep
        # surfaced as a confusing "no feasible slice counts" error.
        with pytest.raises(ScheduleError, match=r"128.*256.*exceeds.*64"):
            tune_slices(workload, gpu_station, candidates=(128, 256))

    def test_duplicates_and_unsorted_grids_are_normalized(
            self, workload, gpu_station):
        # Pre-fix: duplicates were re-simulated and the sweep kept the
        # caller's ordering.
        result = tune_slices(workload, gpu_station,
                             candidates=(10, 5, 5, 1, 10))
        assert [p for p, _ in result.sweep] == [1.0, 5.0, 10.0]

    @pytest.mark.parametrize("bad", [0, -3, 2.5])
    def test_rejects_non_positive_or_fractional_slice_counts(
            self, workload, gpu_station, bad):
        with pytest.raises(ScheduleError, match="positive integers"):
            tune_slices(workload, gpu_station, candidates=(4, bad))

    def test_empty_grid_raises(self, workload, gpu_station):
        with pytest.raises(ScheduleError, match="empty grid"):
            tune_slices(workload, gpu_station, candidates=())

    def test_infeasible_candidates_still_skipped_when_some_fit(
            self, workload, gpu_station):
        result = tune_slices(workload, gpu_station, candidates=(8, 128))
        assert [p for p, _ in result.sweep] == [8.0]


class TestDistributionGridValidation:
    @pytest.mark.parametrize("bad", [0.0, -0.2, 1.5])
    def test_rejects_out_of_range_distributions(
            self, workload, dual_station, bad):
        with pytest.raises(ScheduleError, match=r"\(0, 1\]"):
            tune_distribution(workload, dual_station, candidates=(0.5, bad))

    def test_duplicates_and_unsorted_grids_are_normalized(
            self, workload, dual_station):
        result = tune_distribution(workload, dual_station,
                                   candidates=(0.8, 0.6, 0.6, 0.7))
        assert [p for p, _ in result.sweep] == [0.6, 0.7, 0.8]

    def test_empty_grid_raises(self, workload, dual_station):
        with pytest.raises(ScheduleError, match="empty grid"):
            tune_distribution(workload, dual_station, candidates=())


class TestHonestAnnotationsAndDegenerateMetrics:
    def test_stages_annotations_are_optional(self):
        from repro.pipeline import autotune, schedules, theory
        # Pre-fix these read ``stages: int = None``.
        assert schedules.hybrid.__annotations__["stages"] == "Optional[int]"
        assert theory.predict_hybrid.__annotations__["stages"] == "Optional[int]"
        assert autotune.tune_slices.__annotations__["stages"] == "Optional[int]"

    def _degenerate(self, **overrides):
        fields = dict(name="degenerate", wall_time=0.0, assembly_busy=0.0,
                      assembly_exposed=0.0, solve_busy=0.0, overhead=0.0,
                      baseline_wall_time=1.0)
        fields.update(overrides)
        return HybridMetrics(**fields)

    def test_speedup_zero_wall_time_raises_schedule_error(self):
        # Pre-fix: ZeroDivisionError.
        with pytest.raises(ScheduleError, match="degenerate wall time"):
            self._degenerate().speedup

    def test_speedup_without_baseline_is_still_none(self):
        assert self._degenerate(baseline_wall_time=None).speedup is None

    def test_lower_bound_gap_zero_solve_busy_raises_schedule_error(self):
        # Pre-fix: silently returned math.inf.
        with pytest.raises(ScheduleError, match="degenerate solve busy"):
            lower_bound_gap(self._degenerate(wall_time=1.0))


class TestPercentileBoundaries:
    def test_zero_fraction_is_true_min(self):
        assert percentile([1.0, 2.0, 9.0], 0.0) == 1.0

    def test_one_fraction_is_true_max(self):
        assert percentile([1.0, 2.0, 9.0], 1.0) == 9.0

    @pytest.mark.parametrize("bad", [-0.01, 1.01, 2.0, -1.0, math.nan])
    def test_out_of_range_fraction_raises_value_error(self, bad):
        # Pre-fix: clamped silently to the min/max rank.
        with pytest.raises(ValueError, match="fraction"):
            percentile([1.0, 2.0, 3.0], bad)

    def test_empty_window_is_none_even_at_boundaries(self):
        assert percentile([], 0.0) is None
        assert percentile([], 1.0) is None

    @given(
        values=st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1),
        f1=st.floats(min_value=0.0, max_value=1.0),
        f2=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_monotone_and_always_an_element(self, values, f1, f2):
        window = sorted(values)
        low, high = sorted((f1, f2))
        p_low, p_high = percentile(window, low), percentile(window, high)
        assert p_low in window and p_high in window
        assert p_low <= p_high
