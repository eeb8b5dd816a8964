"""Calibration fits from synthetic ``/metrics`` windows.

The round-trip property at the heart of it: build a snapshot pair from
*known* per-stage (setup, unit) costs and a known traffic mix, fit a
:class:`~repro.serve.calibrate.CalibratedWorkstation` from it, and check
the fitted model reproduces the stage costs and the service times they
imply.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CalibrationError
from repro.serve.calibrate import (
    FITTED_STAGES,
    CalibratedWorkstation,
    ObservedMix,
    StageCost,
    delta_counter,
    fit_stage_means,
    probe_stage_curves,
)


def make_snapshot(*, uptime=10.0, requests=320, batch=4, stack=None,
                  stage_costs=None, latency_ms=None, cache_hits=0,
                  n_panels=80, precision="double"):
    """A ``/metrics`` document for *requests* identical requests.

    Every request rode a batch of size *batch*; traced stage spans are
    the full batch span (``setup + batch * unit``), shared verbatim by
    each rider — exactly how the serving tracer aggregates them.
    """
    stack = batch if stack is None else stack
    costs = stage_costs or {
        "assembly": StageCost(setup=0.0, unit=0.002),
        "solve": StageCost(setup=0.004, unit=0.001),
        "postprocess": StageCost(setup=0.0, unit=0.0005),
        "serialize": StageCost(setup=0.0, unit=0.0002),
    }
    stages = {}
    for stage in FITTED_STAGES:
        cost = costs.get(stage, StageCost(setup=0.0, unit=0.0))
        anchor = stack if stage == "solve" else batch
        span_ms = 1e3 * cost.batch_seconds(anchor)
        stages[stage] = {"count": requests, "sum_ms": requests * span_ms}
    if latency_ms is None:
        latency_ms = sum(
            1e3 * costs[stage].batch_seconds(stack if stage == "solve" else batch)
            for stage in costs
        )
    flushes = max(1, requests // batch)
    return {
        "uptime_seconds": uptime,
        "requests": {"admitted": requests + cache_hits,
                     "completed": requests + cache_hits},
        "cache": {"hits": cache_hits},
        "batching": {
            "batch_size_histogram": {str(batch): flushes},
            "stack_size_histogram": {str(stack): flushes},
        },
        "workload": {
            "n_panels_histogram": {str(n_panels): requests},
            "precision_histogram": {precision: requests},
        },
        "latency_hist_ms": {"count": requests + cache_hits,
                            "sum_ms": requests * latency_ms},
        "stages_hist_ms": stages,
    }


class TestWindowReduction:
    def test_delta_counter_absolute_and_windowed(self):
        snap = make_snapshot(requests=100)
        assert delta_counter(snap, None, "requests", "completed") == 100
        later = make_snapshot(requests=150)
        assert delta_counter(later, snap, "requests", "completed") == 50

    def test_delta_counter_missing_path_is_zero(self):
        assert delta_counter({}, None, "no", "such", "path") == 0.0

    def test_fit_stage_means_recovers_mix(self):
        snap = make_snapshot(requests=200, batch=4, n_panels=120)
        means = fit_stage_means(snap)
        assert means.mix.arrival_rate == pytest.approx(20.0)
        assert means.mix.mean_batch == pytest.approx(4.0)
        assert means.mix.n_panels == 120
        assert means.mix.precision == "double"
        assert means.mix.traced == 200

    def test_fit_refuses_thin_window(self):
        snap = make_snapshot(requests=5)
        with pytest.raises(CalibrationError, match="traced solve spans"):
            fit_stage_means(snap, min_samples=16)

    def test_measured_latency_excludes_cache_hits(self):
        # 100 solved requests at 40ms; 100 cache hits contribute zero
        # latency mass but inflate the count.
        snap = make_snapshot(requests=100, latency_ms=40.0, cache_hits=100)
        means = fit_stage_means(snap)
        assert means.mix.measured_latency_ms == pytest.approx(40.0)
        assert means.mix.cache_hit_fraction == pytest.approx(0.5)

    def test_measured_latency_keeps_batchmate_hits(self):
        # 100 requests reached a worker and waited 40 ms each; half of
        # them were answered by a batchmate's solve and count as cache
        # hits next to 100 admission hits.  The batchmates waited
        # through the solve, so they stay in the mean.
        snap = make_snapshot(requests=100, latency_ms=40.0, cache_hits=100)
        snap["cache"]["hits"] += 50
        means = fit_stage_means(snap)
        assert means.mix.measured_latency_ms == pytest.approx(40.0)

    def test_request_weighted_mean_batch(self):
        # 10 flushes of 1 and 10 flushes of 8: most *requests* rode the
        # big batches, so the request-weighted mean is well above the
        # flush-weighted 4.5.
        snap = make_snapshot(requests=90)
        snap["batching"]["batch_size_histogram"] = {"1": 10, "8": 10}
        means = fit_stage_means(snap)
        expected = (1 * 1 * 10 + 8 * 8 * 10) / (1 * 10 + 8 * 10)
        assert means.mix.mean_batch == pytest.approx(expected)


class TestStageCost:
    def test_rejects_negative_and_non_finite(self):
        with pytest.raises(CalibrationError):
            StageCost(setup=-0.001, unit=0.0)
        with pytest.raises(CalibrationError):
            StageCost(setup=0.0, unit=float("nan"))
        with pytest.raises(CalibrationError):
            StageCost(setup=float("inf"), unit=0.0)

    def test_batch_seconds_and_scaled(self):
        cost = StageCost(setup=0.004, unit=0.001)
        assert cost.batch_seconds(8) == pytest.approx(0.012)
        doubled = cost.scaled(2.0)
        assert doubled.setup == pytest.approx(0.008)
        assert doubled.unit == pytest.approx(0.002)


class TestLittlesLaw:
    def test_concurrency_from_window(self):
        snap = make_snapshot(requests=1000, uptime=10.0, latency_ms=50.0)
        mix = fit_stage_means(snap).mix
        # 100 req/s at 50ms in flight: ~5 requests resident.
        assert mix.concurrency == pytest.approx(5.0)

    def test_concurrency_zero_without_latency(self):
        mix = ObservedMix(window_seconds=1.0, admitted=0.0, completed=0.0,
                          arrival_rate=0.0, cache_hit_fraction=0.0,
                          mean_batch=1.0, mean_stack=1.0, traced=0.0,
                          n_panels=80, precision="double",
                          measured_latency_ms=None)
        assert mix.concurrency == 0.0

    def test_backlog_floors_the_simulated_batch(self):
        """A standing queue lets the drain form big flushes — the
        arrival-rate fixed point alone can't see it."""
        costs = {"assembly": StageCost(setup=0.0, unit=0.002),
                 "solve": StageCost(setup=0.006, unit=0.001),
                 "postprocess": StageCost(setup=0.0, unit=0.0005),
                 "serialize": StageCost(setup=0.0, unit=0.0002)}
        # Saturated window: measured latency far above per-request cost.
        snap = make_snapshot(requests=1000, uptime=10.0, batch=1,
                             stage_costs=costs, latency_ms=60.0)
        calibrated = CalibratedWorkstation.fit(
            snap, probe=costs, min_samples=16)
        assert calibrated.mix.concurrency == pytest.approx(6.0)
        saturated = calibrated.simulate(16)
        assert saturated.batch_size == pytest.approx(6.0)
        # Latency is bounded below by Little's law, not the bare service.
        assert saturated.latency_seconds >= (
            calibrated.mix.concurrency / saturated.throughput_rps) - 1e-9
        # The policy cap still binds.
        capped = calibrated.simulate(2)
        assert capped.batch_size == pytest.approx(2.0)

    def test_light_load_is_unchanged_by_the_floor(self):
        snap = make_snapshot(requests=100, uptime=100.0, batch=1,
                             latency_ms=8.0)
        calibrated = CalibratedWorkstation.fit(snap, min_samples=16)
        assert calibrated.mix.concurrency < 0.1
        prediction = calibrated.simulate(16)
        assert prediction.batch_size == pytest.approx(1.0)


class TestRoundTrip:
    @settings(max_examples=25, deadline=None)
    @given(
        setup_ms=st.floats(min_value=0.5, max_value=20.0),
        unit_ms=st.floats(min_value=0.2, max_value=10.0),
        batch=st.integers(min_value=1, max_value=32),
    )
    def test_probe_anchored_fit_recovers_stage_costs(self, setup_ms,
                                                     unit_ms, batch):
        """Snapshot built from known costs + exact probe curves → the
        fitted model reproduces service times at every batch size."""
        truth = {
            "assembly": StageCost(setup=0.0, unit=unit_ms / 1e3),
            "solve": StageCost(setup=setup_ms / 1e3, unit=unit_ms / 1e3),
            "postprocess": StageCost(setup=0.0, unit=0.0005),
            "serialize": StageCost(setup=0.0, unit=0.0002),
        }
        snap = make_snapshot(requests=640, batch=batch, stage_costs=truth)
        calibrated = CalibratedWorkstation.fit(snap, probe=truth,
                                               min_samples=16)
        assert calibrated.source == "live+probe"
        for probe_batch in (1, batch, 2 * batch):
            expected = sum(cost.batch_seconds(probe_batch)
                           for cost in truth.values())
            fitted = calibrated.service_seconds(probe_batch)
            assert fitted == pytest.approx(expected, rel=1e-6)

    def test_live_only_fit_hits_the_operating_point(self):
        snap = make_snapshot(requests=320, batch=4)
        calibrated = CalibratedWorkstation.fit(snap, min_samples=16)
        assert calibrated.source == "live"
        # Zero setup: the whole mean is marginal, so the model is exact
        # at the observed batch size (and blind to batching gains).
        per_request = calibrated.service_seconds(4) / 4
        assert calibrated.service_seconds(8) / 8 == pytest.approx(per_request)

    def test_probe_rescaled_to_live_level(self):
        truth = {
            "assembly": StageCost(setup=0.0, unit=0.002),
            "solve": StageCost(setup=0.004, unit=0.001),
            "postprocess": StageCost(setup=0.0, unit=0.0005),
            "serialize": StageCost(setup=0.0, unit=0.0002),
        }
        snap = make_snapshot(requests=320, batch=4, stage_costs=truth)
        # Probe curves with the right *shape* but half the level (a
        # probe on an idle machine races ahead of loaded reality).
        half = {stage: cost.scaled(0.5) for stage, cost in truth.items()}
        calibrated = CalibratedWorkstation.fit(snap, probe=half,
                                               min_samples=16)
        expected = sum(cost.batch_seconds(4) for cost in truth.values())
        assert calibrated.service_seconds(4) == pytest.approx(expected,
                                                              rel=1e-6)


class TestValidate:
    def test_within_tolerance_band_is_symmetric(self):
        snap = make_snapshot(requests=100, uptime=100.0, latency_ms=10.0)
        calibrated = CalibratedWorkstation.fit(snap, min_samples=16)
        report = calibrated.validate(1, tolerance=0.5)
        assert report.ratio is not None
        assert report.within_tolerance == (
            1.0 / 1.5 <= report.ratio <= 1.5)

    def test_saturated_window_validates_via_littles_law(self):
        """Under a standing queue the measured latency is queue-dominated;
        the Little's-law bound keeps the prediction in band anyway."""
        snap = make_snapshot(requests=1000, uptime=10.0, batch=1,
                             latency_ms=60.0)
        calibrated = CalibratedWorkstation.fit(snap, min_samples=16)
        report = calibrated.validate(1, tolerance=1.0)
        assert report.within_tolerance


class TestProbe:
    def test_probe_measures_real_curves(self):
        curves = probe_stage_curves(n_panels=40, sizes=(1, 4), repeats=1)
        assert set(curves) <= set(FITTED_STAGES)
        assert "solve" in curves and "assembly" in curves
        for cost in curves.values():
            assert math.isfinite(cost.setup) and cost.setup >= 0.0
            assert math.isfinite(cost.unit) and cost.unit >= 0.0
        # Larger batches can't be predicted cheaper than smaller ones.
        total_1 = sum(c.batch_seconds(1) for c in curves.values())
        total_4 = sum(c.batch_seconds(4) for c in curves.values())
        assert total_4 >= total_1


class TestPaperBridge:
    def test_as_workstation_runs_the_paper_tuner(self):
        snap = make_snapshot(requests=320, batch=4, n_panels=100)
        calibrated = CalibratedWorkstation.fit(snap, min_samples=16)
        station = calibrated.as_workstation()
        from repro.pipeline.autotune import tune_slices
        from repro.pipeline.workload import Workload

        result = tune_slices(Workload(batch=256, n=100, precision="double"),
                             station)
        assert result.best_wall_time > 0.0
