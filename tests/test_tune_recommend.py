"""Grid sweeps, ranking semantics, and cluster weight recommendations."""

import pytest

from repro.errors import TuneError
from repro.serve.batcher import MAX_BATCH_CEILING, BatchPolicy
from repro.tune.calibrate import CalibratedWorkstation, StageCost
from repro.tune.recommend import (
    CandidateConfig,
    TuneRecommendation,
    recommend_policy,
    recommend_weights,
)

from tests.test_tune_calibrate import make_snapshot

BATCHING_COSTS = {
    "assembly": StageCost(setup=0.0, unit=0.002),
    "solve": StageCost(setup=0.006, unit=0.001),
    "postprocess": StageCost(setup=0.002, unit=0.0005),
    "serialize": StageCost(setup=0.0, unit=0.0002),
}


def saturated_model():
    """A calibrated model of a saturated max_batch=1 server where the
    per-flush setup makes batching genuinely profitable."""
    snap = make_snapshot(requests=1000, uptime=10.0, batch=1,
                         stage_costs=BATCHING_COSTS, latency_ms=60.0)
    return CalibratedWorkstation.fit(snap, probe=BATCHING_COSTS,
                                     min_samples=16)


class TestGridValidation:
    def test_empty_batch_grid(self):
        with pytest.raises(TuneError, match="empty grid"):
            recommend_policy(saturated_model(),
                             BatchPolicy(max_batch=1, max_wait=0.0),
                             batch_grid=())

    def test_non_integer_batch(self):
        with pytest.raises(TuneError, match="positive integers"):
            recommend_policy(saturated_model(),
                             BatchPolicy(max_batch=1, max_wait=0.0),
                             batch_grid=(1, 2.5))

    def test_batch_grid_beyond_ceiling(self):
        with pytest.raises(TuneError, match="ceiling"):
            recommend_policy(saturated_model(),
                             BatchPolicy(max_batch=1, max_wait=0.0),
                             batch_grid=(MAX_BATCH_CEILING + 1,))

    def test_negative_wait(self):
        with pytest.raises(TuneError, match="milliseconds"):
            recommend_policy(saturated_model(),
                             BatchPolicy(max_batch=1, max_wait=0.0),
                             wait_grid_ms=(-1.0,))

    def test_empty_wait_grid(self):
        with pytest.raises(TuneError, match="empty grid"):
            recommend_policy(saturated_model(),
                             BatchPolicy(max_batch=1, max_wait=0.0),
                             wait_grid_ms=())


class TestRecommendPolicy:
    def test_saturated_server_gets_a_batched_recommendation(self):
        recommendation = recommend_policy(
            saturated_model(), BatchPolicy(max_batch=1, max_wait=0.0))
        assert recommendation.best.max_batch > 1
        assert recommendation.predicted_improvement > 0.10
        assert recommendation.predicted_delta_ms < 0.0

    def test_feasible_candidates_rank_before_infeasible(self):
        recommendation = recommend_policy(
            saturated_model(), BatchPolicy(max_batch=1, max_wait=0.0))
        feasibility = [prediction.feasible
                       for _config, prediction in recommendation.sweep]
        first_infeasible = (feasibility.index(False)
                            if False in feasibility else len(feasibility))
        assert all(feasibility[:first_infeasible])
        assert not any(feasibility[first_infeasible:])

    def test_sweep_is_sorted_by_predicted_latency_among_feasible(self):
        recommendation = recommend_policy(
            saturated_model(), BatchPolicy(max_batch=1, max_wait=0.0))
        feasible = [prediction.latency_seconds
                    for _config, prediction in recommendation.sweep
                    if prediction.feasible]
        assert feasible == sorted(feasible)

    def test_light_load_keeps_small_batches(self):
        snap = make_snapshot(requests=100, uptime=100.0, batch=1,
                             stage_costs=BATCHING_COSTS, latency_ms=12.0)
        calibrated = CalibratedWorkstation.fit(snap, probe=BATCHING_COSTS,
                                               min_samples=16)
        recommendation = recommend_policy(
            calibrated, BatchPolicy(max_batch=1, max_wait=0.0))
        # 1 req/s against ~10ms service: batching buys nothing.
        assert recommendation.predicted_improvement < 0.10


class TestImprovementSemantics:
    def _prediction(self, *, feasible, latency, throughput):
        from repro.tune.calibrate import ServingPrediction

        return ServingPrediction(
            policy=BatchPolicy(max_batch=1, max_wait=0.0), batch_size=1.0,
            service_seconds=latency, latency_seconds=latency,
            throughput_rps=throughput, feasible=feasible,
            utilization=0.5 if feasible else 2.0)

    def _recommendation(self, now, best):
        config = CandidateConfig(max_batch=1, max_wait=0.0)
        return TuneRecommendation(current=config, current_prediction=now,
                                  best=config, best_prediction=best,
                                  sweep=[(config, best)])

    def test_feasible_to_feasible_is_latency_delta(self):
        now = self._prediction(feasible=True, latency=0.040, throughput=25)
        best = self._prediction(feasible=True, latency=0.030, throughput=33)
        assert self._recommendation(now, best).predicted_improvement == (
            pytest.approx(0.25))

    def test_escaping_saturation_is_full_improvement(self):
        now = self._prediction(feasible=False, latency=0.010, throughput=100)
        best = self._prediction(feasible=True, latency=0.030, throughput=300)
        assert self._recommendation(now, best).predicted_improvement == 1.0

    def test_both_infeasible_compares_capacity(self):
        now = self._prediction(feasible=False, latency=0.010, throughput=100)
        best = self._prediction(feasible=False, latency=0.050, throughput=250)
        assert self._recommendation(now, best).predicted_improvement == (
            pytest.approx(0.6))

    def test_no_gain_is_zero_not_negative(self):
        now = self._prediction(feasible=False, latency=0.010, throughput=100)
        best = self._prediction(feasible=False, latency=0.010, throughput=80)
        assert self._recommendation(now, best).predicted_improvement == 0.0


class TestRecommendWeights:
    def test_weights_proportional_to_service_rate(self):
        recommendation = recommend_weights({
            "fast": {"completed": 300.0, "latency_sum_ms": 3000.0},
            "slow": {"completed": 100.0, "latency_sum_ms": 3000.0},
        })
        assert recommendation.weights["fast"] == pytest.approx(0.75)
        assert recommendation.weights["slow"] == pytest.approx(0.25)
        assert recommendation.shift == pytest.approx(0.25)

    def test_idle_replica_keeps_uniform_share(self):
        recommendation = recommend_weights({
            "a": {"completed": 200.0, "latency_sum_ms": 2000.0},
            "b": {"completed": 0.0, "latency_sum_ms": 0.0},
        })
        # No evidence about b: it gets the mean of the observed rates,
        # i.e. an even split rather than starvation.
        assert recommendation.weights["b"] == pytest.approx(0.5)
        assert recommendation.rates["b"] == 0.0

    def test_empty_windows_raise(self):
        with pytest.raises(TuneError, match="no replica windows"):
            recommend_weights({})

    def test_weights_sum_to_one(self):
        recommendation = recommend_weights({
            "a": {"completed": 10.0, "latency_sum_ms": 500.0},
            "b": {"completed": 20.0, "latency_sum_ms": 500.0},
            "c": {"completed": 30.0, "latency_sum_ms": 500.0},
        })
        assert sum(recommendation.weights.values()) == pytest.approx(1.0)
