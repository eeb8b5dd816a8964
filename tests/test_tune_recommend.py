"""Cluster weight recommendations from per-replica ``/metrics`` windows."""

import pytest

from repro.errors import CalibrationError
from repro.serve.calibrate import recommend_weights


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
        with pytest.raises(CalibrationError, match="no replica windows"):
            recommend_weights({})

    def test_weights_sum_to_one(self):
        recommendation = recommend_weights({
            "a": {"completed": 10.0, "latency_sum_ms": 500.0},
            "b": {"completed": 20.0, "latency_sum_ms": 500.0},
            "c": {"completed": 30.0, "latency_sum_ms": 500.0},
        })
        assert sum(recommendation.weights.values()) == pytest.approx(1.0)
