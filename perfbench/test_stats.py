"""Tests of the benchmark's own arithmetic.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import math

import pytest

import stats
from workloads import Inputs


# -- percentiles and the ten-samples-beyond guard ------------------------

def test_quantile_is_nearest_rank():
    values = list(range(1, 101))  # 1..100
    assert stats.quantile(values, 0.5) == 50
    assert stats.quantile(values, 0.95) == 95
    assert stats.quantile(values, 0.0) == 1
    assert stats.quantile(values, 1.0) == 100
    assert stats.quantile([7.0], 0.99) == 7.0
    assert stats.quantile([3, 1, 2], 0.5) == 2  # sorts its input


def test_quantile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        stats.quantile([], 0.5)
    with pytest.raises(ValueError):
        stats.quantile([1.0], 1.5)


def test_beyond_counts_samples_above_the_rank():
    assert stats.beyond(200, 0.95) == 10
    assert stats.beyond(199, 0.95) == 9
    assert stats.beyond(1000, 0.99) == 10
    assert stats.beyond(0, 0.5) == 0


@pytest.mark.parametrize("n, q, ok", [
    (200, 0.95, True), (199, 0.95, False),
    (1000, 0.99, True), (999, 0.99, False),
    (100, 0.90, True), (20, 0.50, True), (19, 0.50, False),
])
def test_supported_needs_ten_beyond(n, q, ok):
    assert stats.supported(n, q) is ok


def test_highest_supported_walks_the_ladder():
    assert stats.highest_supported(10_000) == 0.999
    assert stats.highest_supported(1000) == 0.99
    assert stats.highest_supported(999) == 0.98
    assert stats.highest_supported(300) == 0.95
    assert stats.highest_supported(150) == 0.90
    assert stats.highest_supported(19) is None


def test_tail_refuses_an_unsupported_percentile():
    assert stats.tail(list(range(200))) == stats.quantile(range(200), 0.95)
    with pytest.raises(ValueError, match="samples beyond"):
        stats.tail(list(range(199)))


# -- the open-loop schedule and the seeded inputs --------------------------

def test_open_loop_schedule_is_fixed_rate():
    dues = stats.open_loop_schedule(10.0, 3)
    assert len(dues) == 30
    assert dues[0] == 0.0
    assert all(math.isclose(b - a, 0.1) for a, b in zip(dues, dues[1:]))
    with pytest.raises(ValueError):
        stats.open_loop_schedule(0.0, 3)


def test_cold_inputs_are_deterministic_per_seed():
    first, again = Inputs("analyze_cold", 7, 5), Inputs("analyze_cold", 7, 5)
    assert first.record() == again.record()
    assert first.probes == again.probes
    other = Inputs("analyze_cold", 8, 5)
    assert [p for _, p in other.schedule] != [p for _, p in first.schedule]


def test_cold_payloads_are_all_distinct():
    inputs = Inputs("analyze_cold", 3, 10)
    payloads = inputs.warmup + inputs.probes + [p for _, p in inputs.schedule]
    keys = {(p["airfoil"], p["alpha_degrees"]) for p in payloads}
    assert len(keys) == len(payloads)


def test_hot_draws_are_deterministic_and_in_range():
    inputs = Inputs("analyze_hot", 5, 5)
    draws = inputs.draws(0)
    first = [next(draws) for _ in range(600)]
    again = inputs.draws(0)
    assert first == [next(again) for _ in range(600)]
    other = inputs.draws(1)
    assert first != [next(other) for _ in range(600)]
    assert set(first) <= set(range(len(inputs.keys)))


def test_ga_spec_scales_with_seconds_and_carries_the_seed():
    spec = Inputs("ga_job", 4, 30).job_spec
    assert spec["seed"] == 4
    assert spec["ga"]["generations"] == 120
    assert spec["checkpoint_every"] == 1


# -- lateness accounting ----------------------------------------------------

def test_lateness_splits_generator_and_server_time():
    records = [
        # on time: connection free before the due time
        {"due": 1.0, "free": 0.5, "sent": 1.0, "done": 1.3},
        # the generator overslept by 2 ms on a free connection
        {"due": 2.0, "free": 1.9, "sent": 2.002, "done": 2.2},
        # both connections busy until 3.5: server-caused lag
        {"due": 3.0, "free": 3.5, "sent": 3.5, "done": 3.6},
    ]
    late = stats.lateness(records)
    assert late["latency"] == pytest.approx([0.3, 0.2, 0.6])
    assert late["lag"] == pytest.approx([0.0, 0.002, 0.5])
    assert late["self_lag"] == pytest.approx([0.0, 0.002, 0.0])
    closed = stats.lateness(records, from_send=True)["latency"]
    assert closed == pytest.approx([0.3, 0.198, 0.1])


# -- the ledger ----------------------------------------------------------------

def test_unattributed_frac_is_the_unexplained_share():
    layers = {"http": 40.0, "assembly": 5.0, "solve": 15.0}
    assert stats.unattributed_frac(layers, 80.0) == pytest.approx(0.25)
    assert stats.unattributed_frac(layers, 60.0) == pytest.approx(0.0)
    assert stats.unattributed_frac(layers, 50.0) == pytest.approx(-0.2)
    with pytest.raises(ValueError):
        stats.unattributed_frac(layers, 0.0)
