"""Tests for sharding a solve stack across threads.

Covers the shard plan, byte-identity of sharded and unsharded solves
(including a hypothesis property over stack sizes on both sides of the
cut-off, both precisions and mixed panel counts),
the single wall-time envelope per stage, and failure isolation: a
singular system fails only its own request, and the GA's batched
evaluator still returns the serial record for every genome.
"""

import dataclasses
import itertools
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import api
from repro.core.api import (
    MIN_SYSTEMS_PER_SHARD,
    AnalyzeRequest,
    SolvedSystem,
    canonical_json,
    evaluate_requests,
    merge_envelope,
    plan_shards,
    serialize_analysis,
    solve_request_systems,
)
from repro.errors import GeometryError, LinalgError
from repro.jobs import BatchedGenerationEvaluator
from repro.optimize.fitness import FitnessEvaluator
from repro.optimize.genome import GenomeLayout
from tests.test_jobs_evaluator import records_identical


def with_cores(cores, call, *args, **kwargs):
    """Run *call* as if this process could use *cores* CPUs."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(api, "usable_cores", lambda: cores)
        return call(*args, **kwargs)


def requests_mixed():
    """A batch with mixed sizes, precisions, and one bad geometry."""
    return [
        AnalyzeRequest(airfoil="2412", alpha_degrees=0.0, n_panels=80),
        AnalyzeRequest(airfoil="2412", alpha_degrees=4.0, n_panels=80),
        AnalyzeRequest(airfoil="0012", alpha_degrees=2.0, n_panels=60,
                       precision="single", reynolds=None),
        AnalyzeRequest(airfoil="99zz", alpha_degrees=0.0, n_panels=60),
        AnalyzeRequest(airfoil="4412", alpha_degrees=1.0, n_panels=80,
                       reynolds=5e5),
        AnalyzeRequest(airfoil="0012", alpha_degrees=3.0, n_panels=60),
        AnalyzeRequest(airfoil="2412", alpha_degrees=5.0, n_panels=60,
                       precision="single", reynolds=None),
        AnalyzeRequest(airfoil="4412", alpha_degrees=2.0, n_panels=80),
    ]


def serialized(requests, outcomes):
    out = []
    for request, outcome in zip(requests, outcomes):
        if isinstance(outcome, BaseException):
            out.append((type(outcome).__name__, str(outcome)))
        else:
            out.append(canonical_json(serialize_analysis(request, outcome)))
    return out


def assert_same_bits(ours, theirs):
    assert len(ours) == len(theirs)
    for left, right in zip(ours, theirs):
        if isinstance(left, BaseException):
            assert type(left) is type(right) and str(left) == str(right)
            continue
        left_gamma, right_gamma = np.asarray(left.gamma), np.asarray(right.gamma)
        assert left_gamma.dtype == right_gamma.dtype
        assert left_gamma.tobytes() == right_gamma.tobytes()
        assert left.constant == right.constant


class TestShardPlanning:
    def test_balanced_contiguous_cover(self):
        bounds = plan_shards(10, 3)
        assert bounds == [(0, 4), (4, 7), (7, 10)]

    def test_never_empty_shards(self):
        assert plan_shards(2, 4) == [(0, 1), (1, 2)]
        assert plan_shards(1, 4) == [(0, 1)]

    def test_single_shard(self):
        assert plan_shards(5, 1) == [(0, 5)]

    def test_merge_envelope(self):
        assert merge_envelope([(1.0, 2.0), (1.5, 3.0)]) == (1.0, 3.0)
        assert merge_envelope([]) is None

    def test_small_stacks_stay_in_the_calling_thread(self, monkeypatch):
        """Below MIN_SYSTEMS_PER_SHARD per core no thread is started."""
        threads = set()
        original = api.assemble

        def recording_assemble(*args, **kwargs):
            threads.add(threading.get_ident())
            return original(*args, **kwargs)

        monkeypatch.setattr(api, "assemble", recording_assemble)
        monkeypatch.setattr(api, "usable_cores", lambda: 2)
        requests = [AnalyzeRequest(airfoil="0012", alpha_degrees=float(a),
                                   n_panels=40, reynolds=None)
                    for a in range(2 * MIN_SYSTEMS_PER_SHARD)]
        solve_request_systems(requests[:-1])
        assert threads == {threading.get_ident()}
        threads.clear()
        solve_request_systems(requests)
        assert threads and threading.get_ident() not in threads


class TestByteIdentity:
    def test_sharded_responses_match_unsharded(self):
        requests = requests_mixed()
        baseline = serialized(requests,
                              with_cores(1, evaluate_requests, requests))
        outcomes = with_cores(2, evaluate_requests, requests)
        assert serialized(requests, outcomes) == baseline
        assert isinstance(outcomes[3], GeometryError)

    def test_single_request_single_shard(self):
        request = AnalyzeRequest(airfoil="2412", alpha_degrees=2.0,
                                 n_panels=70)
        assert_same_bits(with_cores(1, solve_request_systems, [request]),
                         with_cores(8, solve_request_systems, [request]))

    def test_empty_batch(self):
        assert with_cores(2, solve_request_systems, []) == []

    def test_gamma_bits_match_exactly(self):
        """Not just serialized equality: the circulation rows of a
        sharded solve are bit-for-bit the unsharded ones."""
        requests = [
            AnalyzeRequest(airfoil="2412", alpha_degrees=a, n_panels=64,
                           precision=precision, reynolds=None)
            for a in (0.0, 1.0, 2.0, 3.0) for precision in ("single", "double")
        ]
        unsharded = with_cores(1, solve_request_systems, requests)
        sharded = with_cores(2, solve_request_systems, requests)
        assert all(isinstance(entry, SolvedSystem) for entry in sharded)
        assert_same_bits(unsharded, sharded)

    @given(stack=st.lists(
               st.tuples(st.sampled_from([16, 24, 32]),
                         st.floats(-5.0, 8.0, allow_nan=False)),
               min_size=1, max_size=13),
           precision=st.sampled_from(["single", "double"]),
           cores=st.sampled_from([2, 3]))
    @settings(max_examples=30, deadline=None)
    def test_property_sharded_matches_unsharded(self, stack, precision,
                                                cores):
        """For any stack, sharded or not, mixed panel counts included,
        ``gamma`` and ``constant`` are byte-identical."""
        requests = [AnalyzeRequest(airfoil="2412", alpha_degrees=alpha,
                                   n_panels=n_panels, precision=precision,
                                   reynolds=None)
                    for n_panels, alpha in stack]
        assert_same_bits(
            with_cores(1, solve_request_systems, requests),
            with_cores(cores, solve_request_systems, requests),
        )

    def test_stage_hook_emits_one_envelope_per_stage(self):
        """One ``assembly`` and one ``solve`` span per call, both from
        the calling thread, however many shards and size groups ran."""
        requests = requests_mixed()
        stamps = []

        def hook(stage, start, end, count):
            stamps.append((stage, start, end, count, threading.get_ident()))

        with_cores(2, solve_request_systems, requests, stage_hook=hook)
        assert [stamp[0] for stamp in stamps] == ["assembly", "solve"]
        for stage, start, end, count, thread in stamps:
            assert end >= start
            assert thread == threading.get_ident()
        assert stamps[0][3] == len(requests)
        assert stamps[1][3] == len(requests) - 1  # the bad geometry
        assert stamps[0][1] <= stamps[1][1]


def fail_stacks(monkeypatch, should_fail):
    """Make the stacked solve raise for every stack ``should_fail`` picks.

    Returns the sizes of the stacks it failed, in order.
    """
    solve = api.solve_stack
    failed = []
    lock = threading.Lock()

    def flaky_solve(matrices, rhs):
        with lock:
            fail = should_fail(matrices)
            if fail:
                failed.append(len(matrices))
        if fail:
            raise LinalgError("injected singular pivot")
        return solve(matrices, rhs)

    monkeypatch.setattr(api, "solve_stack", flaky_solve)
    return failed


class TestFailureIsolation:
    @pytest.mark.parametrize("cores", [1, 2])
    def test_singular_member_fails_alone(self, monkeypatch, cores):
        """A real all-zero matrix fails only its own request; every
        batchmate gets the bits of a solve without it."""
        requests = [AnalyzeRequest(airfoil="0012", alpha_degrees=float(a),
                                   n_panels=40, reynolds=None)
                    for a in range(8)]
        requests[1] = AnalyzeRequest(airfoil="4412", n_panels=40,
                                     reynolds=None)
        clean = with_cores(cores, solve_request_systems,
                           requests[:1] + requests[2:])
        original = api.assemble

        def zero_for_4412(airfoil, *args, **kwargs):
            system = original(airfoil, *args, **kwargs)
            if airfoil.name.endswith("4412"):
                return dataclasses.replace(
                    system, matrix=np.zeros_like(system.matrix))
            return system

        monkeypatch.setattr(api, "assemble", zero_for_4412)
        outcomes = with_cores(cores, solve_request_systems, requests)
        error = outcomes[1]
        assert isinstance(error, LinalgError)
        assert "4412" in str(error)
        assert "condition estimate inf" in str(error)
        assert_same_bits(outcomes[:1] + outcomes[2:], clean)

    def test_batched_generation_keeps_the_serial_records(self, monkeypatch):
        evaluator = FitnessEvaluator(layout=GenomeLayout(n_upper=5, n_lower=5),
                                     n_panels=40, reynolds=4e5)
        rng = np.random.default_rng(3)
        population = [evaluator.layout.random_genome(rng) for _ in range(16)]
        serial = [evaluator.evaluate(genome) for genome in population]
        calls = itertools.count()
        failed = fail_stacks(monkeypatch,
                             lambda matrices: next(calls) == 0)
        monkeypatch.setattr(api, "usable_cores", lambda: 2)
        batched = BatchedGenerationEvaluator(evaluator)(population)
        solvable = sum(evaluator.build_airfoil(genome)[1] is None
                       for genome in population)
        assert solvable >= 2 * MIN_SYSTEMS_PER_SHARD  # the stack was split
        assert len(failed) == 1 and failed[0] < solvable
        for expected, record in zip(serial, batched):
            assert records_identical(expected, record)
