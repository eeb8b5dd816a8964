"""Request-lifecycle tests: deadlines, cancellation, and client retry.

The serving path treats deadlines as first-class: expired work is shed
at batch-collection time (before it costs an assembly+LU solve), a
detached submitter's work is dropped the same way, and the client can
retry shed (503) requests with capped exponential backoff and jitter.
"""

import random
import sys
import threading
import time

import pytest

from repro.core.api import (
    AnalyzeRequest,
    extract_deadline_ms,
    validate_deadline_ms,
)
from repro.errors import DeadlineExceededError, OverloadedError, ServeError
from repro.serve import AnalysisService, ServeClient
from repro.serve.service import _Job


# ----------------------------------------------------------------------
# Wire-format helpers
# ----------------------------------------------------------------------

class TestDeadlineWireFormat:
    def test_extract_pops_the_field_without_mutating(self):
        payload = {"airfoil": "2412", "deadline_ms": 250.0}
        stripped, deadline = extract_deadline_ms(payload)
        assert deadline == 250.0
        assert "deadline_ms" not in stripped
        assert payload["deadline_ms"] == 250.0  # original untouched

    def test_extract_without_field_is_a_passthrough(self):
        payload = {"airfoil": "2412"}
        stripped, deadline = extract_deadline_ms(payload)
        assert deadline is None and stripped is payload

    def test_extract_null_means_no_deadline(self):
        stripped, deadline = extract_deadline_ms(
            {"airfoil": "2412", "deadline_ms": None})
        assert deadline is None and "deadline_ms" not in stripped

    def test_non_dict_payloads_pass_through(self):
        assert extract_deadline_ms("nope") == ("nope", None)

    @pytest.mark.parametrize("value", [0, -1.0, float("inf"), float("nan"),
                                       "soon", [250]])
    def test_invalid_budgets_rejected(self, value):
        with pytest.raises(ServeError, match="deadline_ms"):
            validate_deadline_ms(value)

    def test_deadline_is_not_an_analyze_request_field(self):
        """The deadline is transport metadata; AnalyzeRequest must keep
        rejecting it so it can never leak into cache keys or records."""
        with pytest.raises(ServeError, match="unknown request fields"):
            AnalyzeRequest.from_dict({"airfoil": "2412", "deadline_ms": 50.0})


# ----------------------------------------------------------------------
# Service-level deadlines
# ----------------------------------------------------------------------

class TestServiceDeadlines:
    def test_expired_request_is_dropped_not_solved(self):
        service = AnalysisService(max_batch=4, cache_size=8,
                                  n_workers=1, queue_limit=16)
        with service:
            with pytest.raises(DeadlineExceededError):
                service.analyze({"airfoil": "2412", "alpha_degrees": 4.0,
                                 "reynolds": None, "n_panels": 60},
                                timeout=10.0, deadline_ms=1e-3)
            snapshot = service.metrics_snapshot()
        assert snapshot["requests"]["expired"] == 1
        assert snapshot["requests"]["in_flight"] == 0
        # Dropped at collection: the solver never saw it.
        assert snapshot["batching"]["batched_solves"] == 0

    def test_payload_field_sets_the_deadline(self):
        with AnalysisService(max_batch=4, cache_size=8,
                             n_workers=1, queue_limit=16) as service:
            with pytest.raises(DeadlineExceededError):
                service.analyze({"airfoil": "2412", "reynolds": None,
                                 "n_panels": 60, "deadline_ms": 1e-3},
                                timeout=10.0)

    def test_explicit_argument_beats_payload_field(self):
        with AnalysisService(max_batch=4, cache_size=8,
                             n_workers=1, queue_limit=16) as service:
            record = service.analyze(
                {"airfoil": "0012", "reynolds": None, "n_panels": 60,
                 "deadline_ms": 1e-3},  # would expire ...
                timeout=10.0, deadline_ms=30_000.0)  # ... but arg wins
        assert abs(record["cl"]) < 1e-6

    def test_default_deadline_applies_and_is_validated(self):
        with pytest.raises(ServeError, match="deadline_ms"):
            AnalysisService(default_deadline_ms=-1.0)
        service = AnalysisService(max_batch=4, cache_size=8,
                                  n_workers=1, queue_limit=16,
                                  default_deadline_ms=1e-3)
        with service:
            with pytest.raises(DeadlineExceededError):
                service.analyze({"airfoil": "2412", "reynolds": None,
                                 "n_panels": 60}, timeout=10.0)

    def test_generous_deadline_does_not_interfere(self):
        with AnalysisService(max_batch=4, cache_size=8,
                             n_workers=1, queue_limit=16) as service:
            record = service.analyze({"airfoil": "2412", "alpha_degrees": 4.0,
                                      "reynolds": None, "n_panels": 60},
                                     timeout=10.0, deadline_ms=30_000.0)
        assert record["cl"] > 0.5

    def test_cache_hit_beats_the_deadline(self):
        """A cached answer resolves at admission, before any queueing,
        so even a microscopic deadline is met."""
        with AnalysisService(max_batch=4, cache_size=8,
                             n_workers=1, queue_limit=16) as service:
            request = {"airfoil": "0012", "reynolds": None, "n_panels": 60}
            warm = service.analyze(dict(request), timeout=10.0)
            hit = service.analyze(dict(request), timeout=10.0,
                                  deadline_ms=1e-3)
        assert hit == warm


# ----------------------------------------------------------------------
# Cancellation
# ----------------------------------------------------------------------

class _GatedService(AnalysisService):
    """An AnalysisService whose worker parks at the start of each batch
    until the test opens the gate — making queue-time races deterministic.
    ``parked`` is set once a worker has taken a batch and is waiting."""

    def __init__(self, **kwargs):
        self.gate = threading.Event()
        self.parked = threading.Event()
        super().__init__(**kwargs)

    def _process_batch(self, jobs):
        self.parked.set()
        assert self.gate.wait(10.0)
        super()._process_batch(jobs)


class TestCancellation:
    def test_cancelled_request_is_dropped_at_collection(self):
        service = _GatedService(max_batch=1, cache_size=8,
                                n_workers=1, queue_limit=16)
        try:
            # First submission occupies the (gated) worker, so the second
            # is still queued when its submitter walks away.
            blocker = service.submit({"airfoil": "0012", "reynolds": None,
                                      "n_panels": 60})
            victim = service.submit({"airfoil": "2412", "alpha_degrees": 4.0,
                                     "reynolds": None, "n_panels": 60})
            assert victim.cancel() is True
            service.gate.set()
            assert abs(blocker.result(timeout=10.0)["cl"]) < 1e-6
            with pytest.raises(ServeError, match="cancelled"):
                victim.result(timeout=1.0)
            deadline = time.monotonic() + 5.0
            while (service.metrics_snapshot()["requests"]["cancelled"] < 1
                   and time.monotonic() < deadline):
                time.sleep(0.01)
            snapshot = service.metrics_snapshot()
            assert snapshot["requests"]["cancelled"] == 1
            assert snapshot["requests"]["in_flight"] == 0
            # The cancelled request was dropped before solving: only the
            # blocker's system went through the solver.
            assert snapshot["batching"]["solved_systems"] == 1
        finally:
            service.gate.set()
            assert service.close(timeout=10.0)

    def test_wait_timeout_detaches_the_waiter(self):
        """analyze() that gives up waiting cancels its pending result,
        so the worker later drops the job instead of solving for
        nobody."""
        service = _GatedService(max_batch=4, cache_size=8,
                                n_workers=1, queue_limit=16)
        try:
            with pytest.raises(ServeError, match="timed out"):
                service.analyze({"airfoil": "2412", "reynolds": None,
                                 "n_panels": 60}, timeout=0.05)
            service.gate.set()
            deadline = time.monotonic() + 5.0
            while (service.metrics_snapshot()["requests"]["in_flight"] > 0
                   and time.monotonic() < deadline):
                time.sleep(0.01)
            snapshot = service.metrics_snapshot()
            assert snapshot["requests"]["cancelled"] == 1
            assert snapshot["requests"]["completed"] == 0
        finally:
            service.gate.set()
            assert service.close(timeout=10.0)


# ----------------------------------------------------------------------
# Drop accounting via the pool predicate
# ----------------------------------------------------------------------

class TestDropPredicate:
    def test_expired_job_fails_with_deadline_error(self):
        service = AnalysisService(max_batch=4, cache_size=8,
                                  n_workers=1, queue_limit=16)
        with service:
            now = time.monotonic()
            job = _Job(request=AnalyzeRequest(airfoil="0012", reynolds=None,
                                              n_panels=60),
                       key="k", pending=_FreshPending(), enqueued=now,
                       deadline=now - 1.0, deadline_ms=5.0)
            assert service._drop_dead(job) is True
            with pytest.raises(DeadlineExceededError, match="5 ms"):
                job.pending.result(timeout=0.1)
            live = _Job(request=job.request, key="k",
                        pending=_FreshPending(), enqueued=now,
                        deadline=now + 60.0, deadline_ms=60_000.0)
            assert service._drop_dead(live) is False
            no_deadline = _Job(request=job.request, key="k",
                               pending=_FreshPending(), enqueued=now)
            assert service._drop_dead(no_deadline) is False


def _FreshPending():
    from repro.serve.workers import PendingResult
    return PendingResult()


# ----------------------------------------------------------------------
# Request accounting under a concurrent mix
# ----------------------------------------------------------------------

class TestAccountingUnderLoad:
    """Every admitted request ends exactly once, as completed, failed,
    expired or cancelled — with a ``/metrics`` scraper racing the
    workers the whole time, so a transient imbalance would register as
    ``accounting_drift``."""

    ACTIONS = ("wait", "duplicate", "deadline", "cancel", "cancel_late",
               "timeout")

    def _client(self, service, rng):
        for _ in range(25):
            payload = {"airfoil": rng.choice(["0012", "2412"]),
                       "alpha_degrees": float(rng.randrange(4)),
                       "reynolds": None, "n_panels": rng.choice([20, 40])}
            action = rng.choice(self.ACTIONS)
            try:
                if action == "wait":
                    service.analyze(payload, timeout=30.0)
                elif action == "duplicate":
                    service.analyze_batch([payload, payload], timeout=30.0)
                elif action == "deadline":
                    service.analyze(payload, deadline_ms=1e-3, timeout=30.0)
                elif action == "cancel":
                    service.submit(payload).cancel()
                elif action == "cancel_late":
                    pending = service.submit(payload)
                    time.sleep(rng.uniform(0.0, 0.004))
                    pending.cancel()
                else:
                    service.analyze(payload, timeout=rng.uniform(1e-4, 2e-3))
            except ServeError:
                pass

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_seeded_mix_balances_once_quiet(self, seed):
        service = AnalysisService(max_batch=8, cache_size=6, n_workers=2,
                                  queue_limit=64)
        stop = threading.Event()
        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)

        def scrape():
            while not stop.is_set():
                service.metrics_snapshot()

        scraper = threading.Thread(target=scrape)
        clients = [threading.Thread(target=self._client, args=(
                       service, random.Random(10 * seed + index)))
                   for index in range(4)]
        try:
            scraper.start()
            for thread in clients:
                thread.start()
            for thread in clients:
                thread.join(timeout=60.0)
                assert not thread.is_alive()
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                requests = service.metrics_snapshot()["requests"]
                if (service.queue_depth == 0 and requests["in_flight"] == 0
                        and requests["admitted"] == requests["completed"]
                        + requests["failed"] + requests["expired"]
                        + requests["cancelled"]):
                    break
                time.sleep(0.01)
        finally:
            sys.setswitchinterval(switch_interval)
            stop.set()
            scraper.join(timeout=10.0)
            assert service.close(timeout=10.0)
        assert not scraper.is_alive()
        requests = service.metrics_snapshot()["requests"]
        assert requests["admitted"] == (requests["completed"]
                                        + requests["failed"]
                                        + requests["expired"]
                                        + requests["cancelled"]), requests
        assert requests["in_flight"] == 0
        assert requests["accounting_drift"] == 0, requests
        # The mix exercised every outcome it can reach.
        assert requests["completed"] > 0 and requests["cancelled"] > 0
        assert requests["expired"] > 0


# ----------------------------------------------------------------------
# Client retry with backoff + jitter
# ----------------------------------------------------------------------

class TestClientRetry:
    def _client_with_script(self, outcomes, retries=3):
        """A client whose transport replays *outcomes* (exception
        instances are raised, anything else returned) and records the
        backoff sleeps instead of actually sleeping."""
        client = ServeClient(port=1, retries=retries, backoff_base=0.1,
                             backoff_cap=0.4)
        calls = {"attempts": 0, "sleeps": []}
        script = list(outcomes)

        def fake_request(request):
            calls["attempts"] += 1
            outcome = script.pop(0)
            if isinstance(outcome, Exception):
                raise outcome
            return outcome

        client._request = fake_request
        client._sleep = calls["sleeps"].append
        client._uniform = lambda low, high: high  # deterministic jitter
        return client, calls

    def test_retries_shed_requests_until_success(self):
        client, calls = self._client_with_script([
            OverloadedError("shed"), OverloadedError("shed"),
            '{"cl": 1.0}',
        ])
        assert client.analyze("2412", 4.0) == {"cl": 1.0}
        assert calls["attempts"] == 3
        # Capped exponential growth: base, then 2x.
        assert calls["sleeps"] == [0.1, 0.2]

    def test_backoff_is_capped(self):
        client, calls = self._client_with_script(
            [OverloadedError("shed")] * 4 + ['{"results": []}'], retries=4)
        client.analyze_batch([])
        assert calls["sleeps"] == [0.1, 0.2, 0.4, 0.4]

    def test_jitter_samples_the_full_range(self):
        client, calls = self._client_with_script(
            [OverloadedError("shed"), '{"results": []}'])
        client._uniform = lambda low, high: low  # worst-case jitter draw
        client.analyze_batch([])
        assert calls["sleeps"] == [0.0]

    def test_exhausted_retries_raise_overloaded(self):
        client, calls = self._client_with_script(
            [OverloadedError("shed")] * 3, retries=2)
        with pytest.raises(OverloadedError):
            client.analyze("2412", 4.0)
        assert calls["attempts"] == 3

    def test_no_retry_on_other_errors(self):
        client, calls = self._client_with_script(
            [DeadlineExceededError("too late")])
        with pytest.raises(DeadlineExceededError):
            client.analyze("2412", 4.0)
        assert calls["attempts"] == 1 and calls["sleeps"] == []

    def test_retries_disabled_by_default(self):
        client, calls = self._client_with_script([OverloadedError("shed")],
                                                 retries=0)
        with pytest.raises(OverloadedError):
            client.analyze("2412", 4.0)
        assert calls["attempts"] == 1

    def test_constructor_validation(self):
        with pytest.raises(ServeError):
            ServeClient(retries=-1)
        with pytest.raises(ServeError):
            ServeClient(backoff_base=-0.1)


class TestClientDeadlineHeader:
    def test_deadline_ms_sets_the_header(self):
        client = ServeClient(port=1)
        seen = {}

        def fake_request(request):
            seen["headers"] = dict(request.headers)
            return '{"results": []}'

        client._request = fake_request
        client.analyze_batch([], deadline_ms=250.0)
        assert float(seen["headers"]["X-repro-deadline-ms"]) == 250.0

    def test_no_header_without_deadline(self):
        client = ServeClient(port=1)
        seen = {}

        def fake_request(request):
            seen["headers"] = dict(request.headers)
            return '{"results": []}'

        client._request = fake_request
        client.analyze_batch([])
        assert "X-repro-deadline-ms" not in seen["headers"]


# ----------------------------------------------------------------------
# CLI flags
# ----------------------------------------------------------------------

class TestCLILifecycleFlags:
    def test_serve_parser_accepts_default_deadline(self):
        from repro.cli import build_parser

        arguments = build_parser().parse_args(
            ["serve", "--default-deadline-ms", "250"])
        assert arguments.default_deadline_ms == 250.0

    def test_analyze_timeout_success(self, capsys):
        from repro.cli import main

        assert main(["analyze", "0012", "--reynolds", "0", "--panels", "60",
                     "--timeout", "60"]) == 0
        assert "cl" in capsys.readouterr().out

    def test_analyze_timeout_exceeded_exits_nonzero(self, capsys):
        from repro.cli import main

        assert main(["analyze", "2412", "--alpha", "4", "--panels", "200",
                     "--timeout", "1e-9"]) == 1
        assert "--timeout" in capsys.readouterr().err

    def test_timeout_judged_by_when_the_analysis_finished(self):
        # With a long switch interval the waiter regains the GIL only
        # after the analysis is done; the missed budget must still show.
        from repro.cli import _analyze_with_timeout

        def run():
            end = time.perf_counter() + 0.02
            while time.perf_counter() < end:  # holds the GIL throughout
                pass
            return "done"

        interval = sys.getswitchinterval()
        sys.setswitchinterval(5.0)
        try:
            with pytest.raises(DeadlineExceededError, match="--timeout"):
                _analyze_with_timeout(run, 1e-9)
        finally:
            sys.setswitchinterval(interval)
        assert _analyze_with_timeout(lambda: "done", 60.0) == "done"

    def test_analyze_timeout_must_be_positive(self, capsys):
        from repro.cli import main

        assert main(["analyze", "0012", "--reynolds", "0", "--panels", "60",
                     "--timeout", "0"]) == 1
        assert "positive" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Single precision through the service
# ----------------------------------------------------------------------

class TestSinglePrecision:
    PAYLOAD = {"airfoil": "2412", "alpha_degrees": 4.0, "reynolds": None,
               "n_panels": 60}

    def test_single_precision_end_to_end(self):
        with AnalysisService(max_batch=4, cache_size=8,
                             n_workers=1, queue_limit=16) as service:
            single = service.analyze(dict(self.PAYLOAD, precision="single"),
                                     timeout=30.0)
            double = service.analyze(dict(self.PAYLOAD), timeout=30.0)
        assert single["precision"] == "single"
        assert single["cl"] == pytest.approx(double["cl"], rel=1e-4)
        assert single["cl"] != double["cl"]
