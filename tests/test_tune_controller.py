"""The autotune control loops, driven by fake services and routers."""

import copy
import threading

import pytest

from repro.errors import TuneError
from repro.serve.batcher import BatchPolicy
from repro.tune.calibrate import StageCost
from repro.tune.controller import (
    MODE_ENV,
    AutotuneConfig,
    AutotuneController,
    ClusterAutotuner,
    resolve_mode,
)

from tests.test_tune_calibrate import make_snapshot

BATCHING_COSTS = {
    "assembly": StageCost(setup=0.0, unit=0.002),
    "solve": StageCost(setup=0.006, unit=0.001),
    "postprocess": StageCost(setup=0.002, unit=0.0005),
    "serialize": StageCost(setup=0.0, unit=0.0002),
}


class FakeLogger:
    def __init__(self):
        self.events = []

    def event(self, name, **fields):
        self.events.append((name, fields))


class FakeService:
    """Just enough of AnalysisService for the controller to drive."""

    def __init__(self, snapshots, *,
                 policy=BatchPolicy(max_batch=1, max_wait=0.0)):
        self._snapshots = list(snapshots)
        self.policy = policy
        self.n_workers = 1
        self.draining = False
        self.assembly_kernel = None
        self.logger = FakeLogger()
        self.applied = []
        self.autotuner = None

    def metrics_snapshot(self):
        snap = (self._snapshots.pop(0) if len(self._snapshots) > 1
                else self._snapshots[0])
        snap = copy.deepcopy(snap)
        # The real service embeds the autotuner's own section — the
        # historical deadlock: snapshot() under the controller's lock.
        if self.autotuner is not None:
            snap["autotune"] = self.autotuner.snapshot()
        return snap

    def apply_policy(self, policy):
        self.applied.append(policy)
        self.policy = policy


def saturated_snapshots(count=4):
    """Successive cumulative snapshots of a saturated max_batch=1 server."""
    shots = []
    for step in range(1, count + 1):
        shots.append(make_snapshot(requests=1000 * step, uptime=10.0 * step,
                                   batch=1, stage_costs=BATCHING_COSTS,
                                   latency_ms=60.0))
    return shots


def controller_for(service, *, mode="apply", probe=True, monkeypatch=None,
                   **overrides):
    config = AutotuneConfig(mode=mode, interval=1000.0, probe=probe,
                            **overrides)
    if probe and monkeypatch is not None:
        monkeypatch.setattr("repro.tune.controller.probe_stage_curves",
                            lambda **kwargs: dict(BATCHING_COSTS))
    return AutotuneController(service, config, start_thread=False)


class TestModeAndConfig:
    def test_resolve_mode_explicit_and_env(self, monkeypatch):
        assert resolve_mode("apply") == "apply"
        assert resolve_mode(" Advise ") == "advise"
        monkeypatch.setenv(MODE_ENV, "apply")
        assert resolve_mode(None) == "apply"
        monkeypatch.delenv(MODE_ENV)
        assert resolve_mode(None) == "off"

    def test_resolve_mode_rejects_junk(self):
        with pytest.raises(TuneError, match="autotune mode"):
            resolve_mode("aggressive")

    def test_config_validation(self):
        with pytest.raises(TuneError, match="advise"):
            AutotuneConfig(mode="off")
        with pytest.raises(TuneError, match="interval"):
            AutotuneConfig(interval=0.0)
        with pytest.raises(TuneError, match="min_improvement"):
            AutotuneConfig(min_improvement=1.0)
        with pytest.raises(TuneError, match="tolerance"):
            AutotuneConfig(tolerance=0.0)


class TestServeController:
    def test_insufficient_traffic_holds(self):
        service = FakeService([make_snapshot(requests=4)])
        controller = controller_for(service, probe=False)
        decision = controller.run_cycle()
        assert decision["action"] == "held"
        assert decision["reason"] == "insufficient-traffic"
        assert service.applied == []

    def test_advise_never_mutates(self, monkeypatch):
        service = FakeService(saturated_snapshots())
        controller = controller_for(service, mode="advise",
                                    monkeypatch=monkeypatch)
        before = (service.policy.max_batch, service.policy.max_wait)
        for _ in range(3):
            controller.run_cycle()
        assert service.applied == []
        assert (service.policy.max_batch, service.policy.max_wait) == before
        assert controller.journal()[-1]["action"] in ("advised", "held")
        assert any(entry["action"] == "advised"
                   for entry in controller.journal())

    def test_apply_swaps_policy_and_journals(self, monkeypatch):
        service = FakeService(saturated_snapshots())
        controller = controller_for(service, monkeypatch=monkeypatch)
        decision = controller.run_cycle()
        assert decision["action"] == "applied"
        assert service.policy.max_batch > 1
        assert decision["old"]["max_batch"] == 1
        assert decision["new"]["max_batch"] == service.policy.max_batch
        assert decision["predicted_improvement"] >= 0.10
        assert any(name == "autotune" for name, _fields in
                   service.logger.events)

    def test_realized_delta_fills_from_next_window(self, monkeypatch):
        service = FakeService(saturated_snapshots())
        controller = controller_for(service, monkeypatch=monkeypatch)
        first = controller.run_cycle()
        assert first["action"] == "applied"
        assert first["realized_improvement"] is None
        controller.run_cycle()
        applied = controller.journal()[0]
        assert applied["realized_throughput_gain"] is not None
        assert "throughput_after_rps" in applied["realized"]

    def test_below_threshold_holds(self, monkeypatch):
        # 1 req/s against ~10ms of work: batching predicts nothing.
        light = [make_snapshot(requests=100 * step, uptime=100.0 * step,
                               batch=1, stage_costs=BATCHING_COSTS,
                               latency_ms=12.0)
                 for step in range(1, 4)]
        service = FakeService(light)
        controller = controller_for(service, monkeypatch=monkeypatch)
        decision = controller.run_cycle()
        assert (decision["action"], decision["reason"]) == (
            "held", "below-threshold")
        assert service.applied == []

    def test_draining_service_is_never_retuned(self, monkeypatch):
        service = FakeService(saturated_snapshots())
        service.draining = True
        controller = controller_for(service, monkeypatch=monkeypatch)
        decision = controller.run_cycle()
        assert (decision["action"], decision["reason"]) == ("held", "draining")
        assert service.applied == []

    def test_run_cycle_survives_recursive_snapshot(self, monkeypatch):
        """Regression: the service's metrics_snapshot embeds the
        controller's own snapshot(); with a non-reentrant lock the first
        cycle deadlocked forever."""
        service = FakeService(saturated_snapshots())
        controller = controller_for(service, monkeypatch=monkeypatch)
        service.autotuner = controller
        finished = threading.Event()

        def cycle():
            controller.run_cycle()
            finished.set()

        worker = threading.Thread(target=cycle, daemon=True)
        worker.start()
        assert finished.wait(timeout=10.0), (
            "run_cycle deadlocked against metrics_snapshot")

    def test_cycle_error_lands_in_counters(self):
        service = FakeService([make_snapshot(requests=100)])
        controller = controller_for(service, probe=False)
        controller._record_cycle_error(RuntimeError("boom"))
        section = controller.snapshot()
        assert section["cycle_errors"] == 1
        assert "boom" in section["last_error"]

    def test_snapshot_and_debug_document_shape(self, monkeypatch):
        service = FakeService(saturated_snapshots())
        controller = controller_for(service, monkeypatch=monkeypatch)
        controller.run_cycle()
        section = controller.snapshot()
        assert section["mode"] == "apply"
        assert section["cycles"] == 1
        assert section["last_action"] == "applied"
        document = controller.debug_document()
        assert document["calibration"]["source"] == "live+probe"
        assert document["recommendation"]["best"]["max_batch"] > 1
        assert document["journal"]
        assert document["paper"] is not None
        table = controller.render_table()
        assert "best" in table and "predicted improvement" in table

    def test_probe_runs_once_per_mix(self, monkeypatch):
        calls = []

        def fake_probe(**kwargs):
            calls.append(kwargs)
            return dict(BATCHING_COSTS)

        monkeypatch.setattr("repro.tune.controller.probe_stage_curves",
                            fake_probe)
        service = FakeService(saturated_snapshots())
        controller = controller_for(service)
        controller.run_cycle()
        controller.run_cycle()
        assert len(calls) == 1

    def test_close_is_idempotent(self):
        service = FakeService([make_snapshot(requests=100)])
        controller = controller_for(service, probe=False)
        controller.close()
        controller.close()


class FakeReplicaClient:
    def __init__(self, snapshots):
        self._snapshots = list(snapshots)

    def metrics(self):
        return copy.deepcopy(self._snapshots.pop(0)
                             if len(self._snapshots) > 1
                             else self._snapshots[0])


class FakeReplica:
    def __init__(self, snapshots):
        self.client = FakeReplicaClient(snapshots)


class FakeRouter:
    def __init__(self, replica_snapshots):
        self.replicas = {name: FakeReplica(shots)
                         for name, shots in replica_snapshots.items()}
        self._weights = {name: 1.0 / len(self.replicas)
                         for name in self.replicas}
        self.logger = FakeLogger()
        self.applied = []

    def current_weights(self):
        return dict(self._weights)

    def apply_weights(self, weights):
        self.applied.append(dict(weights))
        self._weights = dict(weights)


def replica_shot(completed, latency_sum_ms):
    return {"requests": {"completed": completed},
            "latency_hist_ms": {"sum_ms": latency_sum_ms,
                                "count": completed}}


class TestClusterAutotuner:
    def _router(self):
        # "fast" serves 3x the rate of "slow" over the same busy time.
        return FakeRouter({
            "fast": [replica_shot(0, 0.0), replica_shot(300, 3000.0),
                     replica_shot(600, 6000.0)],
            "slow": [replica_shot(0, 0.0), replica_shot(100, 3000.0),
                     replica_shot(200, 6000.0)],
        })

    def _tuner(self, router, mode="apply"):
        config = AutotuneConfig(mode=mode, interval=1000.0,
                                min_improvement=0.10)
        return ClusterAutotuner(router, config, start_thread=False)

    def test_first_cycle_has_no_window(self):
        router = self._router()
        tuner = self._tuner(router)
        decision = tuner.run_cycle()
        assert (decision["action"], decision["reason"]) == (
            "held", "insufficient-traffic")

    def test_apply_reweights_toward_fast_replica(self):
        router = self._router()
        tuner = self._tuner(router)
        tuner.run_cycle()
        decision = tuner.run_cycle()
        assert decision["action"] == "applied"
        assert router.applied
        weights = router.current_weights()
        assert weights["fast"] == pytest.approx(0.75)
        assert weights["slow"] == pytest.approx(0.25)

    def test_advise_never_moves_traffic(self):
        router = self._router()
        tuner = self._tuner(router, mode="advise")
        tuner.run_cycle()
        decision = tuner.run_cycle()
        assert decision["action"] == "advised"
        assert router.applied == []
        assert router.current_weights()["fast"] == pytest.approx(0.5)

    def test_small_shift_holds(self):
        router = FakeRouter({
            "a": [replica_shot(0, 0.0), replica_shot(210, 2000.0)],
            "b": [replica_shot(0, 0.0), replica_shot(200, 2000.0)],
        })
        tuner = self._tuner(router)
        tuner.run_cycle()
        decision = tuner.run_cycle()
        assert (decision["action"], decision["reason"]) == (
            "held", "below-threshold")
        assert router.applied == []

    def test_snapshot_shape(self):
        router = self._router()
        tuner = self._tuner(router)
        tuner.run_cycle()
        tuner.run_cycle()
        section = tuner.snapshot()
        assert section["cycles"] == 2
        assert section["applies"] == 1
        document = tuner.debug_document()
        assert document["weights"]["fast"] == pytest.approx(0.75)
        assert document["journal"]
