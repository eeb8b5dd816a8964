"""Tests for the durable job store: specs, journal replay, checkpoints."""

import json
import os

import numpy as np
import pytest

from repro.errors import JobError, JobNotFoundError
from repro.jobs import (
    JobSpec,
    JobState,
    JobStore,
    history_from_dict,
    history_to_dict,
    json_safe,
    rng_from_dict,
    rng_state_to_dict,
)
from repro.jobs.store import JOURNAL_NAME
from repro.optimize import FitnessEvaluator, GAConfig, GeneticOptimizer, GenomeLayout


def make_spec(**overrides):
    base = {"seed": 7, "checkpoint_every": 2,
            "ga": {"population_size": 8, "generations": 3},
            "fitness": {"n_panels": 60}}
    base.update(overrides)
    return JobSpec.from_dict(base)


class TestJobSpec:
    def test_roundtrip(self):
        spec = make_spec()
        assert JobSpec.from_dict(spec.to_dict()) == spec

    def test_defaults(self):
        spec = JobSpec.from_dict({"seed": 0})
        assert spec.checkpoint_every == 1
        assert spec.ga_config() == GAConfig()

    @pytest.mark.parametrize("seed", [-1, 1.5, True, "7", None])
    def test_bad_seed_rejected(self, seed):
        with pytest.raises(JobError, match="seed"):
            JobSpec.from_dict({"seed": seed})

    def test_bad_cadence_rejected(self):
        with pytest.raises(JobError, match="checkpoint_every"):
            make_spec(checkpoint_every=0)

    def test_unknown_top_level_field_rejected(self):
        with pytest.raises(JobError, match="unknown"):
            JobSpec.from_dict({"seed": 0, "bogus": 1})

    def test_unknown_ga_field_rejected(self):
        with pytest.raises(JobError, match="bogus"):
            JobSpec.from_dict({"seed": 0, "ga": {"bogus": 1}})

    def test_invalid_ga_values_rejected_at_submit_time(self):
        with pytest.raises(JobError, match="ga config"):
            JobSpec.from_dict({"seed": 0, "ga": {"population_size": 11}})

    def test_invalid_fitness_rejected(self):
        with pytest.raises(JobError):
            JobSpec.from_dict({"seed": 0, "fitness": {"n_panels": -5}})

    def test_panel_count_above_the_cap_rejected(self):
        with pytest.raises(JobError, match="n_panels"):
            JobSpec.from_dict({"seed": 0, "fitness": {"n_panels": 200000}})


class TestStateMachine:
    def test_submit_starts_pending(self, tmp_path):
        store = JobStore(str(tmp_path))
        record = store.submit(make_spec())
        assert record.state == JobState.PENDING
        assert not record.terminal
        store.close()

    def test_full_lifecycle(self, tmp_path):
        store = JobStore(str(tmp_path))
        record = store.submit(make_spec())
        store.mark_running(record.id)
        assert store.get(record.id).state == JobState.RUNNING
        assert store.get(record.id).started_at is not None
        store.mark_done(record.id, {"champion": None})
        done = store.get(record.id)
        assert done.state == JobState.DONE and done.terminal
        assert done.finished_at is not None
        store.close()

    def test_illegal_transition_rejected(self, tmp_path):
        store = JobStore(str(tmp_path))
        record = store.submit(make_spec())
        with pytest.raises(JobError, match="cannot move"):
            store.mark_done(record.id, {})
        store.mark_running(record.id)
        store.mark_done(record.id, {})
        with pytest.raises(JobError, match="cannot move"):
            store.mark_failed(record.id, "late")
        store.close()

    def test_unknown_job_raises_not_found(self, tmp_path):
        store = JobStore(str(tmp_path))
        with pytest.raises(JobNotFoundError):
            store.get("job-missing")
        with pytest.raises(JobNotFoundError):
            store.events("job-missing")
        store.close()

    def test_cancel_is_idempotent_and_noop_on_terminal(self, tmp_path):
        store = JobStore(str(tmp_path))
        record = store.submit(make_spec())
        store.request_cancel(record.id)
        store.request_cancel(record.id)
        assert store.get(record.id).cancel_requested
        done = store.submit(make_spec())
        store.mark_running(done.id)
        store.mark_done(done.id, {})
        store.request_cancel(done.id)
        assert not store.get(done.id).cancel_requested
        store.close()

    def test_state_counts_always_has_every_state(self, tmp_path):
        store = JobStore(str(tmp_path))
        counts = store.state_counts()
        assert set(counts) == set(JobState.ALL)
        store.submit(make_spec())
        assert store.state_counts()[JobState.PENDING] == 1
        store.close()

    def test_resumable_lists_pending_and_running(self, tmp_path):
        store = JobStore(str(tmp_path))
        pending = store.submit(make_spec())
        running = store.submit(make_spec())
        store.mark_running(running.id)
        finished = store.submit(make_spec())
        store.mark_running(finished.id)
        store.mark_done(finished.id, {})
        ids = {record.id for record in store.resumable()}
        assert ids == {pending.id, running.id}
        store.close()


class TestJournalReplay:
    def build(self, tmp_path):
        store = JobStore(str(tmp_path))
        record = store.submit(make_spec())
        store.mark_running(record.id)
        store.record_progress(record.id, 0, {"best_fitness": 12.5,
                                             "mean_fitness": 3.0,
                                             "feasible_fraction": 1.0})
        store.record_progress(record.id, 1, {"best_fitness": 14.0,
                                             "mean_fitness": 5.0,
                                             "feasible_fraction": 0.5})
        store.mark_done(record.id, {"champion": {"fitness": 14.0}})
        store.close()
        return record.id

    def test_replay_reproduces_state(self, tmp_path):
        job_id = self.build(tmp_path)
        reopened = JobStore(str(tmp_path))
        record = reopened.get(job_id)
        assert record.state == JobState.DONE
        assert record.generations_done == 2
        assert record.result == {"champion": {"fitness": 14.0}}
        assert [event["seq"] for event in reopened.events(job_id)] == [1, 2]
        assert reopened.events(job_id, since=1)[0]["best_fitness"] == 14.0
        assert reopened.torn_lines == 0
        reopened.close()

    def test_torn_final_line_is_tolerated_and_counted(self, tmp_path):
        job_id = self.build(tmp_path)
        journal = tmp_path / JOURNAL_NAME
        with open(journal, "a", encoding="utf-8") as handle:
            handle.write('{"type": "progress", "id": "%s", "gen' % job_id)
        reopened = JobStore(str(tmp_path))
        assert reopened.torn_lines == 1
        assert reopened.get(job_id).state == JobState.DONE
        # The torn tail was truncated: a fresh append produces a
        # journal every subsequent boot replays cleanly.
        reopened.submit(make_spec())
        reopened.close()
        third = JobStore(str(tmp_path))
        assert third.torn_lines == 0
        assert len(third.list()) == 2
        third.close()

    def test_corrupt_interior_line_raises(self, tmp_path):
        self.build(tmp_path)
        journal = tmp_path / JOURNAL_NAME
        lines = journal.read_text(encoding="utf-8").splitlines()
        lines[1] = "{not json"
        journal.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(JobError, match="corrupt journal line 2"):
            JobStore(str(tmp_path))

    def test_unknown_event_types_are_skipped(self, tmp_path):
        job_id = self.build(tmp_path)
        journal = tmp_path / JOURNAL_NAME
        with open(journal, "a", encoding="utf-8") as handle:
            handle.write(json.dumps({"type": "future-feature", "id": job_id})
                         + "\n")
        reopened = JobStore(str(tmp_path))
        assert reopened.get(job_id).state == JobState.DONE
        reopened.close()

    def test_resume_counter_survives_replay(self, tmp_path):
        store = JobStore(str(tmp_path))
        record = store.submit(make_spec())
        store.mark_running(record.id)
        store.mark_resumed(record.id)
        store.close()
        reopened = JobStore(str(tmp_path))
        assert reopened.get(record.id).resumes == 1
        reopened.close()


class TestCheckpoints:
    def test_roundtrip_and_overwrite(self, tmp_path):
        store = JobStore(str(tmp_path))
        record = store.submit(make_spec())
        assert store.load_checkpoint(record.id) is None
        store.write_checkpoint(record.id, {"generation_offset": 1,
                                           "population": [[0.1, -0.2]]})
        store.write_checkpoint(record.id, {"generation_offset": 2,
                                           "population": [[0.3, -0.4]]})
        checkpoint = store.load_checkpoint(record.id)
        assert checkpoint["generation_offset"] == 2
        # No temp files left behind by the atomic replace.
        leftovers = [name for name in os.listdir(tmp_path / "checkpoints")
                     if not name.endswith(".json")]
        assert leftovers == []
        store.close()

    def test_corrupt_checkpoint_raises(self, tmp_path):
        store = JobStore(str(tmp_path))
        record = store.submit(make_spec())
        store.write_checkpoint(record.id, {"generation_offset": 1})
        path = tmp_path / "checkpoints" / f"{record.id}.json"
        path.write_text("{truncated", encoding="utf-8")
        with pytest.raises(JobError, match="corrupt checkpoint"):
            store.load_checkpoint(record.id)
        store.close()


class TestSerializationHelpers:
    def test_rng_state_roundtrips_exactly(self):
        rng = np.random.default_rng(42)
        rng.random(17)  # advance past the seeded state
        state = json.loads(json.dumps(rng_state_to_dict(rng)))
        clone = rng_from_dict(state)
        assert np.array_equal(rng.random(32), clone.random(32))

    def test_history_roundtrips_exactly(self):
        evaluator = FitnessEvaluator(layout=GenomeLayout(n_upper=5, n_lower=5),
                                     n_panels=60, reynolds=4e5)
        config = GAConfig(population_size=8, generations=2)
        history = GeneticOptimizer(evaluator=evaluator, config=config).run(
            np.random.default_rng(3)
        )
        payload = json.loads(json.dumps(history_to_dict(history)))
        restored = history_from_dict(payload)
        assert history_to_dict(restored) == history_to_dict(history)
        assert restored.champion.fitness == history.champion.fitness
        assert np.array_equal(restored.champion.genome,
                              history.champion.genome)

    def test_json_safe_sanitizes_non_finite(self):
        payload = {"a": float("inf"), "b": [float("-inf"), float("nan"), 1.0],
                   "c": {"d": 2}}
        safe = json_safe(payload)
        assert safe == {"a": "Infinity", "b": ["-Infinity", "NaN", 1.0],
                        "c": {"d": 2}}
        json.dumps(safe, allow_nan=False)  # must not raise
