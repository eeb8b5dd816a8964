"""The benchmark trend gate: must pass on itself, fail on regressions
and on structural holes (missing artifacts, rows, or metrics)."""

import json
import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "benchmarks"))

import check_trend  # noqa: E402


SPEC = {"key_fields": ("backend", "max_batch"),
        "higher": ("throughput_rps",),
        "lower": ("latency_p99_ms",)}


def doc(rows):
    return {"benchmark": "serving", "rows": rows}


def row(backend="inline", max_batch=8, throughput=100.0, p99=10.0):
    return {"backend": backend, "max_batch": max_batch,
            "throughput_rps": throughput, "latency_p99_ms": p99}


class TestCompare:
    def test_identical_documents_pass(self):
        baseline = doc([row(), row(backend="process")])
        assert check_trend.compare(baseline, baseline, SPEC) == []

    def test_moves_inside_the_band_pass(self):
        baseline = doc([row(throughput=100.0, p99=10.0)])
        current = doc([row(throughput=60.0, p99=14.0)])
        assert check_trend.compare(baseline, current, SPEC,
                                   tolerance=0.5) == []

    def test_throughput_collapse_fails(self):
        baseline = doc([row(throughput=100.0)])
        current = doc([row(throughput=10.0)])
        failures = check_trend.compare(baseline, current, SPEC,
                                       tolerance=0.5)
        assert len(failures) == 1
        assert "throughput_rps" in failures[0]

    def test_latency_blowup_fails(self):
        baseline = doc([row(p99=10.0)])
        current = doc([row(p99=100.0)])
        failures = check_trend.compare(baseline, current, SPEC)
        assert any("latency_p99_ms" in failure for failure in failures)

    def test_improvements_never_fail(self):
        baseline = doc([row(throughput=100.0, p99=10.0)])
        current = doc([row(throughput=1000.0, p99=0.1)])
        assert check_trend.compare(baseline, current, SPEC) == []

    def test_missing_row_is_structural_failure(self):
        baseline = doc([row(), row(backend="process")])
        current = doc([row()])
        failures = check_trend.compare(baseline, current, SPEC)
        assert any("missing from current run" in failure
                   for failure in failures)

    def test_lost_metric_is_structural_failure(self):
        baseline = doc([row()])
        stripped = doc([{key: value for key, value in row().items()
                         if key != "throughput_rps"}])
        failures = check_trend.compare(baseline, stripped, SPEC)
        assert any("lost metric" in failure for failure in failures)

    def test_new_rows_in_current_are_not_gated(self):
        baseline = doc([row()])
        current = doc([row(), row(backend="process", throughput=1.0)])
        assert check_trend.compare(baseline, current, SPEC) == []

    def test_empty_baseline_fails_loudly(self):
        failures = check_trend.compare({"rows": []}, doc([row()]), SPEC)
        assert any("no comparable rows" in failure for failure in failures)

    def test_wider_tolerance_forgives(self):
        baseline = doc([row(throughput=100.0)])
        current = doc([row(throughput=30.0)])
        assert check_trend.compare(baseline, current, SPEC) != []
        assert check_trend.compare(baseline, current, SPEC,
                                   tolerance=0.8) == []


class TestMain:
    def _write(self, directory, filename, document):
        os.makedirs(directory, exist_ok=True)
        with open(os.path.join(directory, filename), "w") as handle:
            json.dump(document, handle)

    def _serving_doc(self, throughput):
        return {"benchmark": "serving",
                "rows": [{"backend": "inline", "max_batch": 8,
                          "deadline_ms": None,
                          "throughput_rps": throughput,
                          "latency_p99_ms": 5.0}]}

    def test_end_to_end_pass_and_injected_regression(self, tmp_path):
        baseline_dir = str(tmp_path / "baselines")
        current_dir = str(tmp_path / "current")
        self._write(baseline_dir, "BENCH_serving.json",
                    self._serving_doc(100.0))
        self._write(current_dir, "BENCH_serving.json",
                    self._serving_doc(95.0))
        assert check_trend.main(["--baseline-dir", baseline_dir,
                                 "--current-dir", current_dir]) == 0
        self._write(current_dir, "BENCH_serving.json",
                    self._serving_doc(10.0))
        assert check_trend.main(["--baseline-dir", baseline_dir,
                                 "--current-dir", current_dir]) == 1

    def test_missing_current_artifact_fails(self, tmp_path):
        baseline_dir = str(tmp_path / "baselines")
        self._write(baseline_dir, "BENCH_serving.json",
                    self._serving_doc(100.0))
        assert check_trend.main(["--baseline-dir", baseline_dir,
                                 "--current-dir",
                                 str(tmp_path / "empty")]) == 1

    def test_no_baselines_at_all_errors(self, tmp_path):
        assert check_trend.main(["--baseline-dir", str(tmp_path / "none"),
                                 "--current-dir", str(tmp_path)]) == 2

    def test_update_rewrites_baselines(self, tmp_path):
        baseline_dir = str(tmp_path / "baselines")
        current_dir = str(tmp_path / "current")
        self._write(current_dir, "BENCH_serving.json",
                    self._serving_doc(42.0))
        assert check_trend.main(["--baseline-dir", baseline_dir,
                                 "--current-dir", current_dir,
                                 "--update"]) == 0
        with open(os.path.join(baseline_dir, "BENCH_serving.json")) as handle:
            assert json.load(handle)["rows"][0]["throughput_rps"] == 42.0

    def test_bad_tolerance_rejected(self, tmp_path):
        assert check_trend.main(["--tolerance", "0",
                                 "--current-dir", str(tmp_path)]) == 2

    def test_committed_baselines_cover_all_three_benchmarks(self):
        for filename in check_trend.ARTIFACTS:
            path = os.path.join(check_trend.BASELINE_DIR, filename)
            assert os.path.exists(path), f"baseline not committed: {filename}"
            with open(path) as handle:
                document = json.load(handle)
            spec = check_trend.SPECS[filename]
            rows = check_trend._index_rows(document, spec["key_fields"])
            assert rows, f"baseline {filename} has no comparable rows"
            # The committed baseline must gate itself cleanly.
            assert check_trend.compare(document, document, spec,
                                       name=filename) == []
