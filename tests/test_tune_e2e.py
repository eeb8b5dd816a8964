"""The ``/metrics`` workload section: the problem mix a live service
admits, the input :func:`repro.serve.calibrate.fit_stage_means` reads."""

from repro.serve import AnalysisService


class TestWorkloadSection:
    def test_metrics_record_the_problem_mix(self):
        service = AnalysisService(max_batch=4, cache_size=8, n_workers=1)
        try:
            for _ in range(3):
                service.analyze({"airfoil": "0012", "alpha_degrees": 1.0,
                                 "n_panels": 72})
            service.analyze({"airfoil": "2412", "alpha_degrees": 2.0,
                             "n_panels": 96})
            workload = service.metrics_snapshot()["workload"]
            assert workload["n_panels_histogram"]["72"] == 3
            assert workload["n_panels_histogram"]["96"] == 1
            assert workload["precision_histogram"]["double"] == 4
        finally:
            assert service.close(timeout=10.0)

    def test_cache_hits_still_count_toward_the_mix(self):
        service = AnalysisService(max_batch=4, cache_size=8, n_workers=1)
        try:
            payload = {"airfoil": "0012", "alpha_degrees": 1.0,
                       "n_panels": 72}
            service.analyze(payload)
            service.analyze(payload)  # cache hit
            workload = service.metrics_snapshot()["workload"]
            assert workload["n_panels_histogram"]["72"] == 2
        finally:
            assert service.close(timeout=10.0)
