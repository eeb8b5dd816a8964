"""Tests for the serving wire format shared by the CLI and the service:
:class:`AnalyzeRequest`, :func:`evaluate_requests`, and the canonical
JSON serialization."""

import json

import pytest

from repro.cli import main
from repro.core.api import (
    MAX_PANELS,
    AnalyzeRequest,
    analyze,
    canonical_json,
    evaluate_requests,
    serialize_analysis,
)
from repro.errors import ReproError, ServeError
from repro.geometry import naca
from repro.serve import AnalysisService


class TestAnalyzeRequest:
    def test_from_dict_roundtrip(self):
        request = AnalyzeRequest.from_dict({
            "airfoil": "2412", "alpha_degrees": 4.0, "reynolds": 1e6,
            "n_panels": 120, "precision": "single", "use_head": False,
        })
        assert request.n_panels == 120
        assert request.precision.value == "single"
        assert AnalyzeRequest.from_dict(request.to_dict()) == request

    def test_alpha_alias(self):
        request = AnalyzeRequest.from_dict({"airfoil": "0012", "alpha": 3.0})
        assert request.alpha_degrees == 3.0
        with pytest.raises(ServeError):
            AnalyzeRequest.from_dict(
                {"airfoil": "0012", "alpha": 1.0, "alpha_degrees": 2.0}
            )

    def test_reynolds_zero_means_inviscid(self):
        request = AnalyzeRequest.from_dict({"airfoil": "0012", "reynolds": 0})
        assert request.reynolds is None

    @pytest.mark.parametrize("payload", [
        "not a dict",
        {},  # missing airfoil
        {"airfoil": 2412},  # non-string designation
        {"airfoil": "2412", "frobnicate": 1},  # unknown field
        {"airfoil": "2412", "reynolds": -5.0},
        {"airfoil": "2412", "alpha_degrees": float("nan")},
        {"airfoil": "2412", "n_panels": 2},
        {"airfoil": "2412", "precision": "half"},
        {"airfoil": ""},
        {"airfoil": "2412", "n_panels": 200.7},  # non-integral
        {"airfoil": "2412", "n_panels": True},
        {"airfoil": "2412", "n_panels": "200"},
        {"airfoil": "2412", "n_panels": 201},  # odd
        {"airfoil": "2412", "n_panels": 3},
        {"airfoil": "2412", "n_panels": MAX_PANELS + 2},
        {"airfoil": "2412", "n_panels": 200000},
    ])
    def test_invalid_payloads_rejected(self, payload):
        with pytest.raises(ServeError):
            AnalyzeRequest.from_dict(payload)

    def test_integral_float_panel_count_accepted(self):
        request = AnalyzeRequest.from_dict({"airfoil": "2412",
                                            "n_panels": 200.0})
        assert request.n_panels == 200 and type(request.n_panels) is int
        assert AnalyzeRequest(airfoil="2412",
                              n_panels=MAX_PANELS).n_panels == MAX_PANELS

    def test_airfoil_object_not_serializable(self, naca0012):
        request = AnalyzeRequest(airfoil=naca0012, n_panels=naca0012.n_panels)
        with pytest.raises(ServeError):
            request.to_dict()

    def test_run_matches_analyze(self):
        request = AnalyzeRequest(airfoil="2412", alpha_degrees=4.0,
                                 reynolds=1e6, n_panels=100)
        batched = request.run()
        single = analyze("2412", 4.0, reynolds=1e6, n_panels=100)
        assert batched.cl == pytest.approx(single.cl, rel=1e-9)
        assert batched.cd == pytest.approx(single.cd, rel=1e-9)
        assert batched.cm == pytest.approx(single.cm, rel=1e-9)


class TestCacheKey:
    def test_keyed_by_geometry_not_spelling(self):
        # "2412" and "NACA 2412" build identical outlines.
        assert (AnalyzeRequest(airfoil="2412", n_panels=80).cache_key()
                == AnalyzeRequest(airfoil="NACA 2412", n_panels=80).cache_key())

    @pytest.mark.parametrize("variant", [
        {"alpha_degrees": 1.0},
        {"reynolds": 2e6},
        {"reynolds": None},
        {"n_panels": 90},
        {"precision": "single"},
        {"use_head": False},
        {"airfoil": "0012"},
    ])
    def test_every_config_knob_changes_the_key(self, variant):
        base = dict(airfoil="2412", alpha_degrees=4.0, reynolds=1e6,
                    n_panels=80)
        key = AnalyzeRequest(**base).cache_key()
        assert AnalyzeRequest(**{**base, **variant}).cache_key() != key


class TestEvaluateRequests:
    def test_mixed_sizes_grouped_and_ordered(self):
        requests = [
            AnalyzeRequest(airfoil="2412", alpha_degrees=4.0, reynolds=None,
                           n_panels=80),
            AnalyzeRequest(airfoil="0012", alpha_degrees=0.0, reynolds=None,
                           n_panels=60),
            AnalyzeRequest(airfoil="2412", alpha_degrees=2.0, reynolds=None,
                           n_panels=80),
        ]
        results = evaluate_requests(requests)
        assert len(results) == 3
        assert 0.6 < results[0].cl < 0.9
        assert abs(results[1].cl) < 1e-6
        assert 0.0 < results[2].cl < results[0].cl

    def test_bad_request_does_not_poison_batchmates(self):
        requests = [
            AnalyzeRequest(airfoil="2412", alpha_degrees=4.0, reynolds=None,
                           n_panels=80),
            AnalyzeRequest(airfoil="99", n_panels=80),  # invalid NACA code
        ]
        results = evaluate_requests(requests)
        assert not isinstance(results[0], Exception)
        assert isinstance(results[1], ReproError)

    def test_batch_composition_invariance(self):
        """A request's record must not depend on its batchmates —
        the property that makes CLI and served output byte-identical."""
        target = AnalyzeRequest(airfoil="2412", alpha_degrees=4.0,
                                reynolds=1e6, n_panels=80)
        alone = evaluate_requests([target])[0]
        others = [AnalyzeRequest(airfoil="0012", alpha_degrees=a,
                                 reynolds=1e6, n_panels=80)
                  for a in (0.0, 2.0, 6.0)]
        stacked = evaluate_requests(others + [target])[-1]
        assert (serialize_analysis(target, alone)
                == serialize_analysis(target, stacked))


class TestSerialization:
    def test_record_fields(self):
        request = AnalyzeRequest(airfoil="2412", alpha_degrees=4.0,
                                 reynolds=1e6, n_panels=100)
        record = serialize_analysis(request, request.run())
        assert record["airfoil"] == "NACA 2412"
        assert record["n_panels"] == 100
        assert record["cd"] > 0 and record["cl"] > 0.5
        assert record["lift_to_drag"] == pytest.approx(
            record["cl"] / record["cd"])
        assert record["separated"] in (True, False)

    def test_inviscid_record_has_nulls(self):
        request = AnalyzeRequest(airfoil="0012", reynolds=None, n_panels=60)
        record = serialize_analysis(request, request.run())
        assert record["cd"] is None
        assert record["lift_to_drag"] is None
        assert record["separated"] is None

    def test_canonical_json_is_sorted_and_compact(self):
        text = canonical_json({"b": 1, "a": [1.5, None]})
        assert text == '{"a":[1.5,null],"b":1}'

    def test_cli_json_matches_service_bytes(self, capsys):
        """The satellite contract: CLI --json and the served response
        are byte-identical for the same input."""
        assert main(["analyze", "2412", "--alpha", "4", "--panels", "100",
                     "--json"]) == 0
        cli_line = capsys.readouterr().out.strip()
        with AnalysisService(max_batch=4, cache_size=8,
                             n_workers=1, queue_limit=16) as service:
            served = service.analyze_json(
                AnalyzeRequest(airfoil="2412", alpha_degrees=4.0,
                               reynolds=1e6, n_panels=100))
        assert cli_line == served
        assert json.loads(cli_line)["n_panels"] == 100

    def test_cli_json_inviscid(self, capsys):
        assert main(["analyze", "0012", "--reynolds", "0", "--panels", "60",
                     "--json"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["cd"] is None and record["reynolds"] is None
