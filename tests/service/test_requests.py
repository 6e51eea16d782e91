"""JobRequest validation, fingerprinting and analyzer construction."""

import pytest

from repro.errors import ServiceError
from repro.service import JobRequest


def _doc(**overrides):
    doc = {"kind": "lifetime", "design": "C1"}
    doc.update(overrides)
    return doc


class TestValidation:
    def test_minimal_lifetime_request(self):
        request = JobRequest.from_dict(_doc())
        assert request.kind == "lifetime"
        assert request.design == "C1"
        assert request.methods == ("st_fast",)

    def test_round_trips_through_as_dict(self):
        request = JobRequest.from_dict(_doc(grid=10, seed=7))
        assert JobRequest.from_dict(request.as_dict()) == request

    @pytest.mark.parametrize(
        "doc",
        [
            "not a dict",
            {},
            {"kind": "nope", "design": "C1"},
            {"kind": "lifetime"},
            {"kind": "lifetime", "design": "C1", "setup": {}},
            {"kind": "lifetime", "design": "Z9"},
            {"kind": "lifetime", "design": "C1", "methods": []},
            {"kind": "lifetime", "design": "C1", "methods": ["bogus"]},
            {"kind": "lifetime", "design": "C1", "grid": 1},
            {"kind": "lifetime", "design": "C1", "grid": "big"},
            {"kind": "lifetime", "design": "C1", "ppm": -1.0},
            {"kind": "lifetime", "design": "C1", "mc_chips": 10**9},
            {"kind": "curve", "design": "C1"},
            {"kind": "curve", "design": "C1", "t_min": 5.0, "t_max": 1.0},
            {
                "kind": "curve",
                "design": "C1",
                "t_min": 1.0,
                "t_max": 5.0,
                "methods": ["mc"],
            },
            {"kind": "lifetime", "design": "C1", "surprise": 1},
            # Jobs take no arithmetic knob: every job runs in float64.
            {"kind": "lifetime", "design": "C1", "precision": "float64"},
        ],
    )
    def test_invalid_documents_rejected(self, doc):
        with pytest.raises(ServiceError):
            JobRequest.from_dict(doc)

    def test_invalid_setup_rejected_at_submit(self):
        with pytest.raises(ServiceError, match="setup"):
            JobRequest.from_dict({"kind": "report", "setup": {"bogus": 1}})

    def test_method_alias_accepted(self):
        request = JobRequest.from_dict(_doc(method="st_mc"))
        assert request.methods == ("st_mc",)


class TestFingerprint:
    def test_identical_requests_share_a_key(self):
        assert (
            JobRequest.from_dict(_doc()).key == JobRequest.from_dict(_doc()).key
        )

    def test_any_knob_changes_the_key(self):
        base = JobRequest.from_dict(_doc()).key
        assert JobRequest.from_dict(_doc(seed=1)).key != base
        assert JobRequest.from_dict(_doc(grid=10)).key != base
        assert JobRequest.from_dict(_doc(kind="report")).key != base


class TestAnalyzer:
    def test_build_analyzer_matches_cli_semantics(self):
        request = JobRequest.from_dict(_doc(grid=6, rho=0.7, vdd=1.1))
        analyzer = request.build_analyzer()
        assert analyzer.config.grid_size == 6
        assert analyzer.config.rho_dist == 0.7
        assert analyzer.config.vdd == 1.1

    def test_uses_mc_flag(self):
        assert JobRequest.from_dict(_doc(methods=["mc"])).uses_mc
        assert not JobRequest.from_dict(_doc()).uses_mc
        assert not JobRequest.from_dict(
            {"kind": "report", "design": "C1"}
        ).uses_mc
