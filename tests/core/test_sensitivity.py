"""Unit tests for the sensitivity (tornado) analysis."""

import dataclasses

import pytest

from repro import ReliabilityAnalyzer

from repro.core.sensitivity import (
    PARAMETERS,
    SensitivityResult,
    lifetime_sensitivities,
    tornado_text,
)
from repro.errors import ConfigurationError


@pytest.fixture(scope="module")
def results(request):
    analyzer = request.getfixturevalue("small_analyzer")
    return lifetime_sensitivities(analyzer, ppm=10.0)


class TestLifetimeSensitivities:
    def test_covers_all_parameters(self, results):
        assert {r.parameter for r in results} == set(PARAMETERS)

    def test_sorted_by_magnitude(self, results):
        magnitudes = [r.magnitude for r in results]
        assert magnitudes == sorted(magnitudes, reverse=True)

    def test_vdd_dominates_and_is_negative(self, results):
        """Voltage is by far the strongest lifetime knob (exponential
        acceleration), and raising it shortens life."""
        by_name = {r.parameter: r for r in results}
        vdd = by_name["vdd"]
        assert vdd.elasticity < 0.0
        assert vdd.magnitude == max(r.magnitude for r in results)

    def test_temperature_margin_negative(self, results):
        by_name = {r.parameter: r for r in results}
        assert by_name["temperature_margin"].elasticity < 0.0

    def test_more_variation_is_worse(self, results):
        by_name = {r.parameter: r for r in results}
        assert by_name["three_sigma_ratio"].elasticity < 0.0

    def test_low_high_bracket_base(self, results, small_analyzer):
        base = small_analyzer.lifetime(10)
        for r in results:
            lo, hi = sorted((r.lifetime_low, r.lifetime_high))
            assert lo <= base * 1.001
            assert hi >= base * 0.999

    def test_operating_point_probes_match_rebuilt_analyses(
        self, results, small_analyzer
    ):
        """The vdd and temperature probes are ``analyzer.at(...)``:
        bit-identical to a fresh analyzer at the probed point."""
        analyzer = small_analyzer
        by_name = {r.parameter: r for r in results}

        def fresh(vdd, temps):
            return ReliabilityAnalyzer(
                analyzer.floorplan,
                budget=analyzer.budget,
                obd_model=analyzer.obd_model,
                config=dataclasses.replace(analyzer.config, vdd=vdd),
                block_temperatures=temps,
            ).lifetime(10.0, method="st_fast")

        vdd = by_name["vdd"]
        step = 0.05 * vdd.base_value
        temps = analyzer.block_temperatures
        assert vdd.lifetime_low == fresh(vdd.base_value - step, temps)
        assert vdd.lifetime_high == fresh(vdd.base_value + step, temps)
        margin = by_name["temperature_margin"]
        assert margin.lifetime_low == fresh(None, temps - 2.0)
        assert margin.lifetime_high == fresh(None, temps + 2.0)

    def test_subset_of_parameters(self, small_analyzer):
        subset = lifetime_sensitivities(
            small_analyzer, ppm=10.0, parameters=("vdd",)
        )
        assert len(subset) == 1
        assert subset[0].parameter == "vdd"

    def test_unknown_parameter_rejected(self, small_analyzer):
        with pytest.raises(ConfigurationError):
            lifetime_sensitivities(
                small_analyzer, parameters=("phase_of_moon",)
            )

    def test_bad_step_rejected(self, small_analyzer):
        with pytest.raises(ConfigurationError):
            lifetime_sensitivities(small_analyzer, relative_step=0.9)


class TestTornadoText:
    def test_renders_all_rows(self, results):
        text = tornado_text(results)
        for r in results:
            assert r.parameter in text

    def test_sign_encoded_in_bar(self):
        results = [
            SensitivityResult("up", 1.0, +2.0, 1.0, 3.0),
            SensitivityResult("down", 1.0, -1.0, 2.0, 1.0),
        ]
        text = tornado_text(results)
        lines = text.splitlines()
        assert "+" in lines[0]
        assert "-" in lines[1]

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            tornado_text([])
