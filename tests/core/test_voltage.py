"""Unit tests for supply-voltage screening."""

import dataclasses

import pytest
from scipy import optimize

from repro import ReliabilityAnalyzer

from repro.core.voltage import (
    VoltageScreeningResult,
    max_vdd_for_target,
    voltage_headroom,
)
from repro.errors import ConfigurationError, NumericalError
from repro.units import years_to_hours


@pytest.fixture(scope="module")
def analyzer(request):
    return request.getfixturevalue("small_analyzer")


class TestMaxVddForTarget:
    def test_solution_meets_target_exactly(self, analyzer):
        target = years_to_hours(10.0)
        result = max_vdd_for_target(analyzer, target, ppm=10.0)
        assert 0.9 < result.max_vdd < 2.0
        # At the found voltage the lifetime equals the target (within the
        # solver tolerance mapped through the local slope).
        probe = ReliabilityAnalyzer(
            analyzer.floorplan,
            budget=analyzer.budget,
            obd_model=analyzer.obd_model,
            config=dataclasses.replace(analyzer.config, vdd=result.max_vdd),
            block_temperatures=analyzer.block_temperatures,
        )
        assert probe.lifetime(10.0) == pytest.approx(target, rel=0.01)

    @pytest.mark.parametrize("method", ["st_fast", "temp_unaware", "guard"])
    def test_operating_points_match_rebuilt_analyses(self, analyzer, method):
        """Each probe is ``analyzer.at(T, vdd)``: bit-identical to the search
        that builds a fresh analyzer at every probed voltage."""
        target = years_to_hours(10.0)

        def margin(vdd):
            probe = ReliabilityAnalyzer(
                analyzer.floorplan,
                budget=analyzer.budget,
                obd_model=analyzer.obd_model,
                config=dataclasses.replace(analyzer.config, vdd=vdd),
                block_temperatures=analyzer.block_temperatures,
            )
            return probe.lifetime(10.0, method=method) - target

        rebuilt = float(optimize.brentq(margin, 0.9, 2.0, xtol=1e-4))
        result = max_vdd_for_target(analyzer, target, method=method)
        assert result.max_vdd == rebuilt

    def test_stricter_target_lower_vdd(self, analyzer):
        loose = max_vdd_for_target(analyzer, years_to_hours(5.0))
        strict = max_vdd_for_target(analyzer, years_to_hours(20.0))
        assert strict.max_vdd < loose.max_vdd

    def test_statistical_beats_guard(self, analyzer):
        target = years_to_hours(10.0)
        stat = max_vdd_for_target(analyzer, target, method="st_fast")
        guard = max_vdd_for_target(analyzer, target, method="guard")
        assert stat.max_vdd > guard.max_vdd

    def test_unreachable_target_raises(self, analyzer):
        with pytest.raises(NumericalError, match="not met"):
            max_vdd_for_target(
                analyzer, years_to_hours(1e6), vdd_range=(1.0, 2.0)
            )

    def test_range_too_low_raises(self, analyzer):
        with pytest.raises(NumericalError, match="widen"):
            max_vdd_for_target(
                analyzer, years_to_hours(1e-5), vdd_range=(1.0, 1.1)
            )

    def test_validation(self, analyzer):
        with pytest.raises(ConfigurationError):
            max_vdd_for_target(analyzer, -1.0)
        with pytest.raises(ConfigurationError):
            max_vdd_for_target(
                analyzer, 1e5, vdd_range=(2.0, 1.0)
            )


class TestVoltageHeadroom:
    def test_headroom_positive(self, analyzer):
        results = voltage_headroom(analyzer, years_to_hours(10.0))
        headroom = results["st_fast"].max_vdd - results["guard"].max_vdd
        assert headroom > 0.005  # at least ~5 mV reclaimed

    def test_frequency_value(self, analyzer):
        results = voltage_headroom(analyzer, years_to_hours(10.0))
        f_stat = results["st_fast"].relative_frequency()
        f_guard = results["guard"].relative_frequency()
        assert f_stat > f_guard


class TestResultObject:
    def test_relative_frequency_monotone_in_vdd(self):
        low = VoltageScreeningResult("x", 1.1, 1e5, 10.0)
        high = VoltageScreeningResult("x", 1.3, 1e5, 10.0)
        assert high.relative_frequency() > low.relative_frequency()

    def test_below_threshold_rejected(self):
        result = VoltageScreeningResult("x", 0.3, 1e5, 10.0)
        with pytest.raises(ConfigurationError):
            result.relative_frequency(vth=0.35)
