"""Regression tests for the ReproError hierarchy and the API contract.

The library promises that every error it raises is catchable as
:class:`repro.errors.ReproError`, and that historical ``except ValueError``
call sites keep working for input-validation errors (the dual-inheritance
bridge documented in :mod:`repro.errors`).  reprolint's RPL003 rule
enforces the raising side; these tests pin the catching side.
"""

import numpy as np
import pytest

from repro import units
from repro.chip.benchmarks import make_benchmark
from repro.errors import (
    ConfigurationError,
    FloorplanError,
    NumericalError,
    ReproError,
    SolverError,
    UnitError,
)
from repro.scenario import StressPhase
from repro.stats.weibull import AreaScaledWeibull

_ALL_ERRORS = (
    ConfigurationError,
    FloorplanError,
    NumericalError,
    SolverError,
    UnitError,
)


class TestHierarchyInvariants:
    @pytest.mark.parametrize("exc_type", _ALL_ERRORS)
    def test_everything_is_a_repro_error(self, exc_type):
        assert issubclass(exc_type, ReproError)

    @pytest.mark.parametrize("exc_type", _ALL_ERRORS)
    def test_validation_errors_bridge_to_value_error(self, exc_type):
        assert issubclass(exc_type, ValueError)

    def test_specialisations(self):
        assert issubclass(FloorplanError, ConfigurationError)
        assert issubclass(UnitError, ConfigurationError)
        assert issubclass(SolverError, NumericalError)
        assert not issubclass(ConfigurationError, NumericalError)

    def test_base_is_not_value_error(self):
        # Catching ValueError must not swallow non-validation ReproErrors.
        assert not issubclass(ReproError, ValueError)


class TestApiErrorsAreCatchable:
    def test_unknown_method(self, small_analyzer):
        with pytest.raises(ReproError):
            small_analyzer.reliability(1e4, method="bogus")

    def test_mc_lifetime_redirect(self, small_analyzer):
        with pytest.raises(ReproError):
            small_analyzer.lifetime(10.0, method="mc")

    def test_bad_block_temperatures(self, small_floorplan, fast_config):
        from repro import ReliabilityAnalyzer

        with pytest.raises(ReproError):
            ReliabilityAnalyzer(
                small_floorplan,
                config=fast_config,
                block_temperatures=np.array([85.0]),
            )

    def test_unknown_benchmark(self):
        with pytest.raises(ReproError):
            make_benchmark("NOT_A_DESIGN")

    def test_unit_conversion(self):
        with pytest.raises(ReproError):
            units.celsius_to_kelvin(-400.0)

    def test_mission_phase_validation(self):
        with pytest.raises(ReproError):
            StressPhase(name="", fraction=0.5, temperature_c=85.0)

    def test_weibull_validation(self):
        with pytest.raises(ReproError):
            AreaScaledWeibull(alpha=-1.0, beta=2.0)

    def test_weibull_nan_input(self):
        model = AreaScaledWeibull(alpha=1e6, beta=2.0)
        with pytest.raises(NumericalError):
            model.cdf(np.array([1.0, np.nan]))


class TestLegacyValueErrorCompat:
    """Callers written against the pre-hierarchy API must keep working."""

    def test_configuration_error_caught_as_value_error(self, small_analyzer):
        with pytest.raises(ValueError):
            small_analyzer.reliability(1e4, method="bogus")

    def test_unit_error_caught_as_value_error(self):
        with pytest.raises(ValueError):
            units.kelvin_to_celsius(-5.0)
