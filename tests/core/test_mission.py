"""Unit tests for mission-profile (time-varying condition) analysis."""

import numpy as np
import pytest

from repro.core.mission import (
    MissionAnalyzer,
    MissionProfile,
    OperatingPhase,
    mission_analyzer,
)
from repro.errors import ConfigurationError


@pytest.fixture(scope="module")
def analyzer(request):
    return request.getfixturevalue("small_analyzer")


def _uniform_profile(analyzer, temperature, vdd=None):
    return MissionProfile(
        phases=(
            OperatingPhase(
                name="only",
                fraction=1.0,
                block_temperatures=temperature,
                vdd=vdd,
            ),
        )
    )


class TestMissionProfileValidation:
    def test_fractions_must_sum_to_one(self):
        with pytest.raises(ConfigurationError, match="sum to 1"):
            MissionProfile(
                phases=(
                    OperatingPhase("a", 0.5, 85.0),
                    OperatingPhase("b", 0.3, 95.0),
                )
            )

    def test_unique_names(self):
        with pytest.raises(ConfigurationError, match="unique"):
            MissionProfile(
                phases=(
                    OperatingPhase("a", 0.5, 85.0),
                    OperatingPhase("a", 0.5, 95.0),
                )
            )

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            MissionProfile(phases=())

    def test_phase_fraction_range(self):
        with pytest.raises(ConfigurationError):
            OperatingPhase("a", 0.0, 85.0)
        with pytest.raises(ConfigurationError):
            OperatingPhase("a", 1.5, 85.0)

    def test_temperature_vector_shape(self, analyzer):
        phase = OperatingPhase("a", 1.0, np.array([85.0, 90.0]))
        with pytest.raises(ConfigurationError, match="block temperatures"):
            phase.temperatures_for(analyzer.floorplan.n_blocks)

    def test_scalar_temperature_broadcast(self):
        phase = OperatingPhase("a", 1.0, 85.0)
        np.testing.assert_allclose(phase.temperatures_for(3), 85.0)


class TestSinglePhaseEquivalence:
    def test_single_phase_matches_static_analysis(self, analyzer):
        """A one-phase mission at the design's own temperatures is the
        plain st_fast analysis."""
        profile = MissionProfile(
            phases=(
                OperatingPhase(
                    "static", 1.0, analyzer.block_temperatures.copy()
                ),
            )
        )
        mission = mission_analyzer(analyzer, profile)
        lt_static = analyzer.lifetime(10)
        lt_mission = mission.lifetime(10)
        assert lt_mission == pytest.approx(lt_static, rel=1e-6)

    def test_reliability_curve_matches(self, analyzer):
        profile = MissionProfile(
            phases=(
                OperatingPhase(
                    "static", 1.0, analyzer.block_temperatures.copy()
                ),
            )
        )
        mission = mission_analyzer(analyzer, profile)
        t10 = analyzer.lifetime(10)
        times = np.array([t10 / 2.0, t10, 3.0 * t10])
        np.testing.assert_allclose(
            np.asarray(mission.reliability(times)),
            np.asarray(analyzer.reliability(times)),
            rtol=1e-9,
        )


class TestDamageAccumulation:
    def test_split_identical_phases_equal_single_phase(self, analyzer):
        """Under the cumulative-exposure law, splitting one condition into
        two phases with the same condition changes nothing: the harmonic
        combination is exact."""
        temps = analyzer.block_temperatures.copy()
        single = mission_analyzer(analyzer, _uniform_profile(analyzer, temps))
        split = mission_analyzer(
            analyzer,
            MissionProfile(
                phases=(
                    OperatingPhase("a", 0.5, temps),
                    OperatingPhase("b", 0.5, temps),
                )
            ),
        )
        t10 = analyzer.lifetime(10)
        assert float(split.reliability(t10)) == pytest.approx(
            float(single.reliability(t10)), abs=1e-12
        )

    def test_hot_phase_dominates(self, analyzer):
        mild = _uniform_profile(analyzer, 75.0)
        mixed = MissionProfile(
            phases=(
                OperatingPhase("cool", 0.9, 75.0),
                OperatingPhase("hot", 0.1, 115.0),
            )
        )
        lt_mild = mission_analyzer(analyzer, mild).lifetime(10)
        lt_mixed = mission_analyzer(analyzer, mixed).lifetime(10)
        assert lt_mixed < lt_mild

    def test_more_hot_time_is_worse(self, analyzer):
        def mixed(hot_fraction):
            return MissionProfile(
                phases=(
                    OperatingPhase("cool", 1.0 - hot_fraction, 75.0),
                    OperatingPhase("hot", hot_fraction, 110.0),
                )
            )

        lifetimes = [
            mission_analyzer(analyzer, mixed(f)).lifetime(10)
            for f in (0.1, 0.3, 0.6)
        ]
        assert lifetimes[0] > lifetimes[1] > lifetimes[2]

    def test_voltage_phase(self, analyzer):
        nominal = _uniform_profile(analyzer, 90.0)
        turbo = MissionProfile(
            phases=(
                OperatingPhase("base", 0.8, 90.0),
                OperatingPhase("turbo", 0.2, 90.0, vdd=1.3),
            )
        )
        lt_nominal = mission_analyzer(analyzer, nominal).lifetime(10)
        lt_turbo = mission_analyzer(analyzer, turbo).lifetime(10)
        assert lt_turbo < lt_nominal

    def test_mission_bounded_by_constant_extremes(self, analyzer):
        """A mixed mission lies between always-cool and always-hot."""
        cool = mission_analyzer(
            analyzer, _uniform_profile(analyzer, 75.0)
        ).lifetime(10)
        hot = mission_analyzer(
            analyzer, _uniform_profile(analyzer, 110.0)
        ).lifetime(10)
        mixed = mission_analyzer(
            analyzer,
            MissionProfile(
                phases=(
                    OperatingPhase("cool", 0.5, 75.0),
                    OperatingPhase("hot", 0.5, 110.0),
                )
            ),
        ).lifetime(10)
        assert hot < mixed < cool


class TestEffectiveParams:
    def test_harmonic_alpha(self):
        from repro.core.mission import effective_block_params

        fractions = np.array([0.5, 0.5])
        alphas = np.array([[100.0], [300.0]])
        bs = np.array([[1.4], [1.4]])
        alpha_eff, b_eff = effective_block_params(fractions, alphas, bs)
        assert alpha_eff[0] == pytest.approx(150.0)  # harmonic mean
        assert b_eff[0] == pytest.approx(1.4)

    def test_b_time_weighted(self):
        from repro.core.mission import effective_block_params

        fractions = np.array([0.25, 0.75])
        alphas = np.ones((2, 1)) * 100.0
        bs = np.array([[1.0], [2.0]])
        _alpha_eff, b_eff = effective_block_params(fractions, alphas, bs)
        assert b_eff[0] == pytest.approx(1.75)

    def test_shape_checks(self):
        from repro.core.mission import effective_block_params

        with pytest.raises(ConfigurationError, match="shape"):
            effective_block_params(
                np.array([1.0]), np.ones((2, 3)), np.ones((1, 3))
            )

    def test_positive_params(self):
        from repro.core.mission import effective_block_params

        with pytest.raises(ConfigurationError, match="positive"):
            effective_block_params(
                np.array([1.0]), np.zeros((1, 3)), np.ones((1, 3))
            )


class TestMissionAnalyzerBehaviour:
    def test_block_count_mismatch_rejected(self, analyzer):
        profile = MissionProfile(
            phases=(OperatingPhase("only", 1.0, 90.0),)
        )
        n = analyzer.floorplan.n_blocks
        with pytest.raises(ConfigurationError, match="alphas must be"):
            MissionAnalyzer(
                blocks=analyzer.blocks,
                profile=profile,
                alphas=np.full((1, n + 1), 1e6),
                bs=np.full((1, n + 1), 1.4),
            )

    def test_phase_damage_shares_sum_to_one(self, analyzer):
        mission = mission_analyzer(
            analyzer,
            MissionProfile(
                phases=(
                    OperatingPhase("cool", 0.7, 75.0),
                    OperatingPhase("hot", 0.3, 110.0),
                )
            ),
        )
        shares = mission.phase_damage_shares()
        assert shares.shape == (2, analyzer.floorplan.n_blocks)
        np.testing.assert_allclose(shares.sum(axis=0), 1.0)
        # The hot phase ages every block faster than its time share.
        assert np.all(shares[1] > 0.3)

    def test_reliability_bounds(self, analyzer):
        mission = mission_analyzer(analyzer, _uniform_profile(analyzer, 95.0))
        t10 = mission.lifetime(10)
        times = np.logspace(np.log10(t10) - 1, np.log10(t10) + 2, 15)
        r = np.asarray(mission.reliability(times))
        assert np.all((0.0 <= r) & (r <= 1.0))
        assert np.all(np.diff(r) <= 1e-12)

    def test_time_zero(self, analyzer):
        mission = mission_analyzer(analyzer, _uniform_profile(analyzer, 95.0))
        assert mission.reliability(0.0) == pytest.approx(1.0)


class TestHostRule:
    """A mission evaluates the design's st_fast tables, under its rule."""

    @pytest.mark.parametrize("rule", ["midpoint", "gauss"])
    def test_one_phase_mission_is_host_st_fast(self, rule):
        from repro import AnalysisConfig, ReliabilityAnalyzer, make_benchmark
        from repro.core.lifetime import ppm_to_reliability

        host = ReliabilityAnalyzer(
            make_benchmark("C2"),
            config=AnalysisConfig(grid_size=10, integration_rule=rule),
        )
        mission = mission_analyzer(
            host,
            MissionProfile(
                phases=(OperatingPhase("own", 1.0, host.block_temperatures),)
            ),
        )
        times = np.geomspace(1e4, 1e7, 12)
        np.testing.assert_array_equal(
            mission.reliability(times), host.st_fast.reliability(times)
        )
        # The same solve from the host's guard-band seed walks the same
        # floats.
        guess = host.guard.lifetime(ppm_to_reliability(10.0))
        assert mission.lifetime(10.0, t_guess=guess) == host.lifetime(
            10.0, method="st_fast"
        )
