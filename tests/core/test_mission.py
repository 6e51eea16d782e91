"""Mission profiles: residency scenarios of unordered time fractions.

A mission (idle / typical / turbo phases with time fractions) is a
``residency`` :class:`~repro.scenario.Scenario`, evaluated by
:class:`~repro.scenario.ScenarioAnalyzer` at the cumulative-exposure
effective ``(alpha, b)`` of every block.
"""

import numpy as np
import pytest

from repro import AnalysisConfig, ReliabilityAnalyzer, make_benchmark
from repro.errors import ConfigurationError
from repro.scenario import (
    Scenario,
    ScenarioAnalyzer,
    StressPhase,
    effective_block_params,
    phase_dose_shares,
)


@pytest.fixture(scope="module")
def analyzer(request):
    return request.getfixturevalue("small_analyzer")


def _phase(name, fraction, temperature, vdd=None):
    return StressPhase(
        name, fraction=fraction, temperature_c=temperature, vdd=vdd
    )


def _mission(*phases):
    """A residency scenario of ``(name, fraction, temperature[, vdd])``."""
    return Scenario(
        phases=tuple(_phase(*phase) for phase in phases),
        composition="residency",
    )


def _evaluate(analyzer, *phases):
    return ScenarioAnalyzer(analyzer, _mission(*phases))


def _uniform(analyzer, temperature, vdd=None):
    return _evaluate(analyzer, ("only", 1.0, temperature, vdd))


class TestMissionProfileValidation:
    def test_fractions_must_sum_to_one(self):
        with pytest.raises(ConfigurationError, match="sum to 1"):
            _mission(("a", 0.5, 85.0), ("b", 0.3, 95.0))

    def test_unique_names(self):
        with pytest.raises(ConfigurationError, match="unique"):
            _mission(("a", 0.5, 85.0), ("a", 0.5, 95.0))

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            Scenario(phases=(), composition="residency")

    def test_phase_fraction_range(self):
        with pytest.raises(ConfigurationError):
            StressPhase("a", fraction=0.0, temperature_c=85.0)
        with pytest.raises(ConfigurationError):
            StressPhase("a", fraction=1.5, temperature_c=85.0)

    def test_temperature_vector_shape(self, analyzer):
        phase = StressPhase("a", fraction=1.0, temperature_c=(85.0, 90.0))
        with pytest.raises(ConfigurationError, match="block temperatures"):
            phase.temperatures_for(analyzer.floorplan.n_blocks)

    def test_scalar_temperature_broadcast(self):
        phase = StressPhase("a", fraction=1.0, temperature_c=85.0)
        np.testing.assert_allclose(phase.temperatures_for(3), 85.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_temperature_rejected_at_build(self, bad):
        """Caught when the phase is built, not later inside the OBD model."""
        with pytest.raises(ConfigurationError, match="finite"):
            StressPhase("a", fraction=1.0, temperature_c=(85.0, bad))


class TestSinglePhaseEquivalence:
    def test_single_phase_matches_static_analysis(self, analyzer):
        """A one-phase mission at the design's own temperatures is the
        plain st_fast analysis, lifetime seed included."""
        mission = _uniform(analyzer, tuple(analyzer.block_temperatures))
        assert mission.lifetime(10) == analyzer.lifetime(10)

    def test_reliability_curve_matches(self, analyzer):
        mission = _uniform(analyzer, tuple(analyzer.block_temperatures))
        t10 = analyzer.lifetime(10)
        times = np.array([t10 / 2.0, t10, 3.0 * t10])
        np.testing.assert_array_equal(
            mission.reliability(times), analyzer.reliability(times)
        )


class TestDamageAccumulation:
    def test_split_identical_phases_equal_single_phase(self, analyzer):
        """Under the cumulative-exposure law, splitting one condition into
        two phases with the same condition changes nothing: the harmonic
        combination is exact."""
        temps = tuple(analyzer.block_temperatures)
        single = _uniform(analyzer, temps)
        split = _evaluate(analyzer, ("a", 0.5, temps), ("b", 0.5, temps))
        t10 = analyzer.lifetime(10)
        assert split.reliability(t10) == pytest.approx(
            single.reliability(t10), abs=1e-12
        )

    def test_hot_phase_dominates(self, analyzer):
        lt_mild = _uniform(analyzer, 75.0).lifetime(10)
        lt_mixed = _evaluate(
            analyzer, ("cool", 0.9, 75.0), ("hot", 0.1, 115.0)
        ).lifetime(10)
        assert lt_mixed < lt_mild

    def test_more_hot_time_is_worse(self, analyzer):
        lifetimes = [
            _evaluate(
                analyzer, ("cool", 1.0 - f, 75.0), ("hot", f, 110.0)
            ).lifetime(10)
            for f in (0.1, 0.3, 0.6)
        ]
        assert lifetimes[0] > lifetimes[1] > lifetimes[2]

    def test_voltage_phase(self, analyzer):
        lt_nominal = _uniform(analyzer, 90.0).lifetime(10)
        lt_turbo = _evaluate(
            analyzer, ("base", 0.8, 90.0), ("turbo", 0.2, 90.0, 1.3)
        ).lifetime(10)
        assert lt_turbo < lt_nominal

    def test_mission_bounded_by_constant_extremes(self, analyzer):
        """A mixed mission lies between always-cool and always-hot."""
        cool = _uniform(analyzer, 75.0).lifetime(10)
        hot = _uniform(analyzer, 110.0).lifetime(10)
        mixed = _evaluate(
            analyzer, ("cool", 0.5, 75.0), ("hot", 0.5, 110.0)
        ).lifetime(10)
        assert hot < mixed < cool


class TestEffectiveParams:
    def test_harmonic_alpha(self):
        fractions = np.array([0.5, 0.5])
        alphas = np.array([[100.0], [300.0]])
        bs = np.array([[1.4], [1.4]])
        alpha_eff, b_eff = effective_block_params(fractions, alphas, bs)
        assert alpha_eff[0] == pytest.approx(150.0)  # harmonic mean
        assert b_eff[0] == pytest.approx(1.4)

    def test_b_time_weighted(self):
        fractions = np.array([0.25, 0.75])
        alphas = np.ones((2, 1)) * 100.0
        bs = np.array([[1.0], [2.0]])
        _alpha_eff, b_eff = effective_block_params(fractions, alphas, bs)
        assert b_eff[0] == pytest.approx(1.75)

    def test_shape_checks(self):
        with pytest.raises(ConfigurationError, match="shape"):
            effective_block_params(
                np.array([1.0]), np.ones((2, 3)), np.ones((1, 3))
            )

    def test_positive_params(self):
        with pytest.raises(ConfigurationError, match="positive"):
            effective_block_params(
                np.array([1.0]), np.zeros((1, 3)), np.ones((1, 3))
            )


class TestMissionAnalyzerBehaviour:
    def test_block_count_mismatch_rejected(self, analyzer):
        n = analyzer.floorplan.n_blocks
        mission = _mission(("only", 1.0, (90.0,) * (n + 1)))
        with pytest.raises(ConfigurationError, match=f"expected {n} block"):
            ScenarioAnalyzer(analyzer, mission)

    def test_phase_damage_shares_sum_to_one(self, analyzer):
        mission = _mission(("cool", 0.7, 75.0), ("hot", 0.3, 110.0))
        engine = ScenarioAnalyzer(analyzer, mission)
        shares = phase_dose_shares(mission.fractions, engine.alphas)
        assert shares.shape == (2, analyzer.floorplan.n_blocks)
        np.testing.assert_allclose(shares.sum(axis=0), 1.0)
        # The hot phase ages every block faster than its time share.
        assert np.all(shares[1] > 0.3)
        # The payload's per-phase attribution is their block average.
        assert engine.phase_damage(1e5) == {
            "cool": float(shares[0].mean()),
            "hot": float(shares[1].mean()),
        }

    def test_phase_params_are_read_only(self, analyzer):
        engine = _uniform(analyzer, 95.0)
        with pytest.raises(ValueError, match="read-only"):
            engine.alphas[0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            engine.bs[0, 0] = 1.0

    def test_reliability_bounds(self, analyzer):
        mission = _uniform(analyzer, 95.0)
        t10 = mission.lifetime(10)
        times = np.logspace(np.log10(t10) - 1, np.log10(t10) + 2, 15)
        r = np.asarray(mission.reliability(times))
        assert np.all((0.0 <= r) & (r <= 1.0))
        assert np.all(np.diff(r) <= 1e-12)

    def test_time_zero(self, analyzer):
        assert _uniform(analyzer, 95.0).reliability(0.0) == pytest.approx(1.0)


def _host(rule="midpoint", vdd=None):
    return ReliabilityAnalyzer(
        make_benchmark("C2"),
        config=AnalysisConfig(grid_size=10, integration_rule=rule, vdd=vdd),
    )


TIMES = np.geomspace(1e4, 1e7, 12)


class TestHostRule:
    """A mission evaluates the design's st_fast tables, under its rule."""

    @pytest.mark.parametrize("rule", ["midpoint", "gauss"])
    def test_one_phase_mission_is_host_st_fast(self, rule):
        host = _host(rule)
        mission = _uniform(host, tuple(host.block_temperatures))
        np.testing.assert_array_equal(
            mission.reliability(TIMES), host.st_fast.reliability(TIMES)
        )
        # Seeded, like the host, at the guard-band lifetime.
        assert mission.lifetime(10.0) == host.lifetime(10.0, method="st_fast")


class TestHostVdd:
    """A phase without ``vdd`` runs at the host's supply voltage."""

    def test_one_phase_scenarios_at_host_vdd(self):
        host = _host(vdd=1.3)
        st_fast_curve = host.st_fast.reliability(TIMES)
        st_fast_lifetime = host.lifetime(10.0, method="st_fast")
        ordered = ScenarioAnalyzer(host, Scenario((StressPhase("own"),)))
        np.testing.assert_array_equal(ordered.reliability(TIMES), st_fast_curve)
        assert ordered.lifetime(10.0) == st_fast_lifetime

        residency = _uniform(host, tuple(host.block_temperatures))
        np.testing.assert_array_equal(residency.alphas[0], host.alphas)
        np.testing.assert_array_equal(residency.bs[0], host.bs)
        # 1 / (1 / alpha) can move alpha by one ulp, so the residency
        # collapse agrees with st_fast to round-off, not bit for bit.
        np.testing.assert_allclose(
            1.0 - residency.reliability(TIMES),
            1.0 - st_fast_curve,
            rtol=1e-13,
            atol=0.0,
        )
        assert residency.lifetime(10.0) == pytest.approx(
            st_fast_lifetime, rel=1e-12
        )
