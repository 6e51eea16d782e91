"""Tests for the scenario evaluation engine."""

import numpy as np
import pytest

from repro import AnalysisConfig, Block, Floorplan, ReliabilityAnalyzer
from repro.errors import ConfigurationError
from repro.payloads import dump_payload, lifetime_payload, scenario_payload
from repro.scenario import (
    Scenario,
    ScenarioAnalyzer,
    StressPhase,
    effective_block_params,
)
from repro.thermal.factor_cache import clear_factor_cache, factor_cache_stats

PPM = 100.0
TIMES = np.logspace(3.0, 5.5, 9)


def _steady(mechanisms=("obd",)) -> Scenario:
    """A degenerate one-phase scenario at the design's operating point."""
    return Scenario(
        phases=(StressPhase(name="field"),), mechanisms=mechanisms
    )


def _two_phase(mechanisms=("obd",)) -> Scenario:
    return Scenario(
        phases=(
            StressPhase(name="burnin", duration_hours=500.0, power_scale=1.4),
            StressPhase(name="field"),
        ),
        mechanisms=mechanisms,
    )


class TestDegenerateScenario:
    """Satellite 1: the regression guard against the steady-state path."""

    def test_payload_byte_identical_to_lifetime(self, small_analyzer):
        document = scenario_payload(small_analyzer, _steady(), ppm=PPM)
        document.pop("scenario")
        reference = lifetime_payload(small_analyzer, PPM, ["st_fast"])
        assert dump_payload(document) == dump_payload(reference)

    def test_reliability_bitwise_vs_host(self, small_analyzer):
        engine = ScenarioAnalyzer(small_analyzer, _steady())
        ours = engine.reliability(TIMES)
        host = small_analyzer.reliability(TIMES, method="st_fast")
        assert np.array_equal(ours, np.atleast_1d(host))

    def test_lifetime_bitwise_vs_host(self, small_analyzer):
        engine = ScenarioAnalyzer(small_analyzer, _steady())
        assert engine.lifetime(PPM) == small_analyzer.lifetime(
            PPM, method="st_fast"
        )

    def test_scalar_time_returns_float(self, small_analyzer):
        engine = ScenarioAnalyzer(small_analyzer, _steady())
        value = engine.reliability(1e4)
        assert isinstance(value, float)
        assert 0.0 <= value <= 1.0


class TestResidencyComposition:
    def test_bitwise_vs_st_fast_at_effective_params(self, small_analyzer):
        """A residency scenario is the host's st_fast at the phases'
        cumulative-exposure effective ``(alpha, b)``: the mission formula."""
        scenario = Scenario(
            phases=(
                StressPhase(name="idle", fraction=0.6, temperature_c=60.0),
                StressPhase(name="turbo", fraction=0.4, temperature_c=95.0),
            ),
            composition="residency",
        )
        engine = ScenarioAnalyzer(small_analyzer, scenario)
        n_blocks = small_analyzer.floorplan.n_blocks
        params = [
            small_analyzer.obd_model.block_params(
                np.full(n_blocks, temp), small_analyzer.config.vdd
            )
            for temp in (60.0, 95.0)
        ]
        alpha_eff, b_eff = effective_block_params(
            scenario.fractions,
            np.array([[prm.alpha for prm in phase] for phase in params]),
            np.array([[prm.b for prm in phase] for phase in params]),
        )
        assert np.array_equal(
            engine.reliability(TIMES),
            small_analyzer.st_fast.reliability(
                TIMES, alphas=alpha_eff, bs=b_eff
            ),
        )

    def test_phase_damage_matches_residency_weights(self, small_analyzer):
        scenario = Scenario(
            phases=(
                StressPhase(name="idle", fraction=0.6, temperature_c=60.0),
                StressPhase(name="turbo", fraction=0.4, temperature_c=95.0),
            ),
            composition="residency",
        )
        engine = ScenarioAnalyzer(small_analyzer, scenario)
        shares = engine.phase_damage(1e5)
        assert set(shares) == {"idle", "turbo"}
        assert sum(shares.values()) == pytest.approx(1.0)
        # The hot phase dominates the dose despite the smaller residency.
        assert shares["turbo"] > shares["idle"]


class TestOrderedComposition:
    def test_splitting_a_phase_is_a_no_op(self, small_analyzer):
        whole = Scenario(
            phases=(
                StressPhase(
                    name="burnin", duration_hours=500.0, temperature_c=110.0
                ),
                StressPhase(name="field"),
            )
        )
        split = Scenario(
            phases=(
                StressPhase(
                    name="burnin_a", duration_hours=250.0, temperature_c=110.0
                ),
                StressPhase(
                    name="burnin_b", duration_hours=250.0, temperature_c=110.0
                ),
                StressPhase(name="field"),
            )
        )
        r_whole = ScenarioAnalyzer(small_analyzer, whole).reliability(TIMES)
        r_split = ScenarioAnalyzer(small_analyzer, split).reliability(TIMES)
        np.testing.assert_allclose(r_split, r_whole, rtol=1e-12, atol=0.0)

    def test_finite_phase_order_invariant_past_schedule(
        self, small_analyzer
    ):
        forward = Scenario(
            phases=(
                StressPhase(
                    name="hot", duration_hours=300.0, temperature_c=110.0
                ),
                StressPhase(
                    name="cold", duration_hours=700.0, temperature_c=60.0
                ),
                StressPhase(name="field"),
            )
        )
        backward = Scenario(
            phases=(
                StressPhase(
                    name="cold", duration_hours=700.0, temperature_c=60.0
                ),
                StressPhase(
                    name="hot", duration_hours=300.0, temperature_c=110.0
                ),
                StressPhase(name="field"),
            )
        )
        # Beyond the finite span the accumulated dose is the same sum in
        # a different order; within it the trajectories differ.
        times = np.array([1000.0, 5e3, 1e5])
        r_fwd = ScenarioAnalyzer(small_analyzer, forward).reliability(times)
        r_bwd = ScenarioAnalyzer(small_analyzer, backward).reliability(times)
        np.testing.assert_allclose(r_bwd, r_fwd, rtol=1e-12, atol=0.0)

    def test_hot_burnin_shortens_lifetime(self, small_analyzer):
        steady = ScenarioAnalyzer(small_analyzer, _steady()).lifetime(PPM)
        stressed = Scenario(
            phases=(
                StressPhase(
                    name="burnin", duration_hours=2000.0, power_scale=1.5
                ),
                StressPhase(name="field"),
            )
        )
        assert ScenarioAnalyzer(small_analyzer, stressed).lifetime(
            PPM
        ) < steady

    def test_reliability_is_monotone_decreasing(self, small_analyzer):
        engine = ScenarioAnalyzer(small_analyzer, _two_phase())
        values = engine.reliability(np.logspace(2.0, 6.0, 24))
        assert np.all(np.diff(values) <= 0.0)

    def test_phase_damage_sums_to_one(self, small_analyzer):
        engine = ScenarioAnalyzer(small_analyzer, _two_phase())
        shares = engine.phase_damage(engine.lifetime(PPM))
        assert set(shares) == {"burnin", "field"}
        assert all(s >= 0.0 for s in shares.values())
        assert sum(shares.values()) == pytest.approx(1.0)

    def test_single_phase_damage_is_all_one_phase(self, small_analyzer):
        engine = ScenarioAnalyzer(small_analyzer, _steady())
        assert engine.phase_damage(1e5) == {"field": 1.0}


class TestMechanisms:
    def test_entries_grouped_by_mechanism(self, small_analyzer):
        engine = ScenarioAnalyzer(
            small_analyzer, _steady(mechanisms=("obd", "nbti", "em"))
        )
        n_blocks = small_analyzer.floorplan.n_blocks
        assert len(engine.entries) == 3 * n_blocks
        names = [name for name, _ in engine.entries]
        assert names == (
            ["obd"] * n_blocks + ["nbti"] * n_blocks + ["em"] * n_blocks
        )

    def test_mechanism_damage_decomposes(self, small_analyzer):
        engine = ScenarioAnalyzer(
            small_analyzer, _two_phase(mechanisms=("obd", "nbti", "em"))
        )
        shares = engine.mechanism_damage(engine.lifetime(PPM))
        assert set(shares) == {"obd", "nbti", "em"}
        assert all(s >= 0.0 for s in shares.values())
        assert sum(shares.values()) == pytest.approx(1.0)

    def test_more_mechanisms_never_raise_reliability(self, small_analyzer):
        obd_only = ScenarioAnalyzer(small_analyzer, _steady())
        racing = ScenarioAnalyzer(
            small_analyzer, _steady(mechanisms=("obd", "nbti", "em"))
        )
        assert np.all(
            racing.reliability(TIMES) <= obd_only.reliability(TIMES)
        )

    def test_higher_vdd_is_worse(self, small_analyzer):
        def at(vdd):
            scenario = Scenario(
                phases=(StressPhase(name="field", vdd=vdd),),
                mechanisms=("obd", "nbti", "em"),
            )
            return ScenarioAnalyzer(small_analyzer, scenario).reliability(
                TIMES
            )

        assert np.all(at(1.3) <= at(1.0))
        assert np.any(at(1.3) < at(1.0))


class TestThermalResolution:
    def test_power_scale_phases_reuse_lu_factor(self, small_analyzer):
        clear_factor_cache(reset_stats=True)
        scenario = Scenario(
            phases=(
                StressPhase(
                    name="burnin", duration_hours=500.0, power_scale=1.4
                ),
                StressPhase(name="throttled", power_scale=0.8),
            )
        )
        ScenarioAnalyzer(small_analyzer, scenario)
        stats = factor_cache_stats()
        # Same grid + package for every phase: at most one factorisation,
        # every later phase solve is a cached back-substitution.
        assert stats["hits"] >= scenario.n_phases - 1

    def test_power_scale_needs_power(self, tiny_floorplan):
        unpowered = Floorplan(
            width=2.0,
            height=2.0,
            blocks=tuple(
                Block(
                    name=block.name,
                    rect=block.rect,
                    n_devices=block.n_devices,
                    avg_device_area=block.avg_device_area,
                    power=0.0,
                )
                for block in tiny_floorplan.blocks
            ),
        )
        analyzer = ReliabilityAnalyzer(
            unpowered, config=AnalysisConfig(grid_size=6)
        )
        scenario = Scenario(
            phases=(StressPhase(name="field", power_scale=1.2),)
        )
        with pytest.raises(ConfigurationError, match="no power"):
            ScenarioAnalyzer(analyzer, scenario)

    def test_explicit_temperature_vector_checked(self, small_analyzer):
        scenario = Scenario(
            phases=(StressPhase(name="field", temperature_c=(70.0, 90.0)),)
        )
        with pytest.raises(ConfigurationError, match="expected 4"):
            ScenarioAnalyzer(small_analyzer, scenario)


class TestValidation:
    def test_negative_times_rejected(self, small_analyzer):
        engine = ScenarioAnalyzer(small_analyzer, _steady())
        with pytest.raises(ConfigurationError, match="non-negative"):
            engine.entry_failure_probabilities(np.array([-1.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("schedule", [_steady, _two_phase])
    def test_non_finite_times_rejected(self, small_analyzer, schedule, bad):
        """Steady and dose mode both refuse what once read reliability 1."""
        engine = ScenarioAnalyzer(small_analyzer, schedule())
        with pytest.raises(ConfigurationError, match="finite and non-negative"):
            engine.reliability(np.array([1e5, bad]))
