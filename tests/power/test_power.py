"""Unit tests for the architectural power model and activity profiles."""

import warnings

import numpy as np
import pytest

from repro.chip.benchmarks import make_alpha_processor
from repro.chip.floorplan import Floorplan
from repro.errors import ConfigurationError, SolverError
from repro.power.activity import (
    ActivityProfile,
    available_presets,
    classify_block,
)
from repro.power.loop import solve_power_thermal
from repro.power.model import BlockPowerModel, PowerModelParams
from repro.thermal.hotspot import HotSpotLite
from tests import oracles


class TestClassifyBlock:
    @pytest.mark.parametrize(
        "name,expected",
        [
            ("icache", "cache"),
            ("l2_left", "cache"),
            ("intexec", "integer"),
            ("fpmul", "floating"),
            ("bpred", "frontend"),
            ("mystery", "other"),
        ],
    )
    def test_keyword_classification(self, name, expected):
        assert classify_block(name) == expected


class TestActivityProfile:
    def test_presets_exist(self):
        assert "typical" in available_presets()
        assert "idle" in available_presets()

    def test_preset_covers_all_blocks(self, tiny_floorplan):
        profile = ActivityProfile.preset("typical", tiny_floorplan)
        for name in tiny_floorplan.block_names:
            assert 0.0 <= profile.factor(name) <= 1.0

    def test_unknown_preset_rejected(self, tiny_floorplan):
        with pytest.raises(ConfigurationError):
            ActivityProfile.preset("warp_speed", tiny_floorplan)

    def test_default_for_unknown_block(self):
        profile = ActivityProfile(name="x", factors={"a": 0.9}, default=0.3)
        assert profile.factor("a") == 0.9
        assert profile.factor("zzz") == 0.3

    def test_rejects_out_of_range_factor(self):
        with pytest.raises(ConfigurationError):
            ActivityProfile(name="x", factors={"a": 1.5})

    def test_idle_below_typical(self, tiny_floorplan):
        idle = ActivityProfile.preset("idle", tiny_floorplan)
        typical = ActivityProfile.preset("typical", tiny_floorplan)
        for name in tiny_floorplan.block_names:
            assert idle.factor(name) < typical.factor(name)


class TestBlockPowerModel:
    def test_dynamic_power_scales_with_activity(self):
        model = BlockPowerModel()
        assert model.dynamic_power(2.0, 0.8) == pytest.approx(
            2.0 * model.dynamic_power(2.0, 0.4)
        )

    def test_dynamic_power_scales_with_vdd_squared(self):
        low = BlockPowerModel(PowerModelParams(vdd=1.0))
        high = BlockPowerModel(PowerModelParams(vdd=2.0))
        assert high.dynamic_power(1.0, 0.5) == pytest.approx(
            4.0 * low.dynamic_power(1.0, 0.5)
        )

    def test_leakage_grows_exponentially_with_temperature(self):
        model = BlockPowerModel()
        p = model.params
        ratio = model.leakage_power(1.0, p.leak_temp_ref + 23.1) / (
            model.leakage_power(1.0, p.leak_temp_ref)
        )
        assert ratio == pytest.approx(np.exp(p.leak_temp_slope * 23.1))

    def test_floorplan_powers_keys(self, tiny_floorplan):
        model = BlockPowerModel()
        profile = ActivityProfile.preset("typical", tiny_floorplan)
        powers = model.floorplan_powers(tiny_floorplan, profile)
        assert set(powers) == set(tiny_floorplan.block_names)
        assert all(p > 0.0 for p in powers.values())

    def test_floorplan_powers_temperature_shape_checked(self, tiny_floorplan):
        model = BlockPowerModel()
        profile = ActivityProfile.preset("typical", tiny_floorplan)
        with pytest.raises(ConfigurationError):
            model.floorplan_powers(tiny_floorplan, profile, np.zeros(5))

    def test_block_powers_match_scalar_oracle(self):
        # Per element, the vector formula is the scalar one: random
        # temperatures, one past the overflow point (inf, no warning).
        alpha = make_alpha_processor()
        model = BlockPowerModel(PowerModelParams(leak_temp_slope=0.5))
        profile = ActivityProfile.preset("fp_heavy", alpha)
        temperatures = np.random.default_rng(5).uniform(20.0, 140.0, alpha.n_blocks)
        temperatures[3] = 1e4
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            powers = model.block_powers(alpha, profile, temperatures)
            by_name = model.floorplan_powers(alpha, profile, temperatures)
        expected = oracles.block_powers(model.params, alpha, profile, temperatures)
        assert powers.tolist() == list(expected.values())
        assert by_name == expected
        assert powers[3] == np.inf
        assert np.isfinite(np.delete(powers, 3)).all()
        for j, block in enumerate(alpha.blocks):
            scalar = model.block_power(
                block.rect.area, profile.factor(block.name), temperatures[j]
            )
            assert isinstance(scalar, float)
            assert scalar == powers[j]

    def test_unknown_block_factor_rejected(self):
        alpha = make_alpha_processor()
        profile = ActivityProfile(name="typo", factors={"icachee": 0.9})
        model = BlockPowerModel()
        with pytest.raises(ConfigurationError, match="icachee"):
            model.block_powers(alpha, profile)
        with pytest.raises(ConfigurationError, match="icachee"):
            model.floorplan_powers(alpha, profile)

    def test_missing_blocks_take_the_default(self, tiny_floorplan):
        model = BlockPowerModel()
        profile = ActivityProfile(name="partial", factors={"hot": 0.9}, default=0.2)
        powers = model.floorplan_powers(tiny_floorplan, profile)
        cool = tiny_floorplan.block("cool")
        assert powers["cool"] == model.block_power(
            cool.rect.area, 0.2, model.params.leak_temp_ref
        )

    def test_params_validation(self):
        with pytest.raises(ConfigurationError):
            PowerModelParams(vdd=0.0)
        with pytest.raises(ConfigurationError):
            PowerModelParams(leak_temp_slope=-0.1)


class TestPowerThermalLoop:
    def test_converges_on_tiny_design(self, tiny_floorplan):
        profile = ActivityProfile.preset("typical", tiny_floorplan)
        solution = solve_power_thermal(tiny_floorplan, profile)
        assert solution.iterations < 25
        assert np.all(solution.block_temperatures > 0.0)
        # Converged powers are installed on the floorplan copy.
        assert solution.floorplan.total_power > 0.0

    def test_hotter_workload_hotter_chip(self, tiny_floorplan):
        idle = solve_power_thermal(
            tiny_floorplan, ActivityProfile.preset("idle", tiny_floorplan)
        )
        busy = solve_power_thermal(
            tiny_floorplan, ActivityProfile.preset("int_heavy", tiny_floorplan)
        )
        assert (
            busy.block_temperatures.max() > idle.block_temperatures.max()
        )

    def test_leakage_feedback_raises_power(self, tiny_floorplan):
        # The converged power must exceed the cold-chip estimate because
        # leakage grows with the self-heated temperature.
        profile = ActivityProfile.preset("typical", tiny_floorplan)
        model = BlockPowerModel()
        cold = sum(
            model.floorplan_powers(tiny_floorplan, profile).values()
        )
        solution = solve_power_thermal(tiny_floorplan, profile, power_model=model)
        thermal = HotSpotLite().analyze(solution.floorplan)
        assert solution.floorplan.total_power > 0.9 * cold
        np.testing.assert_allclose(
            thermal.block_temperatures,
            solution.block_temperatures,
            atol=0.2,
        )

    def test_runaway_detected(self, tiny_floorplan):
        # An absurd leakage slope prevents convergence: the leakage
        # exponential overflows, and the loop must report runaway itself
        # (not a solver failure on non-finite temperatures) without any
        # overflow or inf*0 RuntimeWarning on the way.
        params = PowerModelParams(leak_density_ref=5.0, leak_temp_slope=0.5)
        profile = ActivityProfile.preset("typical", tiny_floorplan)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(
                SolverError, match=r"did not converge.*thermal runaway"
            ):
                solve_power_thermal(
                    tiny_floorplan,
                    profile,
                    power_model=BlockPowerModel(params),
                    max_iterations=8,
                )

    def test_leakage_overflow_is_infinite_without_warning(self):
        model = BlockPowerModel(PowerModelParams(leak_temp_slope=0.5))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert model.leakage_power(1.0, 1e4) == float("inf")
            assert np.isfinite(model.leakage_power(1.0, 100.0))

    def test_unknown_block_factor_rejected(self):
        # A misspelt block used to solve every block at the default 0.5.
        alpha = make_alpha_processor()
        profile = ActivityProfile(name="typo", factors={"icachee": 0.9})
        with pytest.raises(ConfigurationError, match=r"typo.*\['icachee'\]"):
            solve_power_thermal(alpha, profile)

    @pytest.mark.parametrize(
        "kwargs,name",
        [
            ({"tolerance": -1.0}, "tolerance"),
            ({"tolerance": float("nan")}, "tolerance"),
            ({"tolerance": float("inf")}, "tolerance"),
            ({"max_iterations": 0}, "max_iterations"),
            ({"max_iterations": -3}, "max_iterations"),
        ],
        ids=[
            "negative-tolerance",
            "nan-tolerance",
            "inf-tolerance",
            "zero-iterations",
            "negative-iterations",
        ],
    )
    def test_invalid_arguments_rejected(self, tiny_floorplan, kwargs, name):
        # These used to end as "did not converge ... thermal runaway".
        profile = ActivityProfile.preset("typical", tiny_floorplan)
        with pytest.raises(ConfigurationError, match=name):
            solve_power_thermal(tiny_floorplan, profile, **kwargs)

    def test_floorplan_built_on_first_read(self, tiny_floorplan, monkeypatch):
        calls = []
        with_powers = Floorplan.with_powers

        def counting(self, powers):
            calls.append(powers)
            return with_powers(self, powers)

        monkeypatch.setattr(Floorplan, "with_powers", counting)
        profile = ActivityProfile.preset("typical", tiny_floorplan)
        solution = solve_power_thermal(tiny_floorplan, profile)
        assert solution.block_temperatures.shape == (2,)
        assert calls == []
        floorplan = solution.floorplan
        assert solution.floorplan is floorplan
        assert len(calls) == 1
        assert [b.power for b in floorplan.blocks] == solution.block_powers.tolist()
        assert solution.input_floorplan is tiny_floorplan
        with pytest.raises(ValueError):
            solution.block_powers[0] = 0.0
