"""Unit tests for the ReliabilityAnalyzer facade."""

import numpy as np
import pytest

from repro import (
    OBDModel,
    ReliabilityAnalyzer,
    VariationBudget,
)
from repro.core.analyzer import METHODS
from repro.errors import ConfigurationError


class TestConstruction:
    def test_default_construction_runs_thermal(self, small_floorplan):
        analyzer = ReliabilityAnalyzer(small_floorplan)
        assert analyzer.thermal is not None
        assert analyzer.block_temperatures.shape == (
            small_floorplan.n_blocks,
        )
        # Self-heating above ambient.
        assert np.all(analyzer.block_temperatures > 45.0)

    def test_explicit_temperatures_skip_thermal(self, small_floorplan):
        temps = np.full(small_floorplan.n_blocks, 85.0)
        analyzer = ReliabilityAnalyzer(
            small_floorplan, block_temperatures=temps
        )
        assert analyzer.thermal is None
        np.testing.assert_allclose(analyzer.block_temperatures, 85.0)

    def test_temperature_shape_checked(self, small_floorplan):
        with pytest.raises(ConfigurationError):
            ReliabilityAnalyzer(
                small_floorplan, block_temperatures=np.array([85.0])
            )

    def test_powerless_floorplan_uses_reference_temperature(
        self, small_floorplan, obd_model
    ):
        cold = small_floorplan.with_powers(
            {name: 0.0 for name in small_floorplan.block_names}
        )
        analyzer = ReliabilityAnalyzer(cold)
        np.testing.assert_allclose(
            analyzer.block_temperatures, obd_model.t_ref
        )

    def test_grid_and_blods_prepared(self, small_analyzer):
        cfg = small_analyzer.config
        assert small_analyzer.grid.n_cells == cfg.grid_size**2
        assert len(small_analyzer.blods) == small_analyzer.floorplan.n_blocks
        assert len(small_analyzer.blocks) == small_analyzer.floorplan.n_blocks

    def test_hotter_block_has_smaller_alpha(self, small_analyzer):
        temps = small_analyzer.block_temperatures
        alphas = np.array([b.alpha for b in small_analyzer.blocks])
        assert alphas[np.argmax(temps)] == alphas.min()

    def test_summary_structure(self, small_analyzer):
        summary = small_analyzer.summary()
        assert summary["design"]["devices"] == small_analyzer.floorplan.n_devices
        assert len(summary["temperatures_c"]) == small_analyzer.floorplan.n_blocks
        assert summary["variation"]["nominal_nm"] == 2.2


class TestMethods:
    def test_all_methods_return_probabilities(self, small_analyzer):
        t = small_analyzer.lifetime(10, method="st_fast")
        for method in METHODS:
            value = small_analyzer.reliability(
                t, method=method, mc_chips=50
            )
            assert 0.0 <= float(value) <= 1.0

    def test_unknown_method_rejected(self, small_analyzer):
        with pytest.raises(ConfigurationError):
            small_analyzer.reliability(1e5, method="astrology")

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("method", METHODS)
    def test_non_finite_time_rejected(self, small_analyzer, method, bad):
        """An infinite time once took the t = 0 branch and read 1.0."""
        with pytest.raises(ConfigurationError, match="finite and non-negative"):
            small_analyzer.reliability(
                np.array([1e5, bad]), method=method, mc_chips=50
            )

    def test_scalar_vector_consistency(self, small_analyzer):
        t = small_analyzer.lifetime(10)
        times = np.array([t / 2.0, t, 2.0 * t])
        vec = small_analyzer.reliability(times)
        assert float(small_analyzer.reliability(t)) == pytest.approx(vec[1])

    def test_statistical_methods_agree(self, small_analyzer):
        """Table III in miniature: st_fast, st_mc, hybrid within ~1-2 %."""
        lt_fast = small_analyzer.lifetime(10, method="st_fast")
        lt_mc = small_analyzer.lifetime(10, method="st_mc")
        lt_hyb = small_analyzer.lifetime(10, method="hybrid")
        assert lt_mc == pytest.approx(lt_fast, rel=0.03)
        assert lt_hyb == pytest.approx(lt_fast, rel=0.03)

    def test_method_ordering(self, small_analyzer):
        """guard < temp_unaware < st_fast lifetimes (Fig. 10 ordering)."""
        lt_fast = small_analyzer.lifetime(10, method="st_fast")
        lt_unaware = small_analyzer.lifetime(10, method="temp_unaware")
        lt_guard = small_analyzer.lifetime(10, method="guard")
        assert lt_guard < lt_unaware < lt_fast

    def test_one_ppm_earlier_than_ten_ppm(self, small_analyzer):
        assert small_analyzer.lifetime(1) < small_analyzer.lifetime(10)

    def test_lifetime_solves_reliability(self, small_analyzer):
        t = small_analyzer.lifetime(10)
        assert float(small_analyzer.reliability(t)) == pytest.approx(
            1.0 - 1e-5, abs=1e-9
        )

    def test_mc_lifetime_close_to_st_fast(self, small_analyzer):
        lt_fast = small_analyzer.lifetime(10, method="st_fast")
        lt_mc = small_analyzer.mc_lifetime(10, n_chips=300, seed=1)
        assert lt_mc == pytest.approx(lt_fast, rel=0.1)

    def test_lifetime_mc_method_redirects(self, small_analyzer):
        with pytest.raises(ConfigurationError):
            small_analyzer.lifetime(10, method="mc")

    def test_mc_failure_times(self, small_analyzer):
        ft = small_analyzer.mc_failure_times(n_chips=100, seed=2)
        assert ft.shape == (100,)
        assert np.all(ft > 0.0)


class TestConfigurationEffects:
    def test_vdd_override_shortens_life(self, small_floorplan, fast_config):
        import dataclasses

        nominal = ReliabilityAnalyzer(small_floorplan, config=fast_config)
        boosted = ReliabilityAnalyzer(
            small_floorplan,
            config=dataclasses.replace(fast_config, vdd=1.3),
        )
        assert boosted.lifetime(10) < nominal.lifetime(10)

    def test_correlation_distance_affects_result_mildly(
        self, small_floorplan, fast_config
    ):
        import dataclasses

        lifetimes = []
        for rho in (0.25, 0.75):
            analyzer = ReliabilityAnalyzer(
                small_floorplan,
                config=dataclasses.replace(fast_config, rho_dist=rho),
            )
            lifetimes.append(analyzer.lifetime(10))
        # Correlation structure shifts the answer but not wildly.
        assert lifetimes[0] == pytest.approx(lifetimes[1], rel=0.3)

    def test_quadtree_correlation_model_option(
        self, small_floorplan, fast_config
    ):
        import dataclasses

        grid_based = ReliabilityAnalyzer(small_floorplan, config=fast_config)
        quadtree = ReliabilityAnalyzer(
            small_floorplan,
            config=dataclasses.replace(
                fast_config, correlation_model="quadtree", quadtree_levels=2
            ),
        )
        assert quadtree.correlation is None
        lt_grid = grid_based.lifetime(10)
        lt_qt = quadtree.lifetime(10)
        # Different correlation structures, same ballpark.
        assert lt_qt == pytest.approx(lt_grid, rel=0.3)

    def test_unknown_correlation_model_rejected(
        self, small_floorplan, fast_config
    ):
        import dataclasses

        with pytest.raises(ConfigurationError, match="correlation model"):
            ReliabilityAnalyzer(
                small_floorplan,
                config=dataclasses.replace(
                    fast_config, correlation_model="kriging"
                ),
            )

    def test_mean_offsets_shift_lifetime(self, small_floorplan, fast_config):
        flat = ReliabilityAnalyzer(small_floorplan, config=fast_config)
        thicker = ReliabilityAnalyzer(
            small_floorplan,
            config=fast_config,
            mean_offsets=np.full(fast_config.grid_size**2, 0.02),
        )
        # Uniformly thicker oxide lives longer.
        assert thicker.lifetime(10) > flat.lifetime(10)

    def test_custom_budget_and_model(self, small_floorplan, fast_config):
        analyzer = ReliabilityAnalyzer(
            small_floorplan,
            budget=VariationBudget(three_sigma_ratio=0.02),
            obd_model=OBDModel(alpha_ref=1e9),
            config=fast_config,
        )
        assert analyzer.budget.three_sigma_ratio == 0.02
        assert analyzer.lifetime(10) > 0.0
