"""End-to-end integration tests: full flow on small designs.

These exercise the whole pipeline the way a user would — floorplan in,
lifetimes out — and check the paper's qualitative conclusions at reduced
scale (full scale lives in ``benchmarks/``).
"""

import dataclasses

import numpy as np
import pytest

from repro import (
    ActivityProfile,
    AnalysisConfig,
    ReliabilityAnalyzer,
    make_manycore,
    make_synthetic_design,
    solve_power_thermal,
)


@pytest.fixture(scope="module")
def config():
    return AnalysisConfig(grid_size=8, st_mc_samples=4000, mc_chunk_size=50)


@pytest.fixture(scope="module")
def design():
    return make_synthetic_design("E2E", 20_000, 6, 3.0, seed=7)


@pytest.fixture(scope="module")
def analyzer(design, config):
    return ReliabilityAnalyzer(design, config=config)


class TestFullFlow:
    def test_thermal_feeds_reliability(self, analyzer):
        # Temperatures vary block to block, and so do the Weibull params.
        temps = analyzer.block_temperatures
        alphas = np.array([b.alpha for b in analyzer.blocks])
        assert np.ptp(temps) > 1.0
        assert np.ptp(alphas) > 0.0
        order_temp = np.argsort(temps)
        order_alpha = np.argsort(alphas)[::-1]
        np.testing.assert_array_equal(order_temp, order_alpha)

    def test_method_agreement_table3_shape(self, analyzer):
        """The Table III shape at reduced scale: statistical methods agree
        with MC to a few percent; guard-band is ~half."""
        lt = {
            m: analyzer.lifetime(10, method=m)
            for m in ("st_fast", "st_mc", "hybrid", "temp_unaware", "guard")
        }
        lt_mc = analyzer.mc_lifetime(10, n_chips=600, seed=3)
        for method in ("st_fast", "st_mc", "hybrid"):
            error = abs(lt[method] - lt_mc) / lt_mc
            assert error < 0.05, f"{method}: {error:.3f}"
        # The guard error band widens with design size (Table III shows
        # 42-56 % at 50K-840K devices); this 20K design sits below.
        guard_error = 1.0 - lt["guard"] / lt_mc
        assert 0.2 < guard_error < 0.7
        unaware_error = 1.0 - lt["temp_unaware"] / lt_mc
        assert 0.02 < unaware_error < guard_error

    def test_failure_time_mc_agrees_in_bulk(self, analyzer):
        ft = analyzer.mc_failure_times(n_chips=2000, seed=9)
        t20 = float(np.quantile(ft, 0.2))
        curve = analyzer.mc_reliability_curve(
            np.array([t20]), n_chips=400, seed=10
        )
        assert 1.0 - curve.reliability[0] == pytest.approx(0.2, abs=0.05)

    def test_reliability_curves_ordered(self, analyzer):
        t = analyzer.lifetime(100, method="guard")
        times = np.logspace(np.log10(t) - 0.5, np.log10(t) + 1.0, 10)
        r_fast = np.asarray(analyzer.reliability(times, method="st_fast"))
        r_unaware = np.asarray(
            analyzer.reliability(times, method="temp_unaware")
        )
        r_guard = np.asarray(analyzer.reliability(times, method="guard"))
        assert np.all(r_guard <= r_unaware + 1e-12)
        assert np.all(r_unaware <= r_fast + 1e-12)


class TestWorkloadScenario:
    def test_power_thermal_reliability_chain(self, config):
        """Wattch-like power -> HotSpotLite -> OBD analysis, per workload.

        Uses architecturally named blocks so the activity presets
        differentiate (generic names all classify as "other")."""
        from repro import Block, Floorplan, Rect

        design = Floorplan(
            width=3.0,
            height=3.0,
            blocks=(
                Block("intexec", Rect(0.0, 0.0, 1.5, 1.5), 6000),
                Block("fpmul", Rect(1.5, 0.0, 1.5, 1.5), 5000),
                Block("icache", Rect(0.0, 1.5, 1.5, 1.5), 6000),
                Block("bpred", Rect(1.5, 1.5, 1.5, 1.5), 3000),
            ),
        )
        lifetimes = {}
        for preset in ("idle", "typical", "int_heavy"):
            profile = ActivityProfile.preset(preset, design)
            solution = solve_power_thermal(design, profile)
            analyzer = ReliabilityAnalyzer(
                solution.floorplan,
                config=config,
                block_temperatures=solution.block_temperatures,
            )
            lifetimes[preset] = analyzer.lifetime(10)
        assert lifetimes["idle"] > lifetimes["typical"]
        assert lifetimes["typical"] > lifetimes["int_heavy"]


class TestManycoreScenario:
    def test_hot_cores_dominate_failure(self, config):
        fp = make_manycore(
            n_cores_x=3,
            n_cores_y=3,
            die_size=6.0,
            devices_per_core=2000,
            active_cores=(4,),
        )
        analyzer = ReliabilityAnalyzer(fp, config=config)
        t = analyzer.lifetime(100)
        failures = analyzer.st_fast.block_failure_probabilities(
            np.array([t])
        )[:, 0]
        # The active centre core is the weakest link.
        assert int(np.argmax(failures)) == 4
        assert failures[4] > 2.0 * np.median(failures)


class TestVoltageScaling:
    def test_voltage_headroom_tradeoff(self, design, config):
        """The paper's motivation: accurate analysis buys supply-voltage
        headroom. The statistical lifetime at a raised Vdd can still beat
        the guard-band lifetime at nominal Vdd."""
        nominal = ReliabilityAnalyzer(design, config=config)
        raised = ReliabilityAnalyzer(
            design, config=dataclasses.replace(config, vdd=1.21)
        )
        lt_guard_nominal = nominal.lifetime(10, method="guard")
        lt_stat_raised = raised.lifetime(10, method="st_fast")
        assert lt_stat_raised > lt_guard_nominal


class TestQuadtreeVariant:
    def test_quadtree_correlation_model_plugs_in(self, design, config, budget):
        """The quad-tree model feeds the same downstream analysis."""
        from repro import build_quadtree_model
        from repro.core.blod import characterize_blods
        from repro.core.ensemble import BlockReliability, StFastAnalyzer

        analyzer = ReliabilityAnalyzer(design, config=config)
        grid = analyzer.grid
        qt_model = build_quadtree_model(budget, grid, levels=3)
        blods = characterize_blods(design, grid, qt_model)
        blocks = [
            BlockReliability(blod=blod, alpha=b.alpha, b=b.b)
            for blod, b in zip(blods, analyzer.blocks, strict=True)
        ]
        qt_fast = StFastAnalyzer(blocks)
        t = analyzer.lifetime(10)
        # Different correlation structure, same ballpark answer.
        r_grid = float(analyzer.reliability(t))
        r_qt = float(qt_fast.reliability(t))
        assert abs((1.0 - r_qt) / (1.0 - r_grid) - 1.0) < 0.5
