"""Unit tests for the ensemble analyzers (st_fast / st_mc, eq. (28))."""

import numpy as np
import pytest

from repro.core.ensemble import BlockReliability, StFastAnalyzer, StMcAnalyzer
from repro import obs
from repro.errors import ConfigurationError
from repro.exec import ProcessBackend, ThreadBackend


@pytest.fixture(scope="module")
def blocks(request):
    analyzer = request.getfixturevalue("small_analyzer")
    return analyzer.blocks


@pytest.fixture(scope="module")
def times(request):
    analyzer = request.getfixturevalue("small_analyzer")
    center = analyzer.lifetime(10, method="guard")
    return np.logspace(np.log10(center) - 0.8, np.log10(center) + 1.2, 12)


class TestBlockReliability:
    def test_validation(self, blocks):
        with pytest.raises(ConfigurationError):
            BlockReliability(blod=blocks[0].blod, alpha=0.0, b=1.0)
        with pytest.raises(ConfigurationError):
            BlockReliability(blod=blocks[0].blod, alpha=1.0, b=0.0)

    def test_name_passthrough(self, blocks):
        assert blocks[0].name == blocks[0].blod.name


class TestStFastAnalyzer:
    def test_reliability_bounds_and_monotonicity(self, blocks, times):
        analyzer = StFastAnalyzer(blocks)
        r = analyzer.reliability(times)
        assert np.all(r >= 0.0)
        assert np.all(r <= 1.0)
        assert np.all(np.diff(r) <= 1e-12)

    def test_reliability_at_zero_is_one(self, blocks):
        analyzer = StFastAnalyzer(blocks)
        assert analyzer.reliability(0.0) == pytest.approx(1.0)

    def test_scalar_and_vector_consistent(self, blocks, times):
        analyzer = StFastAnalyzer(blocks)
        scalar = analyzer.reliability(float(times[3]))
        vector = analyzer.reliability(times)
        assert scalar == pytest.approx(vector[3])

    def test_failure_probability_complementary(self, blocks, times):
        analyzer = StFastAnalyzer(blocks)
        np.testing.assert_allclose(
            analyzer.reliability(times) + analyzer.failure_probability(times),
            1.0,
            atol=1e-12,
        )

    def test_block_failures_sum_to_chip_failure(self, blocks, times):
        analyzer = StFastAnalyzer(blocks)
        per_block = analyzer.block_failure_probabilities(times)
        assert per_block.shape == (len(blocks), times.size)
        np.testing.assert_allclose(
            1.0 - per_block.sum(axis=0),
            analyzer.reliability(times, clip=False),
            atol=1e-12,
        )

    def test_l0_ten_matches_fine_grid(self, blocks, times):
        # The paper's claim: l0 = 10 is already accurate.
        coarse = StFastAnalyzer(blocks, l0=10)
        fine = StFastAnalyzer(blocks, l0=60)
        f_coarse = coarse.failure_probability(times)
        f_fine = fine.failure_probability(times)
        mask = f_fine > 1e-14
        np.testing.assert_allclose(
            f_coarse[mask], f_fine[mask], rtol=0.02
        )

    def test_gauss_rule_matches_midpoint(self, blocks, times):
        midpoint = StFastAnalyzer(blocks, l0=20, rule="midpoint")
        gauss = StFastAnalyzer(blocks, l0=20, rule="gauss")
        f_m = midpoint.failure_probability(times)
        f_g = gauss.failure_probability(times)
        mask = f_g > 1e-14
        np.testing.assert_allclose(f_m[mask], f_g[mask], rtol=0.02)

    def test_thickness_variation_hurts_reliability(self, small_analyzer, times):
        """The whole point of the paper: more variation, earlier failures —
        and the guard-band corner is even worse than any distribution."""
        from repro import ReliabilityAnalyzer, VariationBudget

        tight = VariationBudget(three_sigma_ratio=0.01)
        loose = VariationBudget(three_sigma_ratio=0.06)
        an_tight = ReliabilityAnalyzer(
            small_analyzer.floorplan,
            budget=tight,
            config=small_analyzer.config,
        )
        an_loose = ReliabilityAnalyzer(
            small_analyzer.floorplan,
            budget=loose,
            config=small_analyzer.config,
        )
        assert an_loose.lifetime(10) < an_tight.lifetime(10)

    def test_rejects_empty_blocks(self):
        with pytest.raises(ConfigurationError):
            StFastAnalyzer([])

    def test_rejects_unknown_rule(self, blocks):
        with pytest.raises(ConfigurationError):
            StFastAnalyzer(blocks, rule="simpson")


class TestStMcAnalyzer:
    def test_matches_st_fast(self, blocks, times):
        """Table III: st_mc and st_fast agree to a fraction of a percent."""
        fast = StFastAnalyzer(blocks)
        mc = StMcAnalyzer(blocks, n_samples=20000, seed=5)
        f_fast = fast.failure_probability(times)
        f_mc = mc.failure_probability(times)
        mask = f_fast > 1e-12
        np.testing.assert_allclose(f_mc[mask], f_fast[mask], rtol=0.1)

    def test_histogram_estimator_close_to_samples(self, blocks, times):
        samples = StMcAnalyzer(blocks, n_samples=20000, seed=5)
        histogram = StMcAnalyzer(
            blocks, n_samples=20000, seed=5, estimator="histogram", bins=20
        )
        f_s = samples.failure_probability(times)
        f_h = histogram.failure_probability(times)
        mask = f_s > 1e-12
        np.testing.assert_allclose(f_h[mask], f_s[mask], rtol=0.15)

    def test_reproducible_with_seed(self, blocks, times):
        a = StMcAnalyzer(blocks, n_samples=5000, seed=9)
        b = StMcAnalyzer(blocks, n_samples=5000, seed=9)
        np.testing.assert_array_equal(
            a.reliability(times), b.reliability(times)
        )

    @pytest.mark.parametrize("cls", [ThreadBackend, ProcessBackend])
    def test_sharded_sampling_sends_one_task_per_worker(
        self, blocks, times, cls
    ):
        """A pool backend receives one task per worker, not one per shard
        (a process backend pickles the blocks into every task), and the
        grouping leaves the sample cloud unchanged."""
        serial = StMcAnalyzer(blocks, n_samples=2000, seed=4, shard_size=64)
        backend = cls(2)
        try:
            obs.reset()
            with obs.enabled():
                pooled = StMcAnalyzer(
                    blocks, n_samples=2000, seed=4, backend=backend,
                    shard_size=64,
                )
                counters = obs.metrics_snapshot()["counters"]
        finally:
            backend.close()
        assert counters["exec.shards"] == 32
        assert counters["exec.tasks"] == 2
        np.testing.assert_array_equal(
            pooled.reliability(times), serial.reliability(times)
        )

    def test_moment_samples_exposed(self, blocks):
        analyzer = StMcAnalyzer(blocks, n_samples=2000, seed=1)
        u, v = analyzer.block_moment_samples(0)
        assert u.shape == (2000,)
        assert v.shape == (2000,)
        assert np.all(v >= 0.0)

    def test_rejects_too_few_samples(self, blocks):
        with pytest.raises(ConfigurationError):
            StMcAnalyzer(blocks, n_samples=10)

    def test_rejects_unknown_estimator(self, blocks):
        with pytest.raises(ConfigurationError):
            StMcAnalyzer(blocks, estimator="kde")

    @pytest.mark.parametrize("sampler", ["lhs", "sobol"])
    def test_qmc_samplers_match_mc(self, blocks, times, sampler):
        mc = StMcAnalyzer(blocks, n_samples=8000, seed=3, sampler="mc")
        qmc = StMcAnalyzer(blocks, n_samples=8000, seed=3, sampler=sampler)
        f_mc = mc.failure_probability(times)
        f_qmc = qmc.failure_probability(times)
        mask = f_mc > 1e-12
        np.testing.assert_allclose(f_qmc[mask], f_mc[mask], rtol=0.15)

    def test_qmc_reduces_scatter(self, blocks):
        """QMC draws reproduce the st_fast answer with less seed-to-seed
        scatter than plain MC at the same sample count."""
        fast = StFastAnalyzer(blocks)
        t_ref = None
        # Pick a time where failure is well resolved.
        import numpy as np

        from repro.core.lifetime import lifetime_at_ppm

        t_ref = lifetime_at_ppm(lambda t: float(fast.reliability(t)), 100.0)
        times = np.array([t_ref])

        def scatter(sampler):
            values = [
                float(
                    StMcAnalyzer(
                        blocks, n_samples=2000, seed=seed, sampler=sampler
                    ).failure_probability(times)[0]
                )
                for seed in range(6)
            ]
            return float(np.std(np.log(values)))

        assert scatter("lhs") < scatter("mc") * 1.5  # typically much lower

    def test_rejects_unknown_sampler(self, blocks):
        with pytest.raises(ConfigurationError):
            StMcAnalyzer(blocks, sampler="halton")


class TestWorstCaseBlocks:
    """temp_unaware: st_fast at the hottest block's (alpha, b) on every block."""

    def test_all_blocks_get_worst_params(self, small_analyzer, times):
        alphas, bs = small_analyzer.worst_case
        hottest = int(np.argmax(small_analyzer.block_temperatures))
        assert np.all(alphas == small_analyzer.alphas[hottest])
        assert np.all(bs == small_analyzer.bs[hottest])
        # The method is st_fast at the broadcast vectors, bit for bit.
        np.testing.assert_array_equal(
            small_analyzer.temp_unaware.reliability(times),
            small_analyzer.st_fast.reliability(times, alphas, bs),
        )

    def test_first_minimum_alpha_on_ties(self, small_analyzer):
        point = small_analyzer.at(small_analyzer.block_temperatures)
        point.alphas = np.array([2e6, 1e6, 1e6, 3e6])
        point.bs = np.array([1.1, 1.2, 1.3, 1.4])
        alphas, bs = point.worst_case
        assert np.all(alphas == 1e6)
        assert np.all(bs == 1.2)

    def test_temp_unaware_is_pessimistic(self, blocks, times):
        aware = StFastAnalyzer(blocks)
        worst = min(blocks, key=lambda block: block.alpha)
        n = len(blocks)
        r_unaware = aware.reliability(
            times, np.full(n, worst.alpha), np.full(n, worst.b)
        )
        assert np.all(r_unaware <= aware.reliability(times) + 1e-15)

    def test_empty_rejected(self, blocks, times):
        with pytest.raises(ConfigurationError, match="one \\(alpha, b\\) pair"):
            StFastAnalyzer(blocks).reliability(
                times, np.array([]), np.array([])
            )

    @pytest.mark.parametrize("cls", [StFastAnalyzer, StMcAnalyzer])
    def test_bad_override_names_block(self, blocks, times, cls):
        analyzer = cls(blocks) if cls is StFastAnalyzer else cls(
            blocks, n_samples=200, seed=1
        )
        alphas = np.array([block.alpha for block in blocks])
        bs = np.array([block.b for block in blocks])
        for name, values, bad in (("alpha", alphas, np.nan), ("b", bs, -1.0)):
            broken = values.copy()
            broken[2] = bad
            message = f"block {blocks[2].name!r}: {name} must be finite"
            with pytest.raises(ConfigurationError, match=message):
                analyzer.reliability(times, **{f"{name}s": broken})
        with pytest.raises(ConfigurationError, match="one \\(alpha, b\\) pair"):
            analyzer.failure_probability(times, alphas=alphas[:2])


class TestOperatingPointOverrides:
    """``alphas=``/``bs=`` equal an analyzer whose blocks carry them."""

    @pytest.mark.parametrize("estimator", ["samples", "histogram"])
    def test_st_mc_reads_overrides(self, blocks, times, estimator):
        alphas = np.array([block.alpha for block in blocks]) / 3.0
        bs = np.array([block.b for block in blocks]) * 1.05
        moved = [
            BlockReliability(blod=block.blod, alpha=a, b=b)
            for block, a, b in zip(blocks, alphas.tolist(), bs.tolist(), strict=True)
        ]
        nominal = StMcAnalyzer(blocks, n_samples=500, seed=3, estimator=estimator)
        fresh = StMcAnalyzer(moved, n_samples=500, seed=3, estimator=estimator)
        np.testing.assert_array_equal(
            nominal.reliability(times, alphas, bs), fresh.reliability(times)
        )
        np.testing.assert_array_equal(
            nominal.block_failure_probabilities(times, alphas, bs),
            fresh.block_failure_probabilities(times),
        )

    def test_st_fast_reads_overrides(self, blocks, times):
        alphas = np.array([block.alpha for block in blocks]) * 2.0
        bs = np.array([block.b for block in blocks]) * 0.95
        moved = [
            BlockReliability(blod=block.blod, alpha=a, b=b)
            for block, a, b in zip(blocks, alphas.tolist(), bs.tolist(), strict=True)
        ]
        nominal = StFastAnalyzer(blocks)
        np.testing.assert_array_equal(
            nominal.failure_probability(times, alphas, bs),
            StFastAnalyzer(moved).failure_probability(times),
        )
