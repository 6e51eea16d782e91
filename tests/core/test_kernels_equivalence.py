"""Equivalence regression tests for the production numerical kernels.

Every kernel must reproduce the per-block or per-cell loop it replaced,
kept as an oracle in ``tests/oracles.py``: the batched ensemble/hybrid
kernels to floating-point round-off, the vectorized geometry and
conductance assembly bit for bit.
"""

import numpy as np
import pytest

from repro.chip.geometry import GridSpec, Rect
from repro.core.ensemble import StFastAnalyzer, StMcAnalyzer
from repro.core.hybrid import HybridAnalyzer
from repro.errors import ConfigurationError
from repro.kernels import pad_rule_tables
from repro.thermal.grid import PackageModel
from repro.thermal.solver import _build_conductance_matrix
from tests import oracles


@pytest.fixture(scope="module")
def blocks(request):
    analyzer = request.getfixturevalue("small_analyzer")
    return analyzer.blocks


@pytest.fixture(scope="module")
def times(request):
    analyzer = request.getfixturevalue("small_analyzer")
    center = analyzer.lifetime(10, method="guard")
    times = np.logspace(np.log10(center) - 0.8, np.log10(center) + 1.2, 15)
    # Include the t = 0 corner the kernels special-case.
    return np.concatenate([[0.0], times])


class TestPadRuleTables:
    def test_pads_with_zero_weight(self):
        points, weights = pad_rule_tables(
            [np.array([1.0, 2.0]), np.array([5.0])],
            [np.array([0.5, 0.5]), np.array([1.0])],
        )
        np.testing.assert_array_equal(points, [[1.0, 2.0], [5.0, 5.0]])
        np.testing.assert_array_equal(weights, [[0.5, 0.5], [1.0, 0.0]])

    def test_rejects_mismatched_lists(self):
        with pytest.raises(ConfigurationError):
            pad_rule_tables([np.array([1.0])], [])
        with pytest.raises(ConfigurationError):
            pad_rule_tables([], [])


class TestEnsembleEquivalence:
    def test_st_fast_batched_matches_loop(self, blocks, times):
        analyzer = StFastAnalyzer(blocks)
        reference = 1.0 - oracles.st_fast_expectations(blocks, times)
        fast = analyzer.block_failure_probabilities(times)
        np.testing.assert_allclose(fast, reference, rtol=0.0, atol=1e-13)

    def test_st_mc_samples_batched_matches_loop(self, blocks, times):
        analyzer = StMcAnalyzer(blocks, n_samples=2000, seed=7)
        reference = 1.0 - oracles.st_mc_sample_expectations(analyzer, times)
        fast = analyzer.block_failure_probabilities(times)
        np.testing.assert_allclose(fast, reference, rtol=0.0, atol=1e-13)


class TestHybridEquivalence:
    def test_tables_and_queries_match(self, blocks, times):
        fast = HybridAnalyzer(blocks, n_alpha=40, n_b=40)
        reference = oracles.hybrid_tables(fast)
        np.testing.assert_allclose(fast.tables, reference, rtol=0.0, atol=1e-12)
        alpha_min = min(block.alpha for block in blocks)
        query_times = np.concatenate(
            [[0.0], np.geomspace(1e-4 * alpha_min, 0.2 * alpha_min, 20)]
        )
        ref_probs = oracles.hybrid_failure_probabilities(fast, query_times)
        fast_probs = fast.block_failure_probabilities(query_times)
        np.testing.assert_allclose(
            fast_probs, ref_probs, rtol=0.0, atol=1e-13
        )

    def test_profile_sequence_matches_oracle(self, blocks):
        # The look-up keeps the last profile's stencil: A, B, A again
        # (served from it) and A with its b's, then its alphas, mutated
        # in place (each a new profile) must each read their own
        # profile's values, and an invalid override is still rejected.
        fast = HybridAnalyzer(blocks, n_alpha=40, n_b=40)
        alphas = np.array([block.alpha for block in blocks])
        bs = np.array([block.b for block in blocks])
        profile_a = (alphas * 0.9, bs * 1.1)
        profile_b = (alphas * 1.2, bs * 0.85)
        query_times = np.concatenate(
            [[0.0], np.geomspace(1e-4 * alphas.min(), 0.2 * alphas.min(), 20)]
        )

        def check(profile):
            got = fast.block_failure_probabilities(query_times, *profile)
            reference = oracles.hybrid_failure_probabilities(
                fast, query_times, *(values.copy() for values in profile)
            )
            np.testing.assert_allclose(got, reference, rtol=0.0, atol=1e-13)
            return got

        first_a = check(profile_a)
        check(profile_b)
        assert np.array_equal(check(profile_a), first_a)
        profile_a[1][:] *= 0.97
        new_bs = check(profile_a)
        assert not np.array_equal(new_bs, first_a)
        profile_a[0][:] *= 1.05
        assert not np.array_equal(check(profile_a), new_bs)
        bad_alphas = profile_a[0].copy()
        bad_alphas[0] = np.nan
        with pytest.raises(ConfigurationError, match="alpha must be finite"):
            fast.block_failure_probabilities(query_times, bad_alphas, profile_a[1])

    def test_lookup_bit_identical_to_oracle(self, blocks):
        # Same table, same per-element arithmetic in the same operand
        # order: the batched look-up must read the per-block loop's
        # floats exactly, at nominal and at overridden profiles.
        fast = HybridAnalyzer(blocks, n_alpha=40, n_b=40)
        alphas = np.array([block.alpha for block in blocks])
        bs = np.array([block.b for block in blocks])
        query_times = np.concatenate(
            [[0.0], np.geomspace(1e-6 * alphas.min(), 0.3 * alphas.min(), 40)]
        )
        for scale_alpha, scale_b in ((1.0, 1.0), (0.9, 1.1), (1.2, 0.85)):
            profile = (alphas * scale_alpha, bs * scale_b)
            assert np.array_equal(
                fast.block_failure_probabilities(query_times, *profile),
                oracles.hybrid_failure_probabilities(fast, query_times, *profile),
            )

    def test_out_of_range_error_matches(self, blocks):
        analyzer = HybridAnalyzer(blocks, n_alpha=40, n_b=40)
        alpha_max = max(block.alpha for block in blocks)
        bad = np.array([alpha_max * 2.0])
        with pytest.raises(ConfigurationError) as ref_exc:
            oracles.hybrid_failure_probabilities(analyzer, bad)
        with pytest.raises(ConfigurationError) as fast_exc:
            analyzer.block_failure_probabilities(bad)
        assert str(fast_exc.value) == str(ref_exc.value)


class TestGeometryEquivalence:
    def test_overlap_fractions_bit_identical(self):
        grid = GridSpec(nx=13, ny=9, width=2.0, height=1.5)
        rng = np.random.default_rng(3)
        rects = [
            Rect(0.0, 0.0, 2.0, 1.5),  # whole die
            Rect(0.3, 0.2, 0.05, 0.04),  # interior, sub-cell
            Rect(-0.4, -0.3, 0.8, 0.6),  # straddles the die corner
            Rect(5.0, 5.0, 1.0, 1.0),  # fully off-die
        ] + [
            Rect(
                rng.uniform(-0.5, 2.0),
                rng.uniform(-0.5, 1.5),
                rng.uniform(0.01, 1.0),
                rng.uniform(0.01, 0.8),
            )
            for _ in range(50)
        ]
        for rect in rects:
            np.testing.assert_array_equal(
                grid.overlap_fractions(rect), oracles.overlap_fractions(grid, rect)
            )


class TestConductanceEquivalence:
    def test_matrix_bit_identical(self):
        grid = GridSpec(nx=11, ny=7, width=0.016, height=0.012)
        package = PackageModel()
        fast = _build_conductance_matrix(grid, package).toarray()
        reference = oracles.conductance_matrix(grid, package).toarray()
        np.testing.assert_array_equal(fast, reference)
