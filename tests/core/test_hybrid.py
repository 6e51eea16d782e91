"""Unit tests for the hybrid table-look-up analyzer (Sec. IV-E)."""

import numpy as np
import pytest

from repro.core.ensemble import StFastAnalyzer
from repro.core.hybrid import HybridAnalyzer
from repro.errors import ConfigurationError


@pytest.fixture(scope="module")
def blocks(request):
    return request.getfixturevalue("small_analyzer").blocks


@pytest.fixture(scope="module")
def times(request):
    analyzer = request.getfixturevalue("small_analyzer")
    center = analyzer.lifetime(10, method="guard")
    return np.logspace(np.log10(center) - 0.8, np.log10(center) + 1.2, 12)


@pytest.fixture(scope="module")
def hybrid(blocks):
    return HybridAnalyzer(blocks, n_alpha=100, n_b=100)


class TestHybridAccuracy:
    def test_matches_st_fast(self, blocks, hybrid, times):
        """Table III: the hybrid method keeps st_fast-level accuracy."""
        fast = StFastAnalyzer(blocks)
        f_fast = fast.failure_probability(times)
        f_hyb = hybrid.failure_probability(times)
        mask = f_fast > 1e-12
        np.testing.assert_allclose(f_hyb[mask], f_fast[mask], rtol=0.05)

    def test_reliability_bounds_and_monotone(self, hybrid, times):
        r = hybrid.reliability(times)
        assert np.all((0.0 <= r) & (r <= 1.0))
        assert np.all(np.diff(r) <= 1e-12)

    def test_time_zero(self, hybrid):
        assert hybrid.reliability(0.0) == pytest.approx(1.0)

    def test_finer_table_more_accurate(self, blocks, times):
        fast = StFastAnalyzer(blocks)
        f_ref = fast.failure_probability(times)
        mask = f_ref > 1e-12
        coarse = HybridAnalyzer(blocks, n_alpha=12, n_b=12)
        fine = HybridAnalyzer(blocks, n_alpha=200, n_b=200)
        err_coarse = np.max(
            np.abs(coarse.failure_probability(times)[mask] / f_ref[mask] - 1.0)
        )
        err_fine = np.max(
            np.abs(fine.failure_probability(times)[mask] / f_ref[mask] - 1.0)
        )
        assert err_fine <= err_coarse


class TestHybridProfileReuse:
    def test_different_profile_via_overrides(self, blocks, hybrid, times):
        """The hybrid value proposition: re-evaluate a new temperature
        profile without rebuilding tables."""
        # A hotter profile: all alphas scaled down 2x, bs nudged.
        alphas = np.array([b.alpha for b in blocks]) / 2.0
        bs = np.array([b.b for b in blocks]) * 0.99
        f_new = hybrid.failure_probability(times, alphas=alphas, bs=bs)
        # Reference: a fresh st_fast with the same overridden parameters.
        from repro.core.ensemble import BlockReliability

        new_blocks = [
            BlockReliability(blod=b.blod, alpha=a, b=bb)
            for b, a, bb in zip(blocks, alphas, bs, strict=True)
        ]
        f_ref = StFastAnalyzer(new_blocks).failure_probability(times)
        mask = f_ref > 1e-12
        np.testing.assert_allclose(f_new[mask], f_ref[mask], rtol=0.05)

    def test_hotter_profile_fails_earlier(self, blocks, hybrid, times):
        alphas = np.array([b.alpha for b in blocks])
        f_nom = hybrid.failure_probability(times)
        f_hot = hybrid.failure_probability(times, alphas=alphas / 3.0)
        assert np.all(f_hot >= f_nom)

    def test_override_shape_checked(self, hybrid, times):
        with pytest.raises(ConfigurationError):
            hybrid.failure_probability(times, alphas=np.array([1.0]))


@pytest.mark.parametrize("value", [np.nan, np.inf, 0.0, -1.0])
@pytest.mark.parametrize("name", ["alpha", "b"])
@pytest.mark.parametrize("where", ["block", "override"])
def test_invalid_weibull_parameter_rejected(blocks, hybrid, times, where, name, value):
    """NaN, infinite, zero or negative (alpha, b) name the block instead of
    silently dropping it from the failure sum (or returning NaN)."""
    from repro.core.ensemble import BlockReliability

    target = blocks[1]
    message = f"block {target.name!r}: {name} must be finite and positive"
    if where == "block":
        params = {"alpha": target.alpha, "b": target.b, name: value}
        with pytest.raises(ConfigurationError, match=message):
            BlockReliability(blod=target.blod, **params)
        return
    overrides = {
        "alphas": np.array([b.alpha for b in blocks]),
        "bs": np.array([b.b for b in blocks]),
    }
    overrides[f"{name}s"][1] = value
    with pytest.raises(ConfigurationError, match=message):
        hybrid.reliability(times, **overrides)


class TestHybridRangeHandling:
    def test_b_outside_table_rejected(self, blocks, hybrid, times):
        bs = np.array([b.b for b in blocks]) * 5.0
        with pytest.raises(ConfigurationError):
            hybrid.failure_probability(times, bs=bs)

    def test_time_beyond_table_rejected(self, blocks):
        hybrid = HybridAnalyzer(blocks, log_t_ratio_range=(-20.0, -10.0))
        alpha_min = min(b.alpha for b in blocks)
        too_late = alpha_min * np.exp(-5.0)
        with pytest.raises(ConfigurationError):
            hybrid.failure_probability(np.array([too_late]))

    def test_time_before_table_clamps_to_zero_failure(self, blocks, hybrid):
        alpha_min = min(b.alpha for b in blocks)
        very_early = alpha_min * np.exp(-60.0)
        f = hybrid.failure_probability(np.array([very_early]))
        np.testing.assert_allclose(f, 0.0)

    def test_validation(self, blocks):
        with pytest.raises(ConfigurationError):
            HybridAnalyzer(blocks, n_alpha=1)
        with pytest.raises(ConfigurationError):
            HybridAnalyzer(blocks, log_t_ratio_range=(-1.0, -5.0))
        with pytest.raises(ConfigurationError):
            HybridAnalyzer(blocks, b_range=(0.0, 1.0))
        with pytest.raises(ConfigurationError):
            HybridAnalyzer([])
