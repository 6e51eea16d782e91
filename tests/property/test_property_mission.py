"""Property-based tests for the cumulative-exposure collapse of a mission.

A mission is a residency scenario; these pin the effective ``(alpha, b)``
it is evaluated at.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scenario import effective_block_params

alphas = st.floats(min_value=1e2, max_value=1e12)
bs = st.floats(min_value=0.5, max_value=3.0)


@st.composite
def phase_systems(draw):
    n_phases = draw(st.integers(min_value=1, max_value=5))
    n_blocks = draw(st.integers(min_value=1, max_value=4))
    raw = [
        draw(st.floats(min_value=0.05, max_value=1.0))
        for _ in range(n_phases)
    ]
    fractions = np.array(raw) / np.sum(raw)
    alpha_matrix = np.array(
        [[draw(alphas) for _ in range(n_blocks)] for _ in range(n_phases)]
    )
    b_matrix = np.array(
        [[draw(bs) for _ in range(n_blocks)] for _ in range(n_phases)]
    )
    return fractions, alpha_matrix, b_matrix


class TestEffectiveParamsProperties:
    @given(phase_systems())
    @settings(max_examples=100)
    def test_effective_alpha_within_phase_range(self, system):
        fractions, alphas_m, bs_m = system
        alpha_eff, b_eff = effective_block_params(fractions, alphas_m, bs_m)
        for j in range(alphas_m.shape[1]):
            lo, hi = alphas_m[:, j].min(), alphas_m[:, j].max()
            assert lo * (1.0 - 1e-12) <= alpha_eff[j] <= hi * (1.0 + 1e-12)
            b_lo, b_hi = bs_m[:, j].min(), bs_m[:, j].max()
            assert b_lo * (1.0 - 1e-12) <= b_eff[j] <= b_hi * (1.0 + 1e-12)

    @given(phase_systems())
    @settings(max_examples=60)
    def test_harmonic_mean_below_arithmetic(self, system):
        fractions, alphas_m, bs_m = system
        alpha_eff, _ = effective_block_params(fractions, alphas_m, bs_m)
        arithmetic = fractions @ alphas_m
        assert np.all(alpha_eff <= arithmetic + 1e-6 * arithmetic)

    @given(phase_systems(), st.floats(min_value=1.1, max_value=10.0))
    @settings(max_examples=60)
    def test_scaling_equivariance(self, system, scale):
        """Scaling every phase alpha scales the effective alpha."""
        fractions, alphas_m, bs_m = system
        base, _ = effective_block_params(fractions, alphas_m, bs_m)
        scaled, _ = effective_block_params(fractions, scale * alphas_m, bs_m)
        np.testing.assert_allclose(scaled, scale * base, rtol=1e-9)

    @given(phase_systems())
    @settings(max_examples=60)
    def test_permutation_invariance(self, system):
        fractions, alphas_m, bs_m = system
        order = np.arange(len(fractions))[::-1]
        base = effective_block_params(fractions, alphas_m, bs_m)
        permuted = effective_block_params(
            fractions[order], alphas_m[order], bs_m[order]
        )
        np.testing.assert_allclose(base[0], permuted[0], rtol=1e-12)
        np.testing.assert_allclose(base[1], permuted[1], rtol=1e-12)

    @given(
        st.floats(min_value=0.05, max_value=0.95),
        alphas,
        st.floats(min_value=1.5, max_value=100.0),
        bs,
    )
    @settings(max_examples=60)
    def test_worse_phase_shortens_effective_alpha(
        self, fraction, alpha, degradation, b
    ):
        fractions = np.array([1.0 - fraction, fraction])
        bs_m = np.full((2, 1), b)
        mild = np.array([[alpha], [alpha]])
        harsh = np.array([[alpha], [alpha / degradation]])
        alpha_mild, _ = effective_block_params(fractions, mild, bs_m)
        alpha_harsh, _ = effective_block_params(fractions, harsh, bs_m)
        assert alpha_harsh[0] < alpha_mild[0] + 1e-9
