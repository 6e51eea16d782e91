"""Edge-case tests for the eq. (28) survival-grid evaluation.

``_survival_on_grid`` is the integrand of the st_mc histogram estimator
and of the st_fast oracle in ``tests/oracles.py`` (the contract the
batched kernels must reproduce):
``t = 0`` maps to survival exactly 1, and the double-exponential is
clipped to ``[_EXP_MIN, _EXP_MAX]`` so extreme Weibull scalings saturate
at exactly 0/1 instead of overflowing.
"""

import numpy as np

from repro.core.closed_form import _EXP_MAX, _EXP_MIN
from repro.core.ensemble import _survival_on_grid


def _grid(log_t_ratio, b=2.0, area=1e-4):
    u = np.array([0.5, 1.0, 2.0])
    v = np.array([0.01, 0.05])
    return _survival_on_grid(np.asarray(log_t_ratio, float), b, area, u, v)


class TestTimeZero:
    def test_neg_inf_log_ratio_survives_exactly(self):
        survival = _grid([-np.inf, 0.0])
        np.testing.assert_array_equal(survival[0], 1.0)

    def test_no_nan_from_inf_times_zero_node(self):
        # -inf * u would be nan for u = 0; the masked path avoids it.
        survival = _survival_on_grid(
            np.array([-np.inf]), 2.0, 1e-4,
            np.array([0.0, 1.0]), np.array([0.0, 0.1]),
        )
        assert np.all(np.isfinite(survival))
        np.testing.assert_array_equal(survival, 1.0)


class TestClipping:
    def test_exp_max_saturates_to_zero_failure(self):
        # b * log ratio huge: exponent would overflow exp() without the
        # _EXP_MAX clip; clipped, survival is exactly 0.
        with np.errstate(over="raise"):
            survival = _grid([2.0 * _EXP_MAX])
        np.testing.assert_array_equal(survival, 0.0)

    def test_exp_min_saturates_to_one(self):
        # Far below _EXP_MIN (v = 0 so the quadratic term cannot flip the
        # sign) the inner exponential underflows and exp(-tiny) rounds to
        # exactly 1.
        survival = _survival_on_grid(
            np.array([2.0 * _EXP_MIN]), 1.0, 1.0,
            np.array([0.5, 1.0]), np.array([0.0]),
        )
        np.testing.assert_array_equal(survival, 1.0)

    def test_clip_boundary_is_finite(self):
        for ratio in (_EXP_MIN, _EXP_MAX, _EXP_MIN - 1.0, _EXP_MAX + 1.0):
            survival = _grid([ratio], b=1.0, area=1.0)
            assert np.all(np.isfinite(survival))
            assert np.all((survival >= 0.0) & (survival <= 1.0))


class TestMonotonicity:
    def test_survival_non_increasing_in_time(self):
        # For positive (u, v) nodes and t >= alpha (non-negative scaled
        # log ratio) the conditional survival decreases with time.
        log_t_ratio = np.linspace(0.0, 6.0, 50)
        survival = _grid(log_t_ratio)
        assert np.all(np.diff(survival, axis=0) <= 0.0)

    def test_survival_stays_in_unit_interval(self):
        log_t_ratio = np.linspace(-30.0, 30.0, 121)
        survival = _grid(log_t_ratio)
        assert np.all((survival >= 0.0) & (survival <= 1.0))
