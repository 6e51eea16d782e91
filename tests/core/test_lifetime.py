"""Unit tests for the lifetime solvers (eq. (32))."""

import math
import warnings

import numpy as np
import pytest

from repro.core.guardband import GuardBandAnalyzer
from repro.core.lifetime import (
    failure_time_quantile,
    lifetime_at_ppm,
    lifetime_from_curve,
    ppm_to_reliability,
    solve_lifetime,
)
from repro.errors import ConfigurationError, NumericalError


class TestPpmConversion:
    def test_values(self):
        assert ppm_to_reliability(1.0) == pytest.approx(1.0 - 1e-6)
        assert ppm_to_reliability(10.0) == pytest.approx(1.0 - 1e-5)

    def test_rejects_out_of_range(self):
        with pytest.raises(ConfigurationError):
            ppm_to_reliability(0.0)
        with pytest.raises(ConfigurationError):
            ppm_to_reliability(1e6)


class TestSolveLifetime:
    @pytest.fixture()
    def guard(self):
        return GuardBandAnalyzer(
            total_area=1e5, alpha_worst=1e8, b_worst=1.4, x_min=2.112
        )

    def test_matches_closed_form(self, guard):
        target = ppm_to_reliability(10.0)
        solved = solve_lifetime(guard.reliability, target, t_guess=1.0)
        assert solved == pytest.approx(guard.lifetime(target), rel=1e-9)

    def test_guess_far_above_root(self, guard):
        target = ppm_to_reliability(1.0)
        solved = solve_lifetime(guard.reliability, target, t_guess=1e12)
        assert solved == pytest.approx(guard.lifetime(target), rel=1e-9)

    def test_guess_far_below_root(self, guard):
        target = ppm_to_reliability(1.0)
        solved = solve_lifetime(guard.reliability, target, t_guess=1e-6)
        assert solved == pytest.approx(guard.lifetime(target), rel=1e-9)

    def test_lifetime_at_ppm_wrapper(self, guard):
        assert lifetime_at_ppm(guard.reliability, 10.0) == pytest.approx(
            guard.lifetime(ppm_to_reliability(10.0)), rel=1e-9
        )

    def test_unreachable_target_raises(self):
        with pytest.raises(NumericalError):
            solve_lifetime(lambda t: 1.0, 0.5, t_guess=1.0, max_expansions=10)

    def test_rejects_bad_target(self, guard):
        with pytest.raises(ConfigurationError):
            solve_lifetime(guard.reliability, 1.5)

    def test_rejects_bad_guess(self, guard):
        with pytest.raises(ConfigurationError):
            solve_lifetime(guard.reliability, 0.5, t_guess=0.0)


class TestLogFailureObjective:
    """Endpoints with no failure probability left, exact hits and the memo."""

    ETA, BETA, STEP = 1.0e7, 2.0, 2.0e4

    def weibull(self, t):
        return math.exp(-((t / self.ETA) ** self.BETA))

    def root(self, target):
        return self.ETA * (-math.log(target)) ** (1.0 / self.BETA)

    def step(self, below):
        """Reliability ``below`` before :attr:`STEP`, Weibull after."""
        return lambda t: below if t < self.STEP else self.weibull(t)

    @pytest.mark.parametrize("below", [1.0, 1.0 + 1e-3])
    def test_lower_bracket_end_without_failures(self, below):
        target = ppm_to_reliability(10.0)
        seen = []

        def reliability(t):
            seen.append(t)
            return self.step(below)(t)

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            solved = solve_lifetime(reliability, target, t_guess=1.0e4)
        # The bracket is [1e4, 4e4]: its lower end, below the root at
        # 3.2e4, still has F = 1 - R <= 0.
        assert seen[:2] == pytest.approx([1.0e4, 4.0e4], rel=1e-14)
        assert solved == pytest.approx(self.root(target), rel=1e-10)

    def test_climb_through_times_without_failures(self):
        # Every rung from 1e-3 to 1.7e4 reads R = 1; the bracket is
        # [1.7e4, 6.7e4].
        target = ppm_to_reliability(10.0)
        solved = solve_lifetime(self.step(1.0), target, t_guess=1.0e-3)
        assert solved == pytest.approx(self.root(target), rel=1e-10)

    def test_exact_hit_at_the_guess_returns_after_one_call(self):
        target = 1.0 - 1e-5
        calls = []

        def reliability(t):
            calls.append(t)
            return 1.0 - 1e-5 * (t / 1.0e5) ** 2

        solved = solve_lifetime(reliability, target, t_guess=1.0e5)
        assert solved == pytest.approx(1.0e5, rel=1e-15)
        assert len(calls) == 1

    @pytest.mark.parametrize("t_guess", [1.0e2, 1.0e4, 1.0e7])
    def test_no_time_is_evaluated_twice(self, t_guess):
        target = ppm_to_reliability(10.0)
        calls = []

        def reliability(t):
            calls.append(t)
            return self.weibull(t)

        solved = solve_lifetime(reliability, target, t_guess=t_guess)
        assert len(calls) == len(set(calls))
        assert solved == pytest.approx(self.root(target), rel=1e-10)

    def test_weibull_needs_few_evaluations(self):
        calls = []

        def reliability(t):
            calls.append(t)
            return self.weibull(t)

        solve_lifetime(reliability, ppm_to_reliability(10.0), t_guess=1.0e5)
        # Two bracket rungs, then interpolation steps on a nearly straight
        # log F against log t (the R - R_target objective took 11).
        assert len(calls) <= 5


class TestLifetimeFromCurve:
    @pytest.fixture()
    def curve(self):
        guard = GuardBandAnalyzer(
            total_area=1e5, alpha_worst=1e8, b_worst=1.4, x_min=2.112
        )
        times = np.logspace(2.0, 6.0, 60)
        return guard, times, np.asarray(guard.reliability(times))

    def test_interpolates_accurately(self, curve):
        guard, times, rel = curve
        target = ppm_to_reliability(10.0)
        solved = lifetime_from_curve(times, rel, target)
        assert solved == pytest.approx(guard.lifetime(target), rel=0.01)

    def test_target_outside_curve_raises(self, curve):
        _guard, times, rel = curve
        with pytest.raises(NumericalError):
            lifetime_from_curve(times, rel, 1.0 - 1e-15)

    def test_monotonicity_enforced_against_noise(self, curve, rng):
        guard, times, rel = curve
        noisy = 1.0 - (1.0 - rel) * rng.uniform(0.9, 1.1, size=rel.size)
        target = ppm_to_reliability(10.0)
        solved = lifetime_from_curve(times, noisy, target)
        assert solved == pytest.approx(guard.lifetime(target), rel=0.1)

    def test_rejects_unsorted_times(self, curve):
        _guard, times, rel = curve
        with pytest.raises(ConfigurationError):
            lifetime_from_curve(times[::-1], rel, 0.99)

    def test_rejects_mismatched_shapes(self, curve):
        _guard, times, rel = curve
        with pytest.raises(ConfigurationError):
            lifetime_from_curve(times[:-1], rel, 0.99)


class TestFailureTimeQuantile:
    def test_matches_numpy_quantile(self, rng):
        samples = rng.weibull(2.0, size=2_000_000) * 1e5
        ppm = 10.0
        value = failure_time_quantile(samples, ppm)
        assert value == pytest.approx(np.quantile(samples, 1e-5), rel=1e-9)

    def test_unresolvable_quantile_raises(self, rng):
        samples = rng.weibull(2.0, size=1000)
        with pytest.raises(NumericalError):
            failure_time_quantile(samples, 1.0)

    def test_rejects_scalar(self):
        with pytest.raises(ConfigurationError):
            failure_time_quantile(np.array(5.0), 1.0)
