"""Lifetime solvers for ppm-level reliability targets (eq. (32)).

The paper's quality metric is *n-faults-per-million parts*: the time at
which the first ``n`` of a million chips have failed, i.e.
``R(t_req) = 1 - n * 1e-6``. The statistical analyzers expose smooth
reliability functions, so the lifetime is found by bracketing in log time
and solving ``log F = log F_target`` (``F = 1 - R``) with Brent's method:
in ``(log t, log F)`` Weibull-like failure curves are nearly linear, so
its interpolation steps land close to the root.  Monte-Carlo references
provide sampled curves that are interpolated in the same coordinates.
"""

from __future__ import annotations

import math
from collections.abc import Callable

import numpy as np
from scipy import optimize

from repro.errors import ConfigurationError, NumericalError

#: Floor of ``1 - R`` in the lifetime objective (smallest normal float).
_TINY = float(np.finfo(float).tiny)


def ppm_to_reliability(ppm: float) -> float:
    """Reliability target for an ``n``-faults-per-million criterion."""
    if not 0.0 < ppm < 1e6:
        raise ConfigurationError(f"ppm must be in (0, 1e6), got {ppm}")
    return 1.0 - ppm * 1e-6


def solve_lifetime(
    reliability_fn: Callable[[float], float],
    reliability_target: float,
    t_guess: float = 1.0e5,
    max_expansions: int = 80,
) -> float:
    """Solve ``R(t) = R_target`` for a monotone reliability function.

    Brackets the root geometrically in log time starting from ``t_guess``
    (x4 steps) then runs Brent's method on ``log F`` against ``log t``,
    ``F = 1 - R``, where Weibull-like failure curves are nearly linear.
    The objective ``log(1 - R_target) - log(1 - R)`` has the sign of
    ``R - R_target`` (``1 - R`` is exact for ``R >= 0.5``, Sterbenz), so
    the bracket ladder's sign tests are those of ``R - R_target``; only a
    few ulps of ``F`` from the root can it read zero.  ``1 - R`` is
    floored at the smallest normal float so an endpoint with ``R >= 1``
    stays finite.  Each time is evaluated once: Brent's first
    two calls, the bracket ends, come from a memo.  ``reliability_fn``
    must take a scalar time (hours) and return a scalar reliability.
    """
    if not 0.0 < reliability_target < 1.0:
        raise ConfigurationError(
            f"reliability target must be in (0, 1), got {reliability_target}"
        )
    if t_guess <= 0.0:
        raise ConfigurationError(f"t_guess must be positive, got {t_guess}")

    log_target = math.log(1.0 - reliability_target)
    seen: dict[float, float] = {}

    def objective(log_t: float) -> float:
        value = seen.get(log_t)
        if value is None:
            reliability = float(reliability_fn(float(np.exp(log_t))))
            value = log_target - math.log(max(1.0 - reliability, _TINY))
            seen[log_t] = value
        return value

    log_lo = log_hi = float(np.log(t_guess))
    value = objective(log_lo)
    if value == 0.0:  # reprolint: disable=RPL005 (exact root hit, no bracketing needed)
        return float(np.exp(log_lo))
    step = np.log(4.0)
    if value > 0.0:
        # Reliability still above target: move later in time.
        for _ in range(max_expansions):
            log_hi += step
            if objective(log_hi) <= 0.0:
                break
            log_lo = log_hi
        else:
            raise NumericalError(
                "could not bracket the lifetime (reliability never fell "
                "below the target); check the model calibration"
            )
    else:
        # Already failed at the guess: move earlier in time.
        for _ in range(max_expansions):
            log_lo -= step
            if objective(log_lo) >= 0.0:
                break
            log_hi = log_lo
        else:
            raise NumericalError(
                "could not bracket the lifetime (reliability below the "
                "target at all probed times); check the model calibration"
            )
    root = optimize.brentq(objective, log_lo, log_hi, xtol=1e-12, rtol=1e-12)
    return float(np.exp(root))


def lifetime_from_curve(
    times: np.ndarray,
    reliabilities: np.ndarray,
    reliability_target: float,
) -> float:
    """Interpolate a sampled reliability curve at a target level.

    Interpolation is linear in ``(log t, log(1 - R))`` — the natural
    coordinates for Weibull-like failure curves. The curve must bracket
    the target.
    """
    times = np.asarray(times, dtype=float)
    reliabilities = np.asarray(reliabilities, dtype=float)
    if times.shape != reliabilities.shape or times.ndim != 1:
        raise ConfigurationError("need matching 1-D time/reliability arrays")
    if np.any(times <= 0.0):
        raise ConfigurationError("curve times must be positive")
    if np.any(np.diff(times) <= 0.0):
        raise ConfigurationError("curve times must be strictly increasing")
    if not 0.0 < reliability_target < 1.0:
        raise ConfigurationError(
            f"reliability target must be in (0, 1), got {reliability_target}"
        )
    failure = np.clip(1.0 - reliabilities, 1e-300, 1.0)
    target_failure = 1.0 - reliability_target
    if target_failure < failure[0] or target_failure > failure[-1]:
        raise NumericalError(
            f"target failure probability {target_failure:.3e} outside the "
            f"sampled curve range [{failure[0]:.3e}, {failure[-1]:.3e}]"
        )
    # Enforce monotonicity against MC noise before interpolating.
    log_failure = np.maximum.accumulate(np.log(failure))
    return float(
        np.exp(np.interp(np.log(target_failure), log_failure, np.log(times)))
    )


def lifetime_at_ppm(
    reliability_fn: Callable[[float], float],
    ppm: float,
    t_guess: float = 1.0e5,
) -> float:
    """Convenience wrapper: lifetime at an n-per-million criterion."""
    return solve_lifetime(reliability_fn, ppm_to_reliability(ppm), t_guess)


def failure_time_quantile(failure_times: np.ndarray, ppm: float) -> float:
    """Empirical ppm lifetime from failure-time Monte-Carlo samples.

    Only meaningful when the sample is large enough to resolve the
    quantile (``len(samples) >> 1e6 / ppm``); raises otherwise.
    """
    failure_times = np.asarray(failure_times, dtype=float)
    if failure_times.ndim != 1 or failure_times.size < 2:
        raise ConfigurationError("need a 1-D sample of failure times")
    quantile = ppm * 1e-6
    if failure_times.size * quantile < 1.0:
        raise NumericalError(
            f"{failure_times.size} samples cannot resolve a "
            f"{ppm}-per-million quantile"
        )
    return float(np.quantile(failure_times, quantile))
