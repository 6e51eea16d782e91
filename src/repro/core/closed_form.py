"""Closed-form conditional reliability expressions (eq. (9)-(18)).

Everything here is conditional on known BLOD moments ``(u, v)`` for each
block; the ensemble analyzers integrate these expressions against the BLOD
moment distributions.

Numerical care: the block exponent ``A_j * g(u_j, v_j)`` spans hundreds of
decades over a lifetime sweep, so it is assembled in log space and clipped
to the double-precision exponent range before the final ``exp``.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError

#: Exponent clip bounds keeping ``exp`` inside double range.
_EXP_MIN = -745.0
_EXP_MAX = 709.0


def log_g(
    u: np.ndarray | float,
    v: np.ndarray | float,
    log_t_ratio: np.ndarray | float,
    b: float,
) -> np.ndarray:
    """``ln g(u, v)`` of eq. (17).

    ``g(u, v) = exp(ln(t/alpha) b u + (ln(t/alpha))^2 b^2 v / 2)`` is the
    exact Gaussian integral of the per-device Weibull exponent over the
    BLOD; its log is linear in ``u`` and ``v``.

    Parameters
    ----------
    u, v:
        BLOD sample mean (nm) and variance (nm^2); broadcastable arrays.
    log_t_ratio:
        ``ln(t / alpha)`` for the block (negative within useful lifetimes).
    b:
        Block Weibull slope coefficient (1/nm).
    """
    if b <= 0.0:
        raise ConfigurationError(f"b must be positive, got {b}")
    scaled = b * np.asarray(log_t_ratio, dtype=float)
    return scaled * np.asarray(u, dtype=float) + 0.5 * scaled**2 * np.asarray(
        v, dtype=float
    )


def block_survival(
    u: np.ndarray | float,
    v: np.ndarray | float,
    log_t_ratio: np.ndarray | float,
    b: float,
    area: float,
) -> np.ndarray:
    """``exp(-A_j g(u, v))`` — conditional survival of one block.

    This is the (approximate) probability that no device of a block with
    BLOD moments ``(u, v)`` has broken down by the time encoded in
    ``log_t_ratio``.
    """
    if area <= 0.0:
        raise ConfigurationError(f"area must be positive, got {area}")
    exponent = np.log(area) + log_g(u, v, log_t_ratio, b)
    return np.exp(-np.exp(np.clip(exponent, _EXP_MIN, _EXP_MAX)))


def block_failure(
    u: np.ndarray | float,
    v: np.ndarray | float,
    log_t_ratio: np.ndarray | float,
    b: float,
    area: float,
) -> np.ndarray:
    """``1 - exp(-A_j g(u, v))`` computed stably via ``expm1``."""
    if area <= 0.0:
        raise ConfigurationError(f"area must be positive, got {area}")
    exponent = np.log(area) + log_g(u, v, log_t_ratio, b)
    return -np.expm1(-np.exp(np.clip(exponent, _EXP_MIN, _EXP_MAX)))


def device_conditional_reliability(
    t: np.ndarray | float,
    thickness: np.ndarray | float,
    alpha: float,
    b: float,
    area: float = 1.0,
) -> np.ndarray:
    """Eq. (9): ``R_i(t | x_i) = exp(-a (t/alpha)^(b x_i))``."""
    if alpha <= 0.0 or b <= 0.0 or area <= 0.0:
        raise ConfigurationError("alpha, b and area must be positive")
    t = np.asarray(t, dtype=float)
    thickness = np.asarray(thickness, dtype=float)
    with np.errstate(divide="ignore"):
        log_ratio = np.where(t > 0.0, np.log(t / alpha), -np.inf)
    exponent = np.log(area) + b * thickness * log_ratio
    return np.exp(-np.exp(np.clip(exponent, _EXP_MIN, _EXP_MAX)))


def conditional_chip_reliability_exact(
    u: np.ndarray,
    v: np.ndarray,
    log_t_ratios: np.ndarray,
    bs: np.ndarray,
    areas: np.ndarray,
) -> float:
    """Eq. (15): exact product form ``prod_j exp(-A_j g(u_j, v_j))``.

    Parameters are per-block arrays for a single chip and a single time
    point (``log_t_ratios[j] = ln(t / alpha_j)``).
    """
    u, v, log_t_ratios, bs, areas = map(
        lambda a: np.asarray(a, dtype=float), (u, v, log_t_ratios, bs, areas)
    )
    _check_block_arrays(u, v, log_t_ratios, bs, areas)
    total = 0.0
    for j in range(u.size):
        exponent = np.log(areas[j]) + log_g(u[j], v[j], log_t_ratios[j], float(bs[j]))
        total += float(np.exp(np.clip(exponent, _EXP_MIN, _EXP_MAX)))
    return float(np.exp(-min(total, -_EXP_MIN)))


def conditional_chip_reliability_taylor(
    u: np.ndarray,
    v: np.ndarray,
    log_t_ratios: np.ndarray,
    bs: np.ndarray,
    areas: np.ndarray,
    clip: bool = True,
) -> float:
    """Eq. (18): first-order Taylor form ``1 - sum_j (1 - exp(-A_j g))``.

    The paper's form; accurate while every block survival is close to 1.
    It can undershoot 0 far beyond the useful lifetime — ``clip`` keeps
    the result a probability.
    """
    u, v, log_t_ratios, bs, areas = map(
        lambda a: np.asarray(a, dtype=float), (u, v, log_t_ratios, bs, areas)
    )
    _check_block_arrays(u, v, log_t_ratios, bs, areas)
    total_failure = 0.0
    for j in range(u.size):
        total_failure += float(
            block_failure(u[j], v[j], log_t_ratios[j], float(bs[j]), float(areas[j]))
        )
    value = 1.0 - total_failure
    return float(max(value, 0.0)) if clip else float(value)


def _check_block_arrays(*arrays: np.ndarray) -> None:
    shape = arrays[0].shape
    if any(a.shape != shape for a in arrays):
        raise ConfigurationError("per-block arrays must share one shape")
    if arrays[0].ndim != 1:
        raise ConfigurationError("per-block arrays must be 1-D")


def check_times(times: np.ndarray) -> None:
    """Reject evaluation times that are negative, infinite or NaN.

    One pass over the array: NaN fails both comparisons.  Without it an
    infinite time would take the ``t = 0`` branch of the log-ratio
    kernels and read survival 1.
    """
    if not ((times >= 0.0) & (times < np.inf)).all():
        raise ConfigurationError("times must be finite and non-negative")


def safe_log_t_ratio(t: np.ndarray | float, alpha: float) -> np.ndarray:
    """``ln(t / alpha)`` with ``t = 0`` mapped to ``-inf`` safely."""
    if alpha <= 0.0:
        raise ConfigurationError(f"alpha must be positive, got {alpha}")
    t = np.asarray(t, dtype=float)
    check_times(t)
    with np.errstate(divide="ignore"):
        return np.where(t > 0.0, np.log(t / alpha), -np.inf)
