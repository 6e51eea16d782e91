"""Cumulative-exposure effective-age math, in one place.

The library's one damage model for time-varying stress: oxide defects
(and the other mechanisms' wearout) accumulate at a per-condition rate,
so time spent at condition ``p`` advances a block's effective age at the
speed ratio ``alpha_ref / alpha_p``.  For a block whose conditions share
the Weibull slope coefficient the mixture collapses *exactly* to a single
equivalent condition,

    1 / alpha_eff_j = sum_p  w_p / alpha_{j,p}

(the weight-averaged harmonic mean).  The slope coefficient ``b`` varies
only weakly with temperature (|db/b| ~ 1-2 % across realistic profiles),
so the effective slope is the weighted mean — the one approximation of
the collapse, quantified in the tests and documented in
``docs/scenarios.md``.

The scenario engine's ``residency`` composition (a mission profile:
weights = time fractions) evaluates the design's st_fast at these
effective vectors; its ordered schedules (burn-in then field, weights =
normalised durations) accumulate the same per-condition rates as a
piecewise-linear dose.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError

__all__ = ["effective_block_params", "phase_dose_shares"]


def effective_block_params(
    fractions: np.ndarray, alphas: np.ndarray, bs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Cumulative-exposure effective ``(alpha, b)`` per block.

    Parameters
    ----------
    fractions:
        ``(n_phases,)`` time fractions (or any positive weights summing
        to one).
    alphas, bs:
        ``(n_phases, n_blocks)`` per-phase per-block Weibull parameters.

    Returns
    -------
    ``(alpha_eff, b_eff)`` arrays of shape ``(n_blocks,)``:
    harmonic-mean characteristic life and mean slope coefficient.
    """
    fractions = np.asarray(fractions, dtype=float)
    alphas = np.asarray(alphas, dtype=float)
    bs = np.asarray(bs, dtype=float)
    if alphas.ndim != 2 or alphas.shape != bs.shape:
        raise ConfigurationError(
            "alphas and bs must share shape (n_phases, n_blocks)"
        )
    if fractions.shape != (alphas.shape[0],):
        raise ConfigurationError("one fraction per phase is required")
    if np.any(fractions <= 0.0):
        raise ConfigurationError("phase fractions must be positive")
    if np.any(alphas <= 0.0) or np.any(bs <= 0.0):
        raise ConfigurationError("alphas and bs must be positive")
    alpha_eff = 1.0 / (fractions @ (1.0 / alphas))
    b_eff = fractions @ bs
    return alpha_eff, b_eff


def phase_dose_shares(
    fractions: np.ndarray, alphas: np.ndarray
) -> np.ndarray:
    """``(n_phases, n_blocks)`` share of each block's damage per phase.

    Under cumulative exposure the dose rate of phase ``p`` in block ``j``
    is ``w_p / alpha_{j,p}``; shares are normalised per block.  A
    reliability manager uses this to see *which phase is aging which
    block*.
    """
    fractions = np.asarray(fractions, dtype=float)
    alphas = np.asarray(alphas, dtype=float)
    rates = fractions[:, None] / alphas
    return rates / rates.sum(axis=0, keepdims=True)
