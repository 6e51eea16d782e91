"""Batched survival-integral kernels for the ensemble analyzers.

The eq. (28) ensemble reliability is a sum of per-block double integrals
of the conditional survival ``exp(-A_j g(u, v))``.  The kernels here
evaluate every block in one broadcast pass over a ``(block, time,
node)`` tensor instead of a per-block Python loop:

- :func:`batched_rule_expectations` — all blocks x times against
  per-block quadrature node/weight tables (st_fast, the hybrid table
  fill and the scenario dose path),
- :func:`batched_sample_expectations` — all blocks x times against a
  shared Monte-Carlo sample cloud (the st_mc ``samples`` estimator).

Both reproduce the per-block loops they replaced to floating-point
round-off (the operations are the same multiplies/exponentials,
evaluated in one fused pass); ``tests/core/test_kernels_equivalence``
compares them against those loops, kept as oracles in
``tests/oracles.py``.

Blocks may carry different node counts (a degenerate BLOD variance
collapses to a single point-mass node); tables are padded to the widest
block with zero-weight nodes, which drop out of the weighted sums
exactly.
"""

from __future__ import annotations

import numpy as np

from repro.core.closed_form import _EXP_MAX, _EXP_MIN
from repro.errors import ConfigurationError
from repro.obs import metrics

__all__ = [
    "batched_rule_expectations",
    "batched_sample_expectations",
    "pad_rule_tables",
    "sweep_rule_expectations",
]

#: Soft cap on the scratch-tensor size of one fused evaluation; larger
#: workloads are processed in time-axis chunks of at most this many
#: elements.  Deliberately sized to a few MB of scratch — keeping the
#: working set inside the CPU caches measures ~4x faster than one huge
#: fused tensor, besides bounding peak memory.
_MAX_CHUNK_ELEMENTS = 250_000

#: Largest per-factor exponent magnitude for which the separable
#: evaluation ``exp(s u) * exp(0.5 s^2 v)`` is used.  Within this bound
#: neither factor saturates (|exponent| < 709), so the product equals the
#: reference ``exp(s u + 0.5 s^2 v)`` to round-off while computing
#: O(P + Q) transcendentals per time step instead of O(P * Q).  Beyond it
#: (absurd times, ~e^300 alphas away) the log-sum path preserves the
#: reference clipping semantics exactly.
_FACTOR_SAFE_EXP = 700.0


def pad_rule_tables(
    points: list[np.ndarray], weights: list[np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """Stack per-block 1-D node/weight arrays into padded 2-D tables.

    Shorter rows are padded by repeating the last node with weight zero:
    padded nodes contribute ``weight * survival = 0`` to every weighted
    sum, so the padded evaluation is exactly the unpadded one.
    """
    if len(points) != len(weights) or not points:
        raise ConfigurationError("need matching, non-empty point/weight lists")
    width = max(p.size for p in points)
    n = len(points)
    out_points = np.empty((n, width), dtype=np.float64)
    out_weights = np.zeros((n, width), dtype=np.float64)
    for j, (p, w) in enumerate(zip(points, weights, strict=True)):
        out_points[j, : p.size] = p
        out_points[j, p.size :] = p[-1]
        out_weights[j, : w.size] = w
    return out_points, out_weights


def _expectation_chunk(
    scaled: np.ndarray,
    finite: np.ndarray,
    log_areas: np.ndarray,
    u_points: np.ndarray,
    u_weights: np.ndarray,
    v_points: np.ndarray,
    v_weights: np.ndarray,
) -> np.ndarray:
    """One fused ``(J, T, P, Q)`` tensor-rule evaluation -> ``(J, T)``."""
    scaled_safe = np.where(finite, scaled, 0.0)
    max_scale = float(np.max(np.abs(scaled_safe), initial=0.0))
    max_u = float(np.max(np.abs(u_points), initial=0.0))
    max_v = float(np.max(np.abs(v_points), initial=0.0))
    if (
        max_scale * max_u <= _FACTOR_SAFE_EXP
        and 0.5 * max_scale**2 * max_v <= _FACTOR_SAFE_EXP
    ):
        # Separable evaluation: exp(log_a + s u + 0.5 s^2 v) factors into
        # an outer product over the (u, v) nodes, cutting the dominant
        # exp() count from 2 J T P Q to J T (P + Q) + J T P Q.  Product
        # over/underflow saturates survival at exactly 0/1, matching the
        # reference clip.
        with np.errstate(over="ignore"):
            area = np.exp(np.clip(log_areas, _EXP_MIN, _EXP_MAX))
            e_u = np.exp(scaled_safe[:, :, None] * u_points[:, None, :])
            e_v = np.exp(
                0.5 * scaled_safe[:, :, None] ** 2 * v_points[:, None, :]
            )
            survival = np.exp(
                -(
                    area[:, None, None, None]
                    * e_u[:, :, :, None]
                    * e_v[:, :, None, :]
                )
            )
    else:
        log_g = (
            scaled_safe[:, :, None, None] * u_points[:, None, :, None]
            + 0.5
            * scaled_safe[:, :, None, None] ** 2
            * v_points[:, None, None, :]
        )
        exponent = np.clip(
            log_areas[:, None, None, None] + log_g, _EXP_MIN, _EXP_MAX
        )
        with np.errstate(over="ignore"):
            survival = np.exp(-np.exp(exponent))
    expectation = np.einsum("jtpq,jp,jq->jt", survival, u_weights, v_weights)
    # t = 0 (log ratio -inf) survives with probability exactly 1.
    return np.where(finite, expectation, 1.0)


def batched_rule_expectations(
    log_t_ratios: np.ndarray,
    log_areas: np.ndarray,
    u_points: np.ndarray,
    u_weights: np.ndarray,
    v_points: np.ndarray,
    v_weights: np.ndarray,
) -> np.ndarray:
    """``E[exp(-A_j g(u_j, v_j))]`` for all blocks and times at once.

    Parameters
    ----------
    log_t_ratios:
        ``(n_blocks, n_times)`` per-block ``b_j * ln(t / alpha_j)``
        already scaled by the Weibull slope (entries of ``-inf`` mark
        ``t = 0`` and map to survival 1).
    log_areas:
        ``(n_blocks,)`` per-block ``ln(A_j)``.
    u_points, u_weights, v_points, v_weights:
        ``(n_blocks, n_nodes)`` padded quadrature tables (see
        :func:`pad_rule_tables`).

    Returns the ``(n_blocks, n_times)`` expectation matrix.
    """
    n_blocks, n_times = log_t_ratios.shape
    finite = np.isfinite(log_t_ratios)
    per_time = max(n_blocks * u_points.shape[1] * v_points.shape[1], 1)
    chunk = max(_MAX_CHUNK_ELEMENTS // per_time, 1)
    metrics.inc(
        "kernels.rule_nodes",
        n_blocks * n_times * u_points.shape[1] * v_points.shape[1],
    )
    if n_times <= chunk:
        return _expectation_chunk(
            log_t_ratios, finite, log_areas,
            u_points, u_weights, v_points, v_weights,
        )
    out = np.empty((n_blocks, n_times), dtype=np.float64)
    for start in range(0, n_times, chunk):
        stop = min(start + chunk, n_times)
        out[:, start:stop] = _expectation_chunk(
            log_t_ratios[:, start:stop],
            finite[:, start:stop],
            log_areas,
            u_points, u_weights, v_points, v_weights,
        )
    return out


def batched_sample_expectations(
    log_t_ratios: np.ndarray,
    log_areas: np.ndarray,
    u_samples: np.ndarray,
    v_samples: np.ndarray,
) -> np.ndarray:
    """Sample-average block expectations for all blocks and times at once.

    ``u_samples``/``v_samples`` are ``(n_blocks, n_samples)`` clouds of
    the BLOD moments evaluated on one shared factor draw (the st_mc
    estimator); the result is the ``(n_blocks, n_times)`` mean survival.
    """
    n_blocks, n_times = log_t_ratios.shape
    n_samples = u_samples.shape[1]
    finite = np.isfinite(log_t_ratios)
    per_time = max(n_blocks * n_samples, 1)
    chunk = max(_MAX_CHUNK_ELEMENTS // per_time, 1)
    metrics.inc("kernels.sample_evals", n_blocks * n_times * n_samples)
    out = np.empty((n_blocks, n_times), dtype=np.float64)
    for start in range(0, n_times, chunk):
        stop = min(start + chunk, n_times)
        scaled = np.where(
            finite[:, start:stop], log_t_ratios[:, start:stop], 0.0
        )
        log_g = (
            scaled[:, :, None] * u_samples[:, None, :]
            + 0.5 * scaled[:, :, None] ** 2 * v_samples[:, None, :]
        )
        exponent = np.clip(
            log_areas[:, None, None] + log_g, _EXP_MIN, _EXP_MAX
        )
        with np.errstate(over="ignore"):
            survival = np.exp(-np.exp(exponent))
        out[:, start:stop] = np.where(
            finite[:, start:stop], survival.mean(axis=2), 1.0
        )
    return out


def sweep_rule_expectations(
    ratio_profiles: list[np.ndarray],
    log_areas: np.ndarray,
    u_points: np.ndarray,
    u_weights: np.ndarray,
    v_points: np.ndarray,
    v_weights: np.ndarray,
) -> list[np.ndarray] | None:
    """Evaluate many scaled-ratio profiles through **one** fused call.

    ``ratio_profiles`` is a list of ``(n_blocks, n_times_k)`` matrices —
    typically one per temperature of a ``repro batch`` sweep, sharing the
    per-block quadrature tables (BLODs are temperature-independent) while
    differing in the Weibull ``(alpha_j, b_j)`` scaling baked into the
    ratios.  The profiles are concatenated along the time axis and sent
    through :func:`batched_rule_expectations` as a single kernel
    dispatch.

    Returns the per-profile ``(n_blocks, n_times_k)`` expectation
    matrices, or ``None`` when fusing cannot be proven **bit-identical**
    to evaluating each profile separately, in which case the caller must
    fall back to per-profile dispatch.  Identity holds exactly when

    - the concatenated time axis fits one evaluation chunk (then both
      the fused and every per-profile call are single-chunk), and
    - every profile would take the separable fast branch on its own
      (the fused chunk's maximum is one of the per-profile maxima, so
      the fused call takes the same branch; all remaining operations
      are elementwise per time column or reduce over the node axes
      only).
    """
    if not ratio_profiles:
        return []
    profiles = [np.asarray(p, dtype=np.float64) for p in ratio_profiles]
    n_blocks = profiles[0].shape[0]
    if any(p.ndim != 2 or p.shape[0] != n_blocks for p in profiles):
        raise ConfigurationError(
            "every ratio profile needs shape (n_blocks, n_times)"
        )
    total_times = sum(p.shape[1] for p in profiles)
    per_time = max(n_blocks * u_points.shape[1] * v_points.shape[1], 1)
    chunk = max(_MAX_CHUNK_ELEMENTS // per_time, 1)
    if total_times > chunk:
        return None
    max_u = float(np.max(np.abs(u_points), initial=0.0))
    max_v = float(np.max(np.abs(v_points), initial=0.0))
    for p in profiles:
        scaled_safe = np.where(np.isfinite(p), p, 0.0)
        max_scale = float(np.max(np.abs(scaled_safe), initial=0.0))
        if (
            max_scale * max_u > _FACTOR_SAFE_EXP
            or 0.5 * max_scale**2 * max_v > _FACTOR_SAFE_EXP
        ):
            return None
    fused = batched_rule_expectations(
        np.concatenate(profiles, axis=1),
        log_areas,
        u_points,
        u_weights,
        v_points,
        v_weights,
    )
    metrics.inc("kernels.sweep_fused_profiles", len(profiles))
    out: list[np.ndarray] = []
    start = 0
    for p in profiles:
        stop = start + p.shape[1]
        out.append(fused[:, start:stop])
        start = stop
    return out
