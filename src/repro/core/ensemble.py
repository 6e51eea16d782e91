"""Design-time ensemble reliability analyzers (Sec. IV-B/C/D).

Two statistical analyzers evaluate eq. (28) — the sum of ``N`` per-block
double integrals of the conditional block survival over the BLOD moment
distributions:

- :class:`StFastAnalyzer` (``st_fast``): analytical marginals — Gaussian
  ``u_j`` and the chi-square-matched ``v_j`` — combined under the
  independence approximation justified by the Lemma and Fig. 6/7, then
  integrated with the paper's ``l0 x l0`` midpoint rule (or Gauss-Hermite /
  quantile rules as higher-order alternatives).
- :class:`StMcAnalyzer` (``st_mc``): the joint distribution of
  ``(u_j, v_j)`` is constructed numerically from Monte-Carlo samples of the
  principal components (eq. (22)/(24)), retaining any u-v dependence, at a
  modest runtime overhead.

Both share the eq. (18) first-order combination across blocks, so only the
per-block expectation differs.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import partial

import numpy as np

from repro.core.blod import BlodModel
from repro.core.closed_form import (
    _EXP_MAX,
    _EXP_MIN,
    check_times,
    safe_log_t_ratio,
)
from repro.errors import ConfigurationError
from repro.exec.backends import ExecBackend, resolve_backend
from repro.exec.runner import run_sharded
from repro.exec.sharding import (
    DEFAULT_SHARD_SIZE,
    Shard,
    plan_shards,
    resolve_seed_sequence,
)
from repro.kernels.survival import (
    batched_rule_expectations,
    batched_sample_expectations,
    pad_rule_tables,
    sweep_rule_expectations,
)
from repro.obs import metrics
from repro.obs.trace import span
from repro.stats.integration import (
    Rule1D,
    gauss_hermite_rule,
    midpoint_rules,
    quantile_rule,
)


@dataclass(frozen=True)
class BlockReliability:
    """One block's BLOD plus its temperature-dependent Weibull parameters."""

    blod: BlodModel
    alpha: float
    b: float

    def __post_init__(self) -> None:
        for name, value in (("alpha", self.alpha), ("b", self.b)):
            if not (math.isfinite(value) and value > 0.0):
                raise ConfigurationError(
                    f"block {self.name!r}: {name} must be finite and "
                    f"positive, got {value}"
                )

    @property
    def name(self) -> str:
        """Block name."""
        return self.blod.name


def _survival_on_grid(
    log_t_ratio: np.ndarray,
    b: float,
    area: float,
    u_points: np.ndarray,
    v_points: np.ndarray,
) -> np.ndarray:
    """``exp(-A g(u, v))`` on a (time, u, v) tensor grid.

    ``log_t_ratio`` entries of ``-inf`` (t = 0) map to survival 1.
    """
    scaled = b * log_t_ratio[:, None, None]
    finite = np.isfinite(scaled)
    scaled_safe = np.where(finite, scaled, 0.0)
    log_g = (
        scaled_safe * u_points[None, :, None]
        + 0.5 * scaled_safe**2 * v_points[None, None, :]
    )
    exponent = np.clip(np.log(area) + log_g, _EXP_MIN, _EXP_MAX)
    survival = np.exp(-np.exp(exponent))
    return np.where(finite, survival, 1.0)


def midpoint_block_rules(
    blods: Sequence[BlodModel],
    l0: int,
    tail: float,
    include_residual_fluctuation: bool,
) -> list[tuple[Rule1D, Rule1D]]:
    """Every block's ``(u, v)`` midpoint rules (the paper's ``l0 x l0``).

    Built with one :func:`~repro.stats.integration.midpoint_rules` pass
    per dimension, so each distribution family costs one vectorized
    quantile and one density evaluation for all blocks together.
    """
    u_rules = midpoint_rules(
        [blod.u_dist() for blod in blods], n_points=l0, tail=tail
    )
    v_rules = midpoint_rules(
        [blod.v_chi2_match(include_residual_fluctuation) for blod in blods],
        n_points=l0,
        tail=tail,
    )
    return list(zip(u_rules, v_rules, strict=True))


def pad_block_rules(
    rules: Sequence[tuple[Rule1D, Rule1D]],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(u_points, u_weights, v_points, v_weights)`` (block, node) tables.

    The layout the fused kernels of :mod:`repro.kernels.survival` take;
    zero-weight padding keeps ragged blocks (a point-mass variance has
    one node) exact.
    """
    u_points, u_weights = pad_rule_tables(
        [u.points for u, _ in rules], [u.weights for u, _ in rules]
    )
    v_points, v_weights = pad_rule_tables(
        [v.points for _, v in rules], [v.weights for _, v in rules]
    )
    return u_points, u_weights, v_points, v_weights


class _EnsembleAnalyzerBase:
    """Shared eq. (18)/(28) combination logic."""

    blocks: list[BlockReliability]

    def _block_expectations(self, times: np.ndarray) -> np.ndarray:
        """``(n_blocks, n_times)`` ``E[exp(-A_j g(u_j, v_j))]``; per-analyzer."""
        raise NotImplementedError

    def _weibull_vectors(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-block ``(alphas, bs)`` arrays, built once per analyzer."""
        cached = self.__dict__.get("_weibull_ab")
        if cached is None:
            cached = (
                np.array([block.alpha for block in self.blocks]),
                np.array([block.b for block in self.blocks]),
            )
            self.__dict__["_weibull_ab"] = cached
        return cached

    def _scaled_log_t_ratios(self, times: np.ndarray) -> np.ndarray:
        """``(n_blocks, n_times)`` matrix of ``b_j * ln(t / alpha_j)``.

        ``t = 0`` maps to ``-inf`` (survival 1 downstream), matching
        :func:`repro.core.closed_form.safe_log_t_ratio` per block.
        """
        check_times(times)
        alphas, bs = self._weibull_vectors()
        with np.errstate(divide="ignore"):
            ratios = np.where(
                times[None, :] > 0.0,
                np.log(times[None, :] / alphas[:, None]),
                -np.inf,
            )
        return bs[:, None] * ratios

    def block_failure_probabilities(self, times: np.ndarray | float) -> np.ndarray:
        """``(n_blocks, n_times)`` ensemble block failure probabilities."""
        times = np.atleast_1d(np.asarray(times, dtype=float))
        return 1.0 - self._block_expectations(times)

    def reliability(
        self, times: np.ndarray | float, clip: bool = True
    ) -> np.ndarray:
        """Ensemble chip reliability ``R_c(t)`` (eq. (28)).

        ``clip=False`` returns the raw first-order value, which can
        undershoot 0 far beyond the useful lifetime.
        """
        times = np.asarray(times, dtype=float)
        scalar = times.ndim == 0
        failures = self.block_failure_probabilities(times)
        value = 1.0 - failures.sum(axis=0)
        if clip:
            value = np.clip(value, 0.0, 1.0)
        return float(value[0]) if scalar else value

    def failure_probability(self, times: np.ndarray | float) -> np.ndarray:
        """Ensemble chip failure probability ``1 - R_c(t)``."""
        times = np.asarray(times, dtype=float)
        scalar = times.ndim == 0
        value = 1.0 - np.atleast_1d(self.reliability(times))
        return float(value[0]) if scalar else value


class StFastAnalyzer(_EnsembleAnalyzerBase):
    """The paper's fast statistical analyzer (Sec. IV-D, ``st_fast``).

    Parameters
    ----------
    blocks:
        Per-block BLOD + Weibull parameters.
    l0:
        Sub-domains per integration dimension (the paper's ``l0 = 10``).
    tail:
        Probability mass left outside the integration bracket per side.
    rule:
        ``"midpoint"`` (paper), or ``"gauss"`` for Gauss-Hermite in ``u``
        with quantile-stratified points in ``v`` (ablation alternative).
    include_residual_fluctuation:
        Fold the chi-square residual-sampling fluctuation of the BLOD
        variance into its surrogate (exact for single-grid blocks).
    """

    def __init__(
        self,
        blocks: list[BlockReliability],
        l0: int = 10,
        tail: float = 1e-6,
        rule: str = "midpoint",
        include_residual_fluctuation: bool = True,
    ) -> None:
        if not blocks:
            raise ConfigurationError("need at least one block")
        if rule not in ("midpoint", "gauss"):
            raise ConfigurationError(f"unknown rule {rule!r}")
        self.blocks = list(blocks)
        self.l0 = l0
        blods = [block.blod for block in self.blocks]
        with span("st_fast.rules", blocks=len(self.blocks), l0=l0, rule=rule):
            if rule == "midpoint":
                rules = midpoint_block_rules(
                    blods, l0, tail, include_residual_fluctuation
                )
            else:
                rules = [
                    (
                        gauss_hermite_rule(blod.u_dist(), n_points=max(l0, 8)),
                        quantile_rule(
                            blod.v_chi2_match(include_residual_fluctuation),
                            n_points=max(l0, 8),
                        ),
                    )
                    for blod in blods
                ]
        (
            self._u_points,
            self._u_weights,
            self._v_points,
            self._v_weights,
        ) = pad_block_rules(rules)
        self._log_areas = np.log([block.blod.area for block in self.blocks])
        self._rule_nodes = sum(
            u.points.size * v.points.size for u, v in rules
        )

    def _block_expectations(self, times: np.ndarray) -> np.ndarray:
        """All blocks' tensor-rule integrals in one fused evaluation."""
        log_t_ratios = self._scaled_log_t_ratios(times)
        metrics.inc("integration.subdomain_evals", times.size * self._rule_nodes)
        return batched_rule_expectations(
            log_t_ratios,
            self._log_areas,
            self._u_points,
            self._u_weights,
            self._v_points,
            self._v_weights,
        )


def sweep_reliabilities(
    analyzers: list[StFastAnalyzer],
    times_list: list[np.ndarray | float],
) -> list[np.ndarray] | None:
    """Evaluate several same-design ``StFastAnalyzer`` grids in one kernel call.

    Used by the batch executor to fuse a temperature axis: the rule tables
    of ``st_fast`` depend only on the BLODs (not temperature), so a sweep
    over operating points of one design shares a single padded node table.
    Each analyzer contributes its own ``b_j ln(t / alpha_j)`` profile (the
    Weibull parameters DO depend on temperature) and the concatenated
    profiles go through one :func:`sweep_rule_expectations` dispatch.

    Returns one clipped reliability array per analyzer — bitwise identical
    to ``analyzer.reliability(times)`` — or ``None`` when fusion does not
    apply (mismatched rule tables, or the fused kernel declines the
    shape); callers must then fall back to per-analyzer calls.
    """
    if not analyzers or len(analyzers) != len(times_list):
        return None
    base = analyzers[0]
    for analyzer in analyzers[1:]:
        if not (
            np.array_equal(analyzer._log_areas, base._log_areas)
            and np.array_equal(analyzer._u_points, base._u_points)
            and np.array_equal(analyzer._u_weights, base._u_weights)
            and np.array_equal(analyzer._v_points, base._v_points)
            and np.array_equal(analyzer._v_weights, base._v_weights)
        ):
            return None
    times_arrays = [
        np.atleast_1d(np.asarray(times, dtype=float)) for times in times_list
    ]
    if len({times.size for times in times_arrays}) == 1:
        # Equal-length axes (every bracketing rung, and uniform time
        # grids): build all profiles in one broadcast.  Division, log and
        # scale are elementwise ufuncs, so each slice is bitwise equal to
        # the per-analyzer ``_scaled_log_t_ratios`` result.
        times_mat = np.stack(times_arrays)  # (n_analyzers, n_times)
        check_times(times_mat)
        vectors = [analyzer._weibull_vectors() for analyzer in analyzers]
        alphas_mat = np.stack([alphas for alphas, _ in vectors])
        bs_mat = np.stack([bs for _, bs in vectors])
        with np.errstate(divide="ignore"):
            ratios = np.where(
                times_mat[:, None, :] > 0.0,
                np.log(times_mat[:, None, :] / alphas_mat[:, :, None]),
                -np.inf,
            )
        stacked = bs_mat[:, :, None] * ratios
        profiles = [stacked[i] for i in range(len(analyzers))]
    else:
        profiles = [
            analyzer._scaled_log_t_ratios(times)
            for analyzer, times in zip(analyzers, times_arrays, strict=True)
        ]
    fused = sweep_rule_expectations(
        profiles,
        base._log_areas,
        base._u_points,
        base._u_weights,
        base._v_points,
        base._v_weights,
    )
    if fused is None:
        return None
    for analyzer, times in zip(analyzers, times_arrays, strict=True):
        metrics.inc(
            "integration.subdomain_evals", times.size * analyzer._rule_nodes
        )
    out: list[np.ndarray] = []
    for expectation in fused:
        failures = 1.0 - expectation
        value = 1.0 - failures.sum(axis=0)
        out.append(np.clip(value, 0.0, 1.0))
    return out


def _draw_factors(
    sampler: str,
    n_samples: int,
    n_factors: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Standard-normal factor draws by the chosen (Q)MC scheme."""
    if sampler == "mc":
        return rng.standard_normal((n_samples, n_factors))
    from scipy import stats as sps
    from scipy.stats import qmc

    seed = int(rng.integers(0, 2**31 - 1))
    if sampler == "lhs":
        engine = qmc.LatinHypercube(d=n_factors, seed=seed)
        uniforms = engine.random(n_samples)
    else:  # sobol
        engine = qmc.Sobol(d=n_factors, scramble=True, seed=seed)
        # Sobol wants a power-of-two count; draw the next power and trim.
        m = int(np.ceil(np.log2(n_samples)))
        uniforms = engine.random_base2(m)[:n_samples]
    # Keep strictly inside (0, 1) before the normal inverse CDF.
    uniforms = np.clip(uniforms, 1e-12, 1.0 - 1e-12)
    return np.asarray(sps.norm.ppf(uniforms))


def _st_mc_shard_task(
    blocks: tuple[BlockReliability, ...],
    include_residual_noise: bool,
    shard: Shard,
) -> dict[str, np.ndarray]:
    """One shard of the st_mc (u, v) sample cloud.

    Module-level and pure so process backends can pickle it; the factor
    draws and per-block residual noise all come from the shard's private
    stream.
    """
    rng = shard.rng()
    n_factors = blocks[0].blod.n_factors
    factors = rng.standard_normal((shard.size, n_factors))
    payload: dict[str, np.ndarray] = {}
    noise_rng = rng if include_residual_noise else None
    for j, block in enumerate(blocks):
        payload[f"u{j}"] = block.blod.u_samples(factors)
        payload[f"v{j}"] = block.blod.v_samples(factors, rng=noise_rng)
    return payload


class StMcAnalyzer(_EnsembleAnalyzerBase):
    """Numerical-joint-PDF statistical analyzer (Sec. IV-C, ``st_mc``).

    Samples the principal components, evaluates every block's
    ``(u_j, v_j)`` on the common factor draws, and estimates the per-block
    expectation either directly on the samples (``estimator="samples"``) or
    through a 2-D histogram joint PDF (``estimator="histogram"``, the
    paper's description).

    Parameters
    ----------
    blocks:
        Per-block BLOD + Weibull parameters.
    n_samples:
        Monte-Carlo draws of the principal-component vector.
    seed:
        Generator seed (or pass an ``rng``).
    estimator:
        ``"samples"`` or ``"histogram"``.
    bins:
        Histogram bins per dimension for the histogram estimator.
    include_residual_noise:
        Draw the residual sampling factor of ``v_j`` exactly instead of
        fixing it at its mean.
    sampler:
        ``"mc"`` (pseudo-random, the paper's method), ``"lhs"`` (Latin
        hypercube) or ``"sobol"`` (scrambled Sobol) — the QMC options
        reduce the estimator variance at the same sample count.
    backend:
        Execution backend for the sharded ``"mc"`` sampling sweep;
        defaults to the environment selection.  QMC samplers draw one
        global sequence, so they always run in-process.
    shard_size:
        Samples per seed shard for the ``"mc"`` sampler (part of the
        deterministic stream definition, like the MC engines').
    """

    def __init__(
        self,
        blocks: list[BlockReliability],
        n_samples: int = 20000,
        seed: int | None = 0,
        rng: np.random.Generator | None = None,
        estimator: str = "samples",
        bins: int = 10,
        include_residual_noise: bool = True,
        sampler: str = "mc",
        backend: ExecBackend | None = None,
        shard_size: int = DEFAULT_SHARD_SIZE,
    ) -> None:
        if not blocks:
            raise ConfigurationError("need at least one block")
        if estimator not in ("samples", "histogram"):
            raise ConfigurationError(f"unknown estimator {estimator!r}")
        if sampler not in ("mc", "lhs", "sobol"):
            raise ConfigurationError(f"unknown sampler {sampler!r}")
        if n_samples < 100:
            raise ConfigurationError(f"n_samples must be >= 100, got {n_samples}")
        if shard_size < 1:
            raise ConfigurationError(f"shard_size must be >= 1, got {shard_size}")
        n_factors = blocks[0].blod.n_factors
        if any(block.blod.n_factors != n_factors for block in blocks):
            raise ConfigurationError("all blocks must share one factor space")
        self.blocks = list(blocks)
        self.estimator = estimator
        self.bins = bins
        with span(
            "st_mc.sample",
            samples=n_samples,
            factors=n_factors,
            sampler=sampler,
        ):
            if sampler == "mc":
                self._sample_sharded(
                    n_samples, seed, rng, include_residual_noise,
                    backend, shard_size,
                )
            else:
                if rng is None:
                    rng = np.random.default_rng(seed)
                factors = _draw_factors(sampler, n_samples, n_factors, rng)
                self._u_samples = [
                    b.blod.u_samples(factors) for b in self.blocks
                ]
                noise_rng = rng if include_residual_noise else None
                self._v_samples = [
                    b.blod.v_samples(factors, rng=noise_rng)
                    for b in self.blocks
                ]
            metrics.inc("st_mc.factor_draws", n_samples)

    def _sample_sharded(
        self,
        n_samples: int,
        seed: int | None,
        rng: np.random.Generator | None,
        include_residual_noise: bool,
        backend: ExecBackend | None,
        shard_size: int,
    ) -> None:
        """Draw the (u, v) sample clouds in deterministic seed shards.

        Shards are submitted to the execution backend and concatenated in
        shard-index order, so the cloud is bit-identical for any backend
        and worker count (given the same seed and ``shard_size``).
        """
        if rng is not None:
            root = resolve_seed_sequence(rng)
        elif seed is None:
            root = np.random.SeedSequence()
        else:
            root = resolve_seed_sequence(seed)
        shards = plan_shards(n_samples, root, shard_size)
        exec_backend = backend if backend is not None else resolve_backend()
        # One task per worker: a process backend pickles the blocks into
        # every task, and grouping shards never changes the cloud.
        payloads = run_sharded(
            exec_backend,
            partial(
                _st_mc_shard_task, tuple(self.blocks), include_residual_noise
            ),
            shards,
            shards_per_task=math.ceil(len(shards) / exec_backend.jobs),
        )
        self._u_samples = [
            np.concatenate(
                [payloads[s.index][f"u{j}"] for s in shards]
            )
            for j in range(len(self.blocks))
        ]
        self._v_samples = [
            np.concatenate(
                [payloads[s.index][f"v{j}"] for s in shards]
            )
            for j in range(len(self.blocks))
        ]

    def block_moment_samples(self, index: int) -> tuple[np.ndarray, np.ndarray]:
        """The (u, v) sample cloud of one block (diagnostics, Fig. 6/7)."""
        return self._u_samples[index], self._v_samples[index]

    def _block_expectations(self, times: np.ndarray) -> np.ndarray:
        """Sample-average or histogram-integrated block expectations.

        The ``"samples"`` estimator runs one fused kernel over all blocks;
        the histogram estimator loops over blocks, since its cost is the
        per-block 2-D histogram builds, not the survival evaluation.
        """
        if self.estimator == "histogram":
            return np.stack(
                [
                    self._histogram_expectation(j, times)
                    for j in range(len(self.blocks))
                ]
            )
        if not hasattr(self, "_u_stack"):
            # Blocks share one factor draw, so the clouds stack rectangular.
            self._u_stack = np.vstack(self._u_samples)
            self._v_stack = np.vstack(self._v_samples)
            self._log_areas = np.log(
                [block.blod.area for block in self.blocks]
            )
        return batched_sample_expectations(
            self._scaled_log_t_ratios(times),
            self._log_areas,
            self._u_stack,
            self._v_stack,
        )

    def _histogram_expectation(self, index: int, times: np.ndarray) -> np.ndarray:
        """One block's expectation over its 2-D histogram joint PDF."""
        block = self.blocks[index]
        u = self._u_samples[index]
        v = self._v_samples[index]
        log_t_ratio = safe_log_t_ratio(times, block.alpha)
        counts, u_edges, v_edges = np.histogram2d(u, v, bins=self.bins)
        probabilities = counts / counts.sum()
        u_mid = 0.5 * (u_edges[:-1] + u_edges[1:])
        v_mid = 0.5 * (v_edges[:-1] + v_edges[1:])
        survival = _survival_on_grid(
            log_t_ratio, block.b, block.blod.area, u_mid, v_mid
        )
        return np.einsum("tpq,pq->t", survival, probabilities)


def worst_case_blocks(
    blocks: list[BlockReliability],
) -> list[BlockReliability]:
    """Temperature-unaware variant: every block gets the worst parameters.

    The hottest block has the smallest ``alpha``; its ``(alpha, b)`` pair is
    applied chip-wide, reproducing the "temperature-unaware approach by
    using the worst-case temperature across the chip" of Fig. 10.
    """
    if not blocks:
        raise ConfigurationError("need at least one block")
    worst = min(blocks, key=lambda block: block.alpha)
    return [
        BlockReliability(blod=block.blod, alpha=worst.alpha, b=worst.b)
        for block in blocks
    ]
