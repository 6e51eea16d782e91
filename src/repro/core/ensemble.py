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
per-block expectation differs; ``alphas=``/``bs=`` evaluate it at another
operating point.
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


@dataclass(frozen=True)
class RuleTables:
    """Every block's padded ``(u, v)`` quadrature tables (see :func:`pad_rule_tables`).

    They depend on the BLODs alone: st_fast, the hybrid table fill and the
    scenario engine read one design's tables at any operating point.
    """

    log_areas: np.ndarray
    u_points: np.ndarray
    u_weights: np.ndarray
    v_points: np.ndarray
    v_weights: np.ndarray
    #: Tensor-rule nodes summed over the (unpadded) blocks.
    rule_nodes: int

    @property
    def arrays(self) -> tuple[np.ndarray, ...]:
        """The kernels' table arguments, ``log_areas`` to ``v_weights``."""
        return (self.log_areas, self.u_points, self.u_weights,
                self.v_points, self.v_weights)

    def tile(self, reps: int) -> RuleTables:
        """The tables repeated ``reps`` times along the block axis."""
        log_areas, *tables = self.arrays
        return RuleTables(
            np.tile(log_areas, reps),
            *(np.tile(table, (reps, 1)) for table in tables),
            reps * self.rule_nodes,
        )

    def expectations(self, log_t_ratios: np.ndarray) -> np.ndarray:
        """``(rows, times)`` survival expectations of a scaled ratio profile."""
        metrics.inc(
            "integration.subdomain_evals", log_t_ratios.shape[1] * self.rule_nodes
        )
        return batched_rule_expectations(log_t_ratios, *self.arrays)


def block_rule_tables(
    blods: Sequence[BlodModel],
    l0: int = 10,
    tail: float = 1e-6,
    rule: str = "midpoint",
    include_residual_fluctuation: bool = True,
) -> RuleTables:
    """Every block's ``(u, v)`` rules (see :class:`StFastAnalyzer`) as tables."""
    if rule not in ("midpoint", "gauss"):
        raise ConfigurationError(f"unknown rule {rule!r}")
    with span("st_fast.rules", blocks=len(blods), l0=l0, rule=rule):
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
    u_points, u_weights = pad_rule_tables(
        [u.points for u, _ in rules], [u.weights for u, _ in rules]
    )
    v_points, v_weights = pad_rule_tables(
        [v.points for _, v in rules], [v.weights for _, v in rules]
    )
    rule_nodes = sum(u.points.size * v.points.size for u, v in rules)
    log_areas = np.log([blod.area for blod in blods])
    return RuleTables(log_areas, u_points, u_weights, v_points, v_weights, rule_nodes)


class _EnsembleAnalyzerBase:
    """Shared eq. (18)/(28) combination logic.

    ``alphas``/``bs`` override the blocks' nominal Weibull parameters (the
    same design at another operating point); ``None`` keeps them.
    """

    blocks: list[BlockReliability]
    _nominal: tuple[np.ndarray, np.ndarray]

    def _set_blocks(self, blocks: Sequence[BlockReliability]) -> None:
        if not blocks:
            raise ConfigurationError("need at least one block")
        self.blocks = list(blocks)
        self._nominal = (
            np.array([block.alpha for block in self.blocks]),
            np.array([block.b for block in self.blocks]),
        )

    def _check_override(self, name: str, values: np.ndarray) -> None:
        """Check a per-block ``alpha`` or ``b`` override: finite and positive."""
        if values.shape != (len(self.blocks),):
            raise ConfigurationError("need one (alpha, b) pair per block")
        # NaN fails both comparisons.
        if not (values.min() > 0.0 and values.max() < np.inf):
            bad = int(np.argmin((values > 0.0) & (values < np.inf)))
            raise ConfigurationError(
                f"block {self.blocks[bad].name!r}: {name} must be finite "
                f"and positive, got {values[bad]}"
            )

    def _weibull_params(
        self, alphas: np.ndarray | None, bs: np.ndarray | None
    ) -> tuple[np.ndarray, np.ndarray]:
        """The ``(alphas, bs)`` to evaluate at: checked overrides, else nominal."""
        if alphas is None:
            alphas = self._nominal[0]
        else:
            alphas = np.asarray(alphas, dtype=float)
            self._check_override("alpha", alphas)
        if bs is None:
            bs = self._nominal[1]
        else:
            bs = np.asarray(bs, dtype=float)
            self._check_override("b", bs)
        return alphas, bs

    def _block_expectations(
        self, times: np.ndarray, alphas: np.ndarray, bs: np.ndarray
    ) -> np.ndarray:
        """``(n_blocks, n_times)`` ``E[exp(-A_j g(u_j, v_j))]``; per-analyzer."""
        raise NotImplementedError

    @staticmethod
    def _scaled_log_t_ratios(
        times: np.ndarray, alphas: np.ndarray, bs: np.ndarray
    ) -> np.ndarray:
        """``(n_blocks, n_times)`` matrix of ``b_j * ln(t / alpha_j)``.

        ``t = 0`` maps to ``-inf`` (survival 1 downstream), matching
        :func:`repro.core.closed_form.safe_log_t_ratio` per block.
        """
        check_times(times)
        with np.errstate(divide="ignore"):
            ratios = np.where(
                times[None, :] > 0.0,
                np.log(times[None, :] / alphas[:, None]),
                -np.inf,
            )
        return bs[:, None] * ratios

    def block_failure_probabilities(
        self,
        times: np.ndarray | float,
        alphas: np.ndarray | None = None,
        bs: np.ndarray | None = None,
    ) -> np.ndarray:
        """``(n_blocks, n_times)`` ensemble block failure probabilities."""
        times = np.atleast_1d(np.asarray(times, dtype=float))
        return 1.0 - self._block_expectations(
            times, *self._weibull_params(alphas, bs)
        )

    def reliability(
        self,
        times: np.ndarray | float,
        alphas: np.ndarray | None = None,
        bs: np.ndarray | None = None,
        clip: bool = True,
    ) -> np.ndarray:
        """Ensemble chip reliability ``R_c(t)`` (eq. (28)).

        ``clip=False`` returns the raw first-order value, which can
        undershoot 0 far beyond the useful lifetime.
        """
        times = np.asarray(times, dtype=float)
        scalar = times.ndim == 0
        failures = self.block_failure_probabilities(times, alphas, bs)
        value = 1.0 - failures.sum(axis=0)
        if clip:
            # np.minimum(np.maximum(...)) is np.clip without its Python wrapper.
            value = np.minimum(np.maximum(value, 0.0), 1.0)
        return float(value[0]) if scalar else value

    def failure_probability(
        self,
        times: np.ndarray | float,
        alphas: np.ndarray | None = None,
        bs: np.ndarray | None = None,
    ) -> np.ndarray:
        """Ensemble chip failure probability ``1 - R_c(t)``."""
        times = np.asarray(times, dtype=float)
        scalar = times.ndim == 0
        value = 1.0 - np.atleast_1d(self.reliability(times, alphas, bs))
        return float(value[0]) if scalar else value


class StFastAnalyzer(_EnsembleAnalyzerBase):
    """The paper's fast statistical analyzer (Sec. IV-D, ``st_fast``).

    Parameters
    ----------
    blocks:
        Per-block BLOD + nominal Weibull parameters.
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
    rule_tables:
        The design's already built tables (:func:`block_rule_tables` of
        these blocks' BLODs); ``None`` builds them from the knobs above.
    """

    def __init__(
        self,
        blocks: list[BlockReliability],
        l0: int = 10,
        tail: float = 1e-6,
        rule: str = "midpoint",
        include_residual_fluctuation: bool = True,
        rule_tables: RuleTables | None = None,
    ) -> None:
        self._set_blocks(blocks)
        if rule_tables is None:
            blods = [block.blod for block in self.blocks]
            rule_tables = block_rule_tables(
                blods, l0, tail, rule, include_residual_fluctuation
            )
        self.rule_tables = rule_tables

    def _block_expectations(
        self, times: np.ndarray, alphas: np.ndarray, bs: np.ndarray
    ) -> np.ndarray:
        """All blocks' tensor-rule integrals in one fused evaluation."""
        return self.rule_tables.expectations(
            self._scaled_log_t_ratios(times, alphas, bs)
        )


def sweep_reliabilities(
    analyzer: StFastAnalyzer,
    profiles: Sequence[tuple[np.ndarray, np.ndarray]],
    times_list: list[np.ndarray | float],
) -> list[np.ndarray] | None:
    """Evaluate one ``StFastAnalyzer`` at several operating points in one kernel call.

    Used by the batch executor to fuse a temperature axis: each
    ``(alphas, bs)`` profile contributes its own ``b_j ln(t / alpha_j)``
    matrix over the analyzer's one rule table, and the concatenated
    matrices go through one :func:`sweep_rule_expectations` dispatch.

    Returns one clipped reliability array per profile — bitwise identical
    to ``analyzer.reliability(times, alphas, bs)`` — or ``None`` when the
    fused kernel declines the shape (or no profile is given); callers
    must then fall back to per-profile calls.
    """
    if not profiles or len(profiles) != len(times_list):
        return None
    times_arrays = [
        np.atleast_1d(np.asarray(times, dtype=float)) for times in times_list
    ]
    fused = sweep_rule_expectations(
        [
            analyzer._scaled_log_t_ratios(
                times, *analyzer._weibull_params(alphas, bs)
            )
            for times, (alphas, bs) in zip(times_arrays, profiles, strict=True)
        ],
        *analyzer.rule_tables.arrays,
    )
    if fused is None:
        return None
    metrics.inc(
        "integration.subdomain_evals",
        sum(times.size for times in times_arrays) * analyzer.rule_tables.rule_nodes,
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
    blods: tuple[BlodModel, ...],
    include_residual_noise: bool,
    shard: Shard,
) -> dict[str, np.ndarray]:
    """One shard of the st_mc (u, v) sample cloud.

    Module-level and pure so process backends can pickle it; the factor
    draws and per-block residual noise all come from the shard's private
    stream.
    """
    rng = shard.rng()
    factors = rng.standard_normal((shard.size, blods[0].n_factors))
    payload: dict[str, np.ndarray] = {}
    noise_rng = rng if include_residual_noise else None
    for j, blod in enumerate(blods):
        payload[f"u{j}"] = blod.u_samples(factors)
        payload[f"v{j}"] = blod.v_samples(factors, rng=noise_rng)
    return payload


def draw_sample_cloud(
    blods: Sequence[BlodModel],
    n_samples: int = 20000,
    seed: int | None = 0,
    rng: np.random.Generator | None = None,
    include_residual_noise: bool = True,
    sampler: str = "mc",
    backend: ExecBackend | None = None,
    shard_size: int = DEFAULT_SHARD_SIZE,
) -> tuple[np.ndarray, np.ndarray]:
    """The st_mc ``(u, v)`` sample cloud of ``blods`` (see :class:`StMcAnalyzer`).

    Each is ``(n_blocks, n_samples)`` over one shared factor draw.  The
    ``"mc"`` sampler's seed shards make it bit-identical for any backend
    and worker count (given the same seed and ``shard_size``).
    """
    if sampler not in ("mc", "lhs", "sobol"):
        raise ConfigurationError(f"unknown sampler {sampler!r}")
    if n_samples < 100:
        raise ConfigurationError(f"n_samples must be >= 100, got {n_samples}")
    if shard_size < 1:
        raise ConfigurationError(f"shard_size must be >= 1, got {shard_size}")
    n_factors = blods[0].n_factors
    if any(blod.n_factors != n_factors for blod in blods):
        raise ConfigurationError("all blocks must share one factor space")
    with span(
        "st_mc.sample",
        samples=n_samples,
        factors=n_factors,
        sampler=sampler,
    ):
        if sampler == "mc":
            if rng is not None:
                root = resolve_seed_sequence(rng)
            elif seed is None:
                root = np.random.SeedSequence()
            else:
                root = resolve_seed_sequence(seed)
            shards = plan_shards(n_samples, root, shard_size)
            exec_backend = backend if backend is not None else resolve_backend()
            # One task per worker: a process backend pickles the BLODs into
            # every task, and grouping shards never changes the cloud.
            payloads = run_sharded(
                exec_backend,
                partial(_st_mc_shard_task, tuple(blods), include_residual_noise),
                shards,
                shards_per_task=math.ceil(len(shards) / exec_backend.jobs),
            )
            u, v = (
                np.stack(
                    [
                        np.concatenate(
                            [payloads[s.index][f"{moment}{j}"] for s in shards]
                        )
                        for j in range(len(blods))
                    ]
                )
                for moment in ("u", "v")
            )
        else:
            if rng is None:
                rng = np.random.default_rng(seed)
            factors = _draw_factors(sampler, n_samples, n_factors, rng)
            u = np.stack([blod.u_samples(factors) for blod in blods])
            noise_rng = rng if include_residual_noise else None
            v = np.stack([blod.v_samples(factors, rng=noise_rng) for blod in blods])
        metrics.inc("st_mc.factor_draws", n_samples)
    return u, v


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
        Per-block BLOD + nominal Weibull parameters.
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
    cloud:
        The design's already drawn ``(u, v)`` cloud (:func:`draw_sample_cloud`
        of these blocks' BLODs); ``None`` draws it with the knobs above.
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
        cloud: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> None:
        self._set_blocks(blocks)
        if estimator not in ("samples", "histogram"):
            raise ConfigurationError(f"unknown estimator {estimator!r}")
        self.estimator = estimator
        self.bins = bins
        if cloud is None:
            blods = [block.blod for block in self.blocks]
            cloud = draw_sample_cloud(
                blods, n_samples, seed, rng, include_residual_noise, sampler,
                backend, shard_size,
            )
        self.cloud = cloud
        self._log_areas = np.log([block.blod.area for block in self.blocks])

    def block_moment_samples(self, index: int) -> tuple[np.ndarray, np.ndarray]:
        """The (u, v) sample cloud of one block (diagnostics, Fig. 6/7)."""
        u, v = self.cloud
        return u[index], v[index]

    def _block_expectations(
        self, times: np.ndarray, alphas: np.ndarray, bs: np.ndarray
    ) -> np.ndarray:
        """Sample-average or histogram-integrated block expectations.

        The ``"samples"`` estimator runs one fused kernel over all blocks;
        the histogram estimator loops over blocks, since its cost is the
        per-block 2-D histogram builds, not the survival evaluation.
        """
        if self.estimator == "histogram":
            return np.stack(
                [
                    self._histogram_expectation(j, times, alphas[j], bs[j])
                    for j in range(len(self.blocks))
                ]
            )
        return batched_sample_expectations(
            self._scaled_log_t_ratios(times, alphas, bs), self._log_areas, *self.cloud
        )

    def _histogram_expectation(
        self, index: int, times: np.ndarray, alpha: float, b: float
    ) -> np.ndarray:
        """One block's expectation over its 2-D histogram joint PDF."""
        u, v = self.block_moment_samples(index)
        log_t_ratio = safe_log_t_ratio(times, alpha)
        counts, u_edges, v_edges = np.histogram2d(u, v, bins=self.bins)
        probabilities = counts / counts.sum()
        u_mid = 0.5 * (u_edges[:-1] + u_edges[1:])
        v_mid = 0.5 * (v_edges[:-1] + v_edges[1:])
        survival = _survival_on_grid(
            log_t_ratio, b, self.blocks[index].blod.area, u_mid, v_mid
        )
        return np.einsum("tpq,pq->t", survival, probabilities)
