"""Block-level oxide-thickness distribution (BLOD) characterisation.

The central projection of the paper (Sec. IV): the millions of correlated
per-device thickness variables of a block collapse into just two random
variables over the chip ensemble —

- the BLOD sample mean ``u_j`` (eq. (22)): a Gaussian, being a linear
  combination of the principal components,
- the BLOD sample variance ``v_j`` (eq. (24)): a shifted quadratic normal
  form, approximated by a scaled chi-square (eq. (29)-(30)).

Derivation used here (matching eq. (22)/(24) with the grid-based canonical
model): let device ``i`` of block ``j`` sit in grid ``g_i`` with
sensitivity row ``s_{g_i}``; then

    u_j = mean_i(lambda_{g_i,0}) + mean_i(s_{g_i}) . z + (lambda_r/sqrt(m_j)) eps_bar
    v_j = lambda_r^2 * W + z' C_j z,   W = chi2(m_j - 1)/(m_j - 1)

with ``C_j = m_j/(m_j-1) * sum_g f_g (s_g - s_bar)(s_g - s_bar)'`` (``f_g``
the device fraction of the block in grid ``g``), dropping the O(1/sqrt(m))
cross terms. The residual sampling factor ``W`` concentrates at 1 for large
blocks; the paper keeps only its mean ``lambda_r^2`` (its ``v_{j,0}``), and
this module optionally folds its fluctuation into the chi-square moment
matching (exact for single-grid blocks, where the spatial part vanishes).

``C_j`` is never formed. A block spanning ``r_j`` grid cells keeps the
``r_j x k`` factor ``F_j`` whose row ``g`` is
``sqrt(kappa_j f_g) (s_g - s_bar)``, ``kappa_j = m_j/(m_j-1)``, so that
``C_j = F_j' F_j``. The rows are centred on their weighted mean, so the
rank of ``C_j`` is at most ``r_j - 1``, far below the factor count ``k``
(about the grid cell count). Everything ``v_j`` needs comes from ``F_j``
or from the ``r_j x r_j`` Gram ``G_j = F_j F_j'``: ``C_j`` and ``G_j``
share their nonzero eigenvalues, so ``tr C_j = tr G_j``,
``tr C_j^2 = ||G_j||_F^2`` and ``z' C_j z = ||F_j z||^2``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.chip.floorplan import Floorplan
from repro.chip.geometry import GridSpec
from repro.errors import ConfigurationError
from repro.obs import metrics
from repro.obs.trace import span
from repro.stats.integration import NormalDist, PointMass
from repro.stats.quadform import Chi2Match, QuadraticForm
from repro.variation.pca import CanonicalThicknessModel
from repro.variation.sampling import BlockGridAssignment, assign_devices_to_grid


@dataclass(frozen=True)
class BlodModel:
    """The two-random-variable summary of one block's oxide thicknesses.

    Attributes
    ----------
    name:
        Block name.
    area:
        Total normalized oxide area ``A_j``.
    n_devices:
        Device count ``m_j``.
    u_nominal:
        Nominal BLOD mean ``u_{j,0}`` (device-fraction-weighted grid
        nominal).
    u_sensitivities:
        ``(n_factors,)`` sensitivities of ``u_j`` to the factors.
    sigma_independent:
        The model's residual sigma ``lambda_r``.
    v_factor:
        ``(rank, n_factors)`` factor ``F_j`` of the quadratic form of
        ``v_j``: ``C_j = F_j' F_j`` (form the dense matrix as
        ``v_factor.T @ v_factor``).
    v_deterministic:
        Chip-independent contribution to the BLOD variance caused by
        *deterministic* thickness-mean differences between the grids a
        block spans (nonzero only with a wafer-level systematic pattern).
    """

    name: str
    area: float
    n_devices: int
    u_nominal: float
    u_sensitivities: np.ndarray
    sigma_independent: float
    v_factor: np.ndarray
    v_deterministic: float = 0.0

    def __post_init__(self) -> None:
        u_sens = np.asarray(self.u_sensitivities, dtype=float)
        v_factor = np.asarray(self.v_factor, dtype=float)
        if u_sens.ndim != 1:
            raise ConfigurationError("u_sensitivities must be 1-D")
        if v_factor.ndim != 2 or v_factor.shape[1] != u_sens.size:
            raise ConfigurationError(
                "v_factor must be (rank, n_factors) with the factor dimension"
            )
        if self.n_devices < 2:
            raise ConfigurationError(
                f"block {self.name!r} needs >= 2 devices for a sample variance"
            )
        if self.area <= 0.0:
            raise ConfigurationError(f"block {self.name!r} area must be positive")
        for label, value in (
            ("u_nominal", self.u_nominal),
            ("u_sensitivities", u_sens),
            ("v_factor", v_factor),
        ):
            if not np.isfinite(value).all():
                raise ConfigurationError(
                    f"block {self.name!r} has a non-finite {label}"
                )
        object.__setattr__(self, "u_sensitivities", u_sens)
        object.__setattr__(self, "v_factor", v_factor)

    @property
    def n_factors(self) -> int:
        """Number of canonical factors."""
        return self.u_sensitivities.size

    @property
    def u_sigma(self) -> float:
        """Standard deviation of the BLOD mean ``u_j``.

        Includes the vanishing ``lambda_r / sqrt(m_j)`` residual term the
        paper notes "can be safely neglected for a typical industrial
        chip"; keeping it costs nothing and is exact.
        """
        factor_var = float(self.u_sensitivities @ self.u_sensitivities)
        residual_var = self.sigma_independent**2 / self.n_devices
        return float(np.sqrt(factor_var + residual_var))

    @property
    def v_offset(self) -> float:
        """The paper's ``v_{j,0} = lambda_r^2`` (plus any deterministic
        within-block spread from a wafer-level systematic pattern)."""
        return self.sigma_independent**2 + self.v_deterministic

    @property
    def _v_gram(self) -> np.ndarray:
        """The ``(rank, rank)`` Gram ``G_j = F_j F_j'``, formed on first use.

        ``G_j`` and ``C_j`` share their nonzero eigenvalues, so every
        spectral quantity of ``v_j`` is read from this small matrix
        (frozen dataclass: the cache is installed with
        ``object.__setattr__``).
        """
        gram = getattr(self, "_v_gram_cache", None)
        if gram is None:
            gram = self.v_factor @ self.v_factor.T
            object.__setattr__(self, "_v_gram_cache", gram)
        return gram

    def u_dist(self) -> NormalDist:
        """Marginal distribution of the BLOD mean (exactly normal)."""
        return NormalDist(mean=self.u_nominal, sigma=self.u_sigma)

    def v_quadratic_form(self) -> QuadraticForm:
        """``v_j`` as a shifted quadratic form (spatial part only).

        This is the paper's representation: offset ``lambda_r^2`` plus the
        quadratic form ``z' C_j z``; the residual sampling fluctuation is
        not in the matrix (see :meth:`v_chi2_match`). The form's matrix is
        the Gram ``G_j``: with ``w ~ N(0, I_rank)``, ``w' G_j w`` and
        ``z' C_j z`` are the same mixture of ``chi2(1)`` variables.
        """
        return QuadraticForm(offset=self.v_offset, matrix=self._v_gram)

    def v_traces(self, include_residual_fluctuation: bool = True) -> tuple[float, float]:
        """``(tr, tr_sq)`` of the full mixture defining ``v_j - 0``.

        The eigenvalue mixture of ``v_j`` is ``eig(C_j)`` plus, when the
        residual sampling fluctuation is kept, ``m_j - 1`` copies of
        ``lambda_r^2 / (m_j - 1)``. Traces are available in closed form.
        """
        gram = self._v_gram
        trace = float(np.trace(gram))
        trace_sq = float(np.sum(gram * gram))
        if include_residual_fluctuation:
            trace += self.sigma_independent**2
            trace_sq += self.sigma_independent**4 / (self.n_devices - 1)
        return trace, trace_sq

    def v_chi2_match(
        self, include_residual_fluctuation: bool = True
    ) -> Chi2Match | PointMass:
        """Chi-square surrogate for the BLOD variance (eq. (29)-(30)).

        With ``include_residual_fluctuation=False`` this is exactly the
        paper's match: offset ``lambda_r^2`` plus the moment-matched
        quadratic part. With the flag on (default) the chi-square
        additionally absorbs the ``chi2(m_j-1)`` residual-sampling term,
        which makes the match exact for single-grid blocks and removes the
        degenerate point-mass corner case for them.
        """
        if include_residual_fluctuation:
            trace, trace_sq = self.v_traces(include_residual_fluctuation=True)
            if trace <= 0.0 or trace_sq <= 0.0:
                return PointMass(self.v_offset)
            scale = trace_sq / trace
            dof = trace**2 / trace_sq
            return Chi2Match(offset=self.v_deterministic, scale=scale, dof=dof)
        trace, trace_sq = self.v_traces(include_residual_fluctuation=False)
        if trace <= 0.0 or trace_sq <= 0.0:
            return PointMass(self.v_offset)
        scale = trace_sq / trace
        dof = trace**2 / trace_sq
        return Chi2Match(offset=self.v_offset, scale=scale, dof=dof)

    def v_mean(self) -> float:
        """``E[v_j] = lambda_r^2 + tr(C_j)``."""
        return self.v_offset + float(np.trace(self._v_gram))

    def u_samples(self, z: np.ndarray) -> np.ndarray:
        """Evaluate ``u_j`` on factor draws ``z`` of shape ``(n, k)``.

        Deterministic given ``z`` (the negligible residual-mean term is
        dropped here, matching eq. (22) usage in st_mc).
        """
        z = np.atleast_2d(np.asarray(z, dtype=float))
        return self.u_nominal + z @ self.u_sensitivities

    def v_samples(
        self,
        z: np.ndarray,
        rng: np.random.Generator | None = None,
    ) -> np.ndarray:
        """Evaluate ``v_j`` on factor draws ``z`` of shape ``(n, k)``.

        With an ``rng`` the residual sampling factor ``W`` is drawn
        exactly; without one it is fixed at its mean (the paper's usage).

        The quadratic part ``z' C_j z`` is the row-wise ``||z F_j'||^2``:
        O(n_samples * k * rank) instead of O(n_samples * k^2).
        """
        z = np.atleast_2d(np.asarray(z, dtype=float))
        projections = z @ self.v_factor.T
        quadratic = np.einsum("ij,ij->i", projections, projections)
        lambda_r_sq = self.sigma_independent**2
        if rng is None:
            residual = np.full(z.shape[0], lambda_r_sq)
        else:
            dof = self.n_devices - 1
            residual = lambda_r_sq * rng.chisquare(dof, size=z.shape[0]) / dof
        return self.v_deterministic + residual + quadratic


def characterize_blods(
    floorplan: Floorplan,
    grid: GridSpec,
    model: CanonicalThicknessModel,
    assignments: list[BlockGridAssignment] | None = None,
) -> list[BlodModel]:
    """Characterise every block's BLOD from the canonical thickness model.

    This is step 1 of the overall algorithm (Fig. 9): closed-form
    evaluation of the eq. (22) sensitivities and the eq. (24) quadratic
    form factor for each block.
    """
    if model.n_grids != grid.n_cells:
        raise ConfigurationError(
            f"model has {model.n_grids} grids but grid has {grid.n_cells} cells"
        )
    if assignments is None:
        assignments = assign_devices_to_grid(floorplan, grid)
    if len(assignments) != floorplan.n_blocks:
        raise ConfigurationError("one grid assignment per block is required")

    with span(
        "blod.characterize",
        blocks=floorplan.n_blocks,
        factors=model.n_factors,
    ):
        metrics.inc("blod.blocks", floorplan.n_blocks)
        blods: list[BlodModel] = []
        for block, assignment in zip(floorplan.blocks, assignments, strict=True):
            fractions = assignment.fractions
            grid_idx = assignment.grid_indices
            sens = model.sensitivities[grid_idx, :]
            means = model.grid_means[grid_idx]

            u_nominal = float(fractions @ means)
            u_sens = fractions @ sens

            m = block.n_devices
            kappa = m / (m - 1)
            v_factor = sens - u_sens
            v_factor *= np.sqrt(kappa * fractions)[:, None]
            # Grid-mean differences within a block (wafer systematic
            # pattern) contribute a chip-independent spread to the
            # sample variance.
            mean_dev = means - u_nominal
            deterministic_spread = kappa * float(fractions @ mean_dev**2)

            blods.append(
                BlodModel(
                    name=block.name,
                    area=block.total_oxide_area,
                    n_devices=m,
                    u_nominal=u_nominal,
                    u_sensitivities=u_sens,
                    sigma_independent=model.sigma_independent,
                    v_factor=v_factor,
                    v_deterministic=deterministic_spread,
                )
            )
        return blods
