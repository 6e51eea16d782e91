"""Principal-component (canonical) form of the thickness model (eq. (2)).

The correlated per-grid random variables are mapped onto mutually
independent standard-normal factors by eigendecomposition of the spatial
covariance matrix. After the mapping, the thickness of a device in grid
``i`` is

    x = lambda_{i,0} + sum_j lambda_{i,j} z_j + lambda_r * eps

with independent standard normal ``z_j`` (shared by all devices on a chip)
and a per-device standard normal ``eps``. The inter-die component is simply
one more factor whose sensitivity is identical for every grid, which keeps
the dependence between global and spatial components explicit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.kernels.artifacts import memoize_artifact
from repro.obs import metrics
from repro.obs.trace import span
from repro.variation.components import VariationBudget
from repro.variation.correlation import SpatialCorrelationModel


@dataclass(frozen=True)
class CanonicalThicknessModel:
    """Thickness model in canonical (principal-component) form.

    Attributes
    ----------
    grid_means:
        ``(n_grids,)`` nominal thickness per grid cell (``lambda_{i,0}``);
        uniform unless a wafer-level systematic pattern is applied.
    sensitivities:
        ``(n_grids, n_factors)`` matrix of sensitivities ``lambda_{i,j}``.
        Column 0 is the inter-die factor when the model is built by
        :func:`build_canonical_model`.
    sigma_independent:
        The per-device residual sigma (``lambda_r``).
    """

    grid_means: np.ndarray
    sensitivities: np.ndarray
    sigma_independent: float

    def __post_init__(self) -> None:
        grid_means = np.asarray(self.grid_means, dtype=float)
        sens = np.asarray(self.sensitivities, dtype=float)
        if grid_means.ndim != 1:
            raise ConfigurationError("grid_means must be a 1-D array")
        if sens.ndim != 2 or sens.shape[0] != grid_means.shape[0]:
            raise ConfigurationError(
                "sensitivities must be (n_grids, n_factors) matching grid_means"
            )
        if self.sigma_independent < 0.0:
            raise ConfigurationError("sigma_independent must be non-negative")
        # Freeze normalized copies (dataclass is frozen: use object.__setattr__).
        object.__setattr__(self, "grid_means", grid_means)
        object.__setattr__(self, "sensitivities", sens)

    @property
    def n_grids(self) -> int:
        """Number of spatial-correlation grid cells."""
        return self.grid_means.shape[0]

    @property
    def n_factors(self) -> int:
        """Number of independent standard-normal factors (``z`` variables)."""
        return self.sensitivities.shape[1]

    def base_thickness(self, z: np.ndarray) -> np.ndarray:
        """Per-grid deterministic part of thickness for factor draw ``z``.

        ``z`` may be ``(n_factors,)`` for one chip or ``(n_chips,
        n_factors)`` for a batch; the result is ``(n_grids,)`` or
        ``(n_chips, n_grids)`` accordingly. Per-device thickness is this
        base plus ``sigma_independent * eps``.
        """
        z = np.asarray(z, dtype=float)
        if z.shape[-1] != self.n_factors:
            raise ConfigurationError(
                f"expected {self.n_factors} factors, got shape {z.shape}"
            )
        return self.grid_means + z @ self.sensitivities.T

    def grid_covariance(self) -> np.ndarray:
        """Covariance of the per-grid base thickness (excludes residual)."""
        return self.sensitivities @ self.sensitivities.T

    def grid_sigma(self) -> np.ndarray:
        """Per-grid standard deviation of the base thickness."""
        return np.sqrt(np.einsum("ij,ij->i", self.sensitivities, self.sensitivities))

    def device_sigma(self) -> np.ndarray:
        """Per-grid total device-thickness standard deviation.

        Includes the independent residual: every device in grid ``i`` has
        thickness ``N(grid_means[i], device_sigma[i]^2)`` marginally.
        """
        return np.sqrt(self.grid_sigma() ** 2 + self.sigma_independent**2)


def validate_mean_offsets(
    mean_offsets: np.ndarray | None, n_grids: int
) -> np.ndarray | None:
    """``mean_offsets`` as a float array, checked for shape and finiteness.

    A wafer-level offset is added to a grid's nominal thickness, so a
    NaN or infinite cell would poison every block that spans it.
    """
    if mean_offsets is None:
        return None
    mean_offsets = np.asarray(mean_offsets, dtype=float)
    if mean_offsets.shape != (n_grids,):
        raise ConfigurationError(
            f"mean_offsets must have shape ({n_grids},), got {mean_offsets.shape}"
        )
    bad = np.flatnonzero(~np.isfinite(mean_offsets))
    if bad.size:
        cell = int(bad[0])
        raise ConfigurationError(
            f"mean_offsets must be finite; grid cell {cell} is "
            f"{mean_offsets[cell]}"
        )
    return mean_offsets


def build_canonical_model(
    budget: VariationBudget,
    correlation: SpatialCorrelationModel,
    energy: float = 0.9999,
    max_factors: int | None = None,
    mean_offsets: np.ndarray | None = None,
) -> CanonicalThicknessModel:
    """Build the canonical model from a budget and a correlation model.

    Parameters
    ----------
    budget:
        Magnitudes of the three variation components.
    correlation:
        Grid-based spatial correlation structure.
    energy:
        Keep the smallest set of principal components capturing at least
        this fraction of the spatial variance (PCA truncation). ``1.0``
        keeps every numerically nonzero component.
    max_factors:
        Optional hard cap on the number of *spatial* principal components
        (the inter-die factor is always kept).
    mean_offsets:
        Optional ``(n_grids,)`` deterministic per-grid mean offsets used to
        express a wafer-level systematic pattern (Sec. II, compatibility
        with [21]): replaces the uniform nominal with a location-dependent
        one.

    Returns
    -------
    CanonicalThicknessModel
        Factor 0 is the inter-die component; factors 1.. are the spatial
        principal components sorted by decreasing eigenvalue.
    """
    if not 0.0 < energy <= 1.0:
        raise ConfigurationError(f"energy must be in (0, 1], got {energy}")
    if max_factors is not None and max_factors < 0:
        raise ConfigurationError(f"max_factors must be >= 0, got {max_factors}")
    grid = correlation.grid
    n_grids = grid.n_cells
    mean_offsets = validate_mean_offsets(mean_offsets, n_grids)

    def _compute() -> dict[str, np.ndarray]:
        covariance = correlation.covariance_matrix(budget.sigma_spatial)
        with span("pca.eig", grids=n_grids):
            eigvals, eigvecs = np.linalg.eigh(covariance)
        # eigh returns ascending order; flip to descending.
        eigvals = eigvals[::-1]
        eigvecs = eigvecs[:, ::-1]
        eigvals = np.clip(eigvals, 0.0, None)

        total = float(eigvals.sum())
        if total <= 0.0:
            n_keep = 0
        else:
            cumulative = np.cumsum(eigvals) / total
            n_keep = int(np.searchsorted(cumulative, energy) + 1)
            n_keep = min(n_keep, n_grids)
        if max_factors is not None:
            n_keep = min(n_keep, max_factors)

        spatial_sens = eigvecs[:, :n_keep] * np.sqrt(eigvals[:n_keep])
        global_sens = np.full((n_grids, 1), budget.sigma_global)
        sensitivities = np.hstack([global_sens, spatial_sens])

        grid_means = np.full(n_grids, budget.nominal_thickness)
        if mean_offsets is not None:
            grid_means = grid_means + mean_offsets
        return {"grid_means": grid_means, "sensitivities": sensitivities}

    # The eigendecomposition dominates an analyzer build; memoize the
    # canonical model across processes keyed on its recipe. GridSpec and
    # SpatialCorrelationModel are frozen value types, so these fields
    # determine the covariance exactly (as in the correlation_matrix
    # key), and a hit never forms or reads the covariance.
    arrays = memoize_artifact(
        "canonical_model",
        {
            "nx": grid.nx,
            "ny": grid.ny,
            "width": grid.width,
            "height": grid.height,
            "rho_dist": correlation.rho_dist,
            "kernel": correlation.kernel,
            "sigma_spatial": budget.sigma_spatial,
            "sigma_global": budget.sigma_global,
            "sigma_independent": budget.sigma_independent,
            "nominal_thickness": budget.nominal_thickness,
            "energy": energy,
            "max_factors": max_factors,
            "mean_offsets": mean_offsets,
        },
        _compute,
        required=("grid_means", "sensitivities"),
    )
    metrics.gauge(
        "pca.spatial_factors", arrays["sensitivities"].shape[1] - 1
    )
    return CanonicalThicknessModel(
        grid_means=arrays["grid_means"],
        sensitivities=arrays["sensitivities"],
        sigma_independent=budget.sigma_independent,
    )


def explained_variance_ratio(
    budget: VariationBudget, correlation: SpatialCorrelationModel
) -> np.ndarray:
    """Sorted fraction of spatial variance captured by each component.

    A diagnostic for choosing the PCA truncation ``energy``: strongly
    correlated dies (large ``rho_dist``) need very few components.
    """
    covariance = correlation.covariance_matrix(budget.sigma_spatial)
    eigvals = np.linalg.eigvalsh(covariance)[::-1]
    eigvals = np.clip(eigvals, 0.0, None)
    total = eigvals.sum()
    if total <= 0.0:
        return np.zeros_like(eigvals)
    return eigvals / total
