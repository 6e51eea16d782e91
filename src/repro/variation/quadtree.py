"""Quad-tree spatial-correlation model (Agarwal et al. [24]).

An alternative to the grid-covariance model of Sec. II: the die is divided
into ``4^l`` regions at each level ``l = 0..levels-1`` and every region
carries an independent zero-mean normal variable. The spatial component of
a device is the sum of the region variables covering its location, so two
devices are more correlated the more tree levels they share — a coarse but
cheap approximation of distance-based correlation.

The model is expressed here directly in the canonical (factor) form of
eq. (2), which lets the entire downstream analysis (BLOD characterisation,
ensemble integration) run unchanged on either correlation model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.chip.geometry import GridSpec
from repro.errors import ConfigurationError
from repro.variation.components import VariationBudget
from repro.variation.pca import CanonicalThicknessModel, validate_mean_offsets


@dataclass(frozen=True)
class QuadTreeModel:
    """Quad-tree decomposition of the spatial variance.

    Parameters
    ----------
    levels:
        Number of tree levels; level ``l`` has ``4**l`` regions.
    level_variances:
        Variance assigned to each level (nm^2). Their sum is the total
        spatial variance of a device.
    """

    levels: int
    level_variances: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.levels < 1:
            raise ConfigurationError(f"need at least one level, got {self.levels}")
        if len(self.level_variances) != self.levels:
            raise ConfigurationError(
                f"expected {self.levels} level variances, got "
                f"{len(self.level_variances)}"
            )
        if any(v < 0.0 for v in self.level_variances):
            raise ConfigurationError("level variances must be non-negative")

    @classmethod
    def equal_split(cls, sigma_spatial: float, levels: int = 3) -> "QuadTreeModel":
        """Split the spatial variance equally across ``levels`` levels."""
        if levels < 1:
            raise ConfigurationError(f"need at least one level, got {levels}")
        variance = sigma_spatial**2 / levels
        return cls(levels=levels, level_variances=(variance,) * levels)

    @property
    def n_regions(self) -> int:
        """Total number of region variables across all levels."""
        return sum(4**level for level in range(self.levels))

    @property
    def total_variance(self) -> float:
        """Total spatial variance contributed by the tree."""
        return float(sum(self.level_variances))

    def region_of(self, level: int, fx: float, fy: float) -> int:
        """Region index at ``level`` for normalized die coordinates.

        ``fx``/``fy`` in [0, 1]; regions are indexed row-major within a
        level.
        """
        if not 0 <= level < self.levels:
            raise ConfigurationError(f"level {level} out of range")
        side = 2**level
        col = min(int(fx * side), side - 1)
        row = min(int(fy * side), side - 1)
        return row * side + col

    def sensitivities(self, grid: GridSpec) -> np.ndarray:
        """``(n_cells, n_regions)`` factor-sensitivity matrix.

        Each grid cell is assigned (by its centre) one region per level;
        the sensitivity to that region's variable is the level's sigma.
        """
        centers = grid.cell_centers()
        fx = centers[:, 0] / grid.width
        fy = centers[:, 1] / grid.height
        matrix = np.zeros((grid.n_cells, self.n_regions))
        offset = 0
        for level, variance in enumerate(self.level_variances):
            sigma = np.sqrt(variance)
            for cell in range(grid.n_cells):
                region = self.region_of(level, fx[cell], fy[cell])
                matrix[cell, offset + region] = sigma
            offset += 4**level
        return matrix

    def covariance(self, grid: GridSpec) -> np.ndarray:
        """Equivalent per-grid spatial covariance implied by the tree."""
        sens = self.sensitivities(grid)
        return sens @ sens.T


def build_quadtree_model(
    budget: VariationBudget,
    grid: GridSpec,
    levels: int = 3,
    mean_offsets: np.ndarray | None = None,
) -> CanonicalThicknessModel:
    """Canonical thickness model using a quad-tree spatial structure.

    The inter-die component is factor 0 (as in
    :func:`repro.variation.pca.build_canonical_model`); the quad-tree region
    variables follow. The independent residual keeps the budget's sigma.
    """
    tree = QuadTreeModel.equal_split(budget.sigma_spatial, levels=levels)
    spatial_sens = tree.sensitivities(grid)
    global_sens = np.full((grid.n_cells, 1), budget.sigma_global)
    sensitivities = np.hstack([global_sens, spatial_sens])
    grid_means = np.full(grid.n_cells, budget.nominal_thickness)
    mean_offsets = validate_mean_offsets(mean_offsets, grid.n_cells)
    if mean_offsets is not None:
        grid_means = grid_means + mean_offsets
    return CanonicalThicknessModel(
        grid_means=grid_means,
        sensitivities=sensitivities,
        sigma_independent=budget.sigma_independent,
    )
