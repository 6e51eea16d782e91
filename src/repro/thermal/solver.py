"""Sparse steady-state solver for the thermal grid.

Solves the per-cell energy balance

    sum_neighbours G_lat (T_nb - T_i) + G_v (T_amb - T_i) + P_i = 0

as one sparse SPD linear system. Die edges are adiabatic laterally (heat
leaves only through the package), the standard HotSpot assumption.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix

from repro.chip.geometry import GridSpec
from repro.errors import SolverError
from repro.obs import metrics
from repro.obs.trace import span
from repro.thermal.factor_cache import cached_factorization
from repro.thermal.grid import PackageModel


@dataclass(frozen=True)
class TemperatureField:
    """A solved temperature map on a thermal grid (values in celsius)."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        if values.shape != (self.grid.n_cells,):
            raise SolverError(
                f"expected {self.grid.n_cells} cell temperatures, "
                f"got shape {values.shape}"
            )
        object.__setattr__(self, "values", values)

    @property
    def max(self) -> float:
        """Hottest cell temperature."""
        return float(self.values.max())

    @property
    def min(self) -> float:
        """Coolest cell temperature."""
        return float(self.values.min())

    @property
    def spread(self) -> float:
        """Across-die temperature spread (hot spot minus coolest region)."""
        return self.max - self.min

    def as_image(self) -> np.ndarray:
        """The field as an ``(ny, nx)`` image for plotting."""
        return self.grid.field_to_image(self.values)

    def average_over(self, fractions: np.ndarray) -> float:
        """Area-weighted average temperature for a region.

        ``fractions`` is the per-cell overlap-fraction vector of the region
        (e.g. from :meth:`GridSpec.overlap_fractions`); it is renormalized
        internally.
        """
        fractions = np.asarray(fractions, dtype=float)
        total = fractions.sum()
        if total <= 0.0:
            raise SolverError("region does not overlap the thermal grid")
        return float(self.values @ fractions / total)


def _build_conductance_matrix(
    grid: GridSpec, package: PackageModel
) -> csr_matrix:
    """Assemble the sparse conductance (stiffness) matrix.

    Pure numpy index arithmetic: horizontal/vertical neighbour pairs come
    from slicing the row-major index grid, off-diagonals are emitted for
    both coupling directions, and the diagonal accumulates each cell's
    neighbour count via ``bincount`` — no per-cell Python loop.
    """
    g_x, g_y = package.lateral_conductance(grid)
    g_v = package.vertical_conductance(grid)
    nx, ny = grid.nx, grid.ny
    n = grid.n_cells

    index = np.arange(n).reshape(ny, nx)
    left = index[:, :-1].ravel()  # couples to the right neighbour (+1)
    below = index[:-1, :].ravel()  # couples to the upper neighbour (+nx)

    rows = np.concatenate([left, left + 1, below, below + nx])
    cols = np.concatenate([left + 1, left, below + nx, below])
    vals = np.concatenate(
        [
            np.full(2 * left.size, -g_x),
            np.full(2 * below.size, -g_y),
        ]
    )

    x_degree = np.bincount(np.concatenate([left, left + 1]), minlength=n)
    y_degree = np.bincount(np.concatenate([below, below + nx]), minlength=n)
    diag = g_v + g_x * x_degree + g_y * y_degree

    rows = np.concatenate([rows, np.arange(n)])
    cols = np.concatenate([cols, np.arange(n)])
    vals = np.concatenate([vals, diag])
    return csr_matrix((vals, (rows, cols)), shape=(n, n))


def conductance_solver(
    grid: GridSpec, package: PackageModel
) -> tuple[Callable[[np.ndarray], np.ndarray], bool]:
    """``(solve, hit)``: back-substitution through the conductance LU.

    The SPD conductance system is factored once per ``(grid, package)``
    and the factors are reused: every design of a sweep and every block
    model of one geometry hits the same key.  ``solve`` takes one
    right-hand side or a ``(cells, k)`` block of them; ``hit`` tells
    whether the factorization was reused.
    """
    return cached_factorization(
        grid, package, lambda: _build_conductance_matrix(grid, package)
    )


def solve_steady_state(
    grid: GridSpec,
    cell_power: np.ndarray,
    package: PackageModel,
) -> TemperatureField:
    """Solve for the steady-state temperature of every grid cell.

    Parameters
    ----------
    grid:
        Thermal mesh.
    cell_power:
        Power injected into each cell in watts (flat, row-major).
    package:
        Material/package constants.
    """
    cell_power = np.asarray(cell_power, dtype=float)
    if cell_power.shape != (grid.n_cells,):
        raise SolverError(
            f"expected {grid.n_cells} cell powers, got shape {cell_power.shape}"
        )
    if np.any(cell_power < 0.0):
        raise SolverError("cell powers must be non-negative")
    with span("thermal.solve", cells=grid.n_cells) as solve_span:
        g_v = package.vertical_conductance(grid)
        rhs = cell_power + g_v * package.ambient_temperature
        solve, hit = conductance_solver(grid, package)
        temperatures = solve(rhs)
        solve_span.set(factor_cache="hit" if hit else "miss")
        metrics.inc("thermal.solves")
    if not np.all(np.isfinite(temperatures)):
        raise SolverError("thermal solve produced non-finite temperatures")
    return TemperatureField(grid=grid, values=np.asarray(temperatures))
