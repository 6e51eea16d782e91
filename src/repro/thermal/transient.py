"""Transient thermal simulation (implicit-Euler time stepping).

Complements the steady-state solver: workloads change on millisecond-to-
second scales, and reliability management wants the temperature *history*
a power schedule produces. The per-cell heat capacity turns the
steady-state conductance system into

    C dT/dt = -G T + P(t) + G_v T_amb

integrated here with unconditionally stable backward Euler. Because the
thermal time constants (milliseconds) are tiny compared to OBD time scales
(years), the scenario engine consumes the per-phase *steady
states*; the transient solver exists to verify that separation (phases
reach steady state quickly) and to study short thermal transients.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix, identity
from scipy.sparse.linalg import factorized

from repro.chip.geometry import GridSpec
from repro.errors import ConfigurationError, SolverError
from repro.thermal.grid import PackageModel
from repro.thermal.solver import TemperatureField, _build_conductance_matrix

#: Volumetric heat capacity of silicon, J/(mm^3 K).
SILICON_HEAT_CAPACITY = 1.63e-3


@dataclass(frozen=True)
class TransientResult:
    """A transient thermal trace.

    Attributes
    ----------
    times:
        Sample times in seconds (including t = 0).
    fields:
        ``(n_times, n_cells)`` cell temperatures in celsius.
    grid:
        The thermal mesh.
    """

    times: np.ndarray
    fields: np.ndarray
    grid: GridSpec

    def field_at(self, index: int) -> TemperatureField:
        """The temperature field at one time sample."""
        return TemperatureField(grid=self.grid, values=self.fields[index])

    def cell_trace(self, cell: int) -> np.ndarray:
        """Temperature history of one cell."""
        return self.fields[:, cell]

    def max_trace(self) -> np.ndarray:
        """Hottest-cell temperature at each sample."""
        return self.fields.max(axis=1)

    def settled(self, tolerance: float = 0.1) -> bool:
        """Whether the trace has reached steady state (last step moves
        less than ``tolerance`` celsius anywhere)."""
        if len(self.times) < 2:
            return False
        return bool(
            np.max(np.abs(self.fields[-1] - self.fields[-2])) < tolerance
        )


class TransientSolver:
    """Backward-Euler transient integrator on the thermal mesh.

    Parameters
    ----------
    grid:
        Thermal mesh.
    package:
        Material/package constants (shared with the steady-state solver).
    heat_capacity:
        Volumetric heat capacity in J/(mm^3 K).
    """

    def __init__(
        self,
        grid: GridSpec,
        package: PackageModel | None = None,
        heat_capacity: float = SILICON_HEAT_CAPACITY,
    ) -> None:
        if heat_capacity <= 0.0:
            raise ConfigurationError("heat capacity must be positive")
        self.grid = grid
        self.package = package if package is not None else PackageModel()
        cell_volume = (
            grid.cell_width * grid.cell_height * self.package.die_thickness
        )
        self.cell_capacity = heat_capacity * cell_volume
        self.conductance = _build_conductance_matrix(grid, self.package)
        self._solver_cache: dict[float, Callable[[np.ndarray], np.ndarray]] = {}

    @property
    def time_constant(self) -> float:
        """Fastest thermal time constant in seconds.

        The lumped per-cell RC: capacity over total cell conductance — a
        lower bound on any mode; use it to choose ``dt``.
        """
        g_total = self.conductance.diagonal().mean()
        return float(self.cell_capacity / g_total)

    @property
    def slowest_time_constant(self) -> float:
        """Slowest thermal time constant in seconds.

        The uniform (die-average) mode sees only the vertical package
        path: ``tau = C_cell / G_v`` — use it to choose the settling
        duration.
        """
        g_v = self.package.vertical_conductance(self.grid)
        return float(self.cell_capacity / g_v)

    def _step_solver(self, dt: float) -> Callable[[np.ndarray], np.ndarray]:
        solver = self._solver_cache.get(dt)
        if solver is None:
            n = self.grid.n_cells
            system = (
                identity(n, format="csr") * (self.cell_capacity / dt)
                + self.conductance
            )
            solver = factorized(csr_matrix(system).tocsc())
            self._solver_cache[dt] = solver
        return solver

    def simulate(
        self,
        cell_power: np.ndarray | None,
        duration: float,
        dt: float,
        initial: np.ndarray | float | None = None,
        power_schedule: Callable[[float], np.ndarray] | None = None,
    ) -> TransientResult:
        """Integrate the thermal state over ``duration`` seconds.

        Parameters
        ----------
        cell_power:
            Constant per-cell power (W); ignored when ``power_schedule``
            is given.
        duration, dt:
            Total time and step size in seconds.
        initial:
            Initial temperature field (celsius): an array, a scalar, or
            ``None`` for ambient.
        power_schedule:
            Optional callable ``t -> (n_cells,) watts`` evaluated at the
            *end* of each step (backward Euler).
        """
        if duration <= 0.0 or dt <= 0.0:
            raise ConfigurationError("duration and dt must be positive")
        if dt > duration:
            raise ConfigurationError("dt must not exceed the duration")
        n = self.grid.n_cells
        if initial is None:
            state = np.full(n, self.package.ambient_temperature)
        else:
            initial_arr = np.asarray(initial, dtype=float)
            state = (
                np.full(n, float(initial_arr))
                if initial_arr.ndim == 0
                else initial_arr.copy()
            )
            if state.shape != (n,):
                raise SolverError(
                    f"initial field must have {n} cells, got {state.shape}"
                )
        if power_schedule is None:
            if cell_power is None:
                raise ConfigurationError(
                    "provide cell_power or a power_schedule"
                )
            cell_power = np.asarray(cell_power, dtype=float)
            if cell_power.shape != (n,):
                raise SolverError(
                    f"cell power must have {n} entries, got {cell_power.shape}"
                )
            power_schedule = lambda _t: cell_power  # noqa: E731

        g_v = self.package.vertical_conductance(self.grid)
        ambient_term = g_v * self.package.ambient_temperature
        solve = self._step_solver(dt)
        n_steps = int(np.ceil(duration / dt))
        times = [0.0]
        fields = [state.copy()]
        t = 0.0
        for _ in range(n_steps):
            t += dt
            power = np.asarray(power_schedule(t), dtype=float)
            if power.shape != (n,):
                raise SolverError("power schedule returned a wrong shape")
            rhs = (self.cell_capacity / dt) * state + power + ambient_term
            state = solve(rhs)
            times.append(t)
            fields.append(state.copy())
        return TransientResult(
            times=np.asarray(times),
            fields=np.asarray(fields),
            grid=self.grid,
        )

    def steady_state(self, cell_power: np.ndarray) -> TemperatureField:
        """The t -> infinity solution (delegates to the static solver)."""
        from repro.thermal.solver import solve_steady_state

        return solve_steady_state(self.grid, cell_power, self.package)
