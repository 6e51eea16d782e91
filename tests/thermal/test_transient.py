"""Unit tests for the transient thermal solver."""

import numpy as np
import pytest

from repro.chip.geometry import GridSpec
from repro.errors import ConfigurationError, SolverError
from repro.thermal.grid import PackageModel
from repro.thermal.transient import TransientSolver


@pytest.fixture()
def grid():
    return GridSpec(nx=8, ny=8, width=4.0, height=4.0)


@pytest.fixture()
def solver(grid):
    return TransientSolver(grid, PackageModel(ambient_temperature=45.0))


class TestTransientSolver:
    def test_zero_power_stays_at_ambient(self, solver, grid):
        result = solver.simulate(
            np.zeros(grid.n_cells), duration=0.1, dt=0.01
        )
        np.testing.assert_allclose(result.fields, 45.0, atol=1e-9)

    def test_converges_to_steady_state(self, solver, grid, rng):
        power = rng.uniform(0.0, 0.3, size=grid.n_cells)
        tau = solver.slowest_time_constant
        result = solver.simulate(power, duration=15.0 * tau, dt=tau / 4.0)
        steady = solver.steady_state(power)
        np.testing.assert_allclose(
            result.fields[-1], steady.values, atol=0.05
        )
        assert result.settled(tolerance=0.1)

    def test_monotone_heating_from_ambient(self, solver, grid):
        power = np.zeros(grid.n_cells)
        power[grid.cell_of_point(2.0, 2.0)] = 1.0
        result = solver.simulate(power, duration=1.0, dt=0.05)
        hottest = result.max_trace()
        assert np.all(np.diff(hottest) >= -1e-9)

    def test_cooldown_from_hot_start(self, solver, grid):
        result = solver.simulate(
            np.zeros(grid.n_cells), duration=1.0, dt=0.05, initial=100.0
        )
        hottest = result.max_trace()
        assert np.all(np.diff(hottest) <= 1e-9)
        assert hottest[-1] < 100.0

    def test_time_constant_separation_from_obd_scales(self, solver):
        # The premise of using per-phase steady states in scenario
        # analysis: thermal settling is sub-second, OBD scales are years.
        assert solver.time_constant < solver.slowest_time_constant
        assert solver.slowest_time_constant < 1.0

    def test_step_change_power_schedule(self, solver, grid):
        low = np.full(grid.n_cells, 0.005)
        high = np.full(grid.n_cells, 0.05)
        tau = solver.slowest_time_constant

        def schedule(t):
            return high if t > 10.0 * tau else low

        result = solver.simulate(
            None, duration=20.0 * tau, dt=tau / 4.0, power_schedule=schedule
        )
        mid = np.searchsorted(result.times, 10.0 * tau)
        assert result.max_trace()[-1] > result.max_trace()[mid] + 0.5

    def test_energy_balance_at_steady_state(self, solver, grid):
        power = np.full(grid.n_cells, 0.02)
        tau = solver.slowest_time_constant
        result = solver.simulate(power, duration=20.0 * tau, dt=tau / 2.0)
        g_v = solver.package.vertical_conductance(grid)
        heat_out = g_v * np.sum(
            result.fields[-1] - solver.package.ambient_temperature
        )
        assert heat_out == pytest.approx(power.sum(), rel=1e-3)

    def test_validation(self, solver, grid):
        with pytest.raises(ConfigurationError):
            solver.simulate(np.zeros(grid.n_cells), duration=0.0, dt=0.1)
        with pytest.raises(ConfigurationError):
            solver.simulate(np.zeros(grid.n_cells), duration=1.0, dt=2.0)
        with pytest.raises(ConfigurationError):
            solver.simulate(None, duration=1.0, dt=0.1)
        with pytest.raises(SolverError):
            solver.simulate(np.zeros(3), duration=1.0, dt=0.1)
        with pytest.raises(SolverError):
            solver.simulate(
                np.zeros(grid.n_cells),
                duration=1.0,
                dt=0.1,
                initial=np.zeros(5),
            )

    def test_field_accessors(self, solver, grid):
        result = solver.simulate(
            np.zeros(grid.n_cells), duration=0.2, dt=0.1
        )
        field = result.field_at(0)
        assert field.values.shape == (grid.n_cells,)
        assert result.cell_trace(0).shape == result.times.shape
