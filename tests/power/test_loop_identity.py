"""The power-vector fixed point reproduces the floorplan-rebuilding loop
bit for bit.

:func:`_rebuilding_loop` is the loop as it was before it iterated on
power vectors: it rebuilds the floorplan with ``with_powers`` every
iteration and rasterizes every block onto the mesh twice (uncached), once
to spread power and once to average the solved field.  The production
loop must agree with it exactly — iteration count, converged powers,
block temperatures and the cell-level field.
"""

import numpy as np
import pytest

from repro.chip.benchmarks import make_benchmark, make_manycore
from repro.errors import SolverError
from repro.power.activity import ActivityProfile, available_presets
from repro.power.loop import solve_power_thermal
from repro.power.model import BlockPowerModel
from repro.thermal.factor_cache import clear_factor_cache
from repro.thermal.hotspot import HotSpotLite
from repro.thermal.solver import solve_steady_state


def _rebuilding_analyze(model, floorplan):
    mesh = model.mesh_for(floorplan)
    cell_power = np.zeros(mesh.n_cells)
    for block in floorplan.blocks:
        fractions = mesh.overlap_fractions(block.rect)
        cell_power += block.power * fractions / fractions.sum()
    field = solve_steady_state(mesh, cell_power, model.package)
    temps = np.array(
        [
            field.average_over(mesh.overlap_fractions(block.rect))
            for block in floorplan.blocks
        ]
    )
    return field, temps


def _rebuilding_loop(floorplan, profile, max_iterations=25, tolerance=0.05):
    power_model = BlockPowerModel()
    thermal_model = HotSpotLite()
    temperatures = np.full(
        floorplan.n_blocks, thermal_model.package.ambient_temperature
    )
    for iteration in range(1, max_iterations + 1):
        powers = power_model.floorplan_powers(floorplan, profile, temperatures)
        current = floorplan.with_powers(powers)
        field, block_temps = _rebuilding_analyze(thermal_model, current)
        change = float(np.max(np.abs(block_temps - temperatures)))
        temperatures = block_temps
        if change <= tolerance:
            return current, field, block_temps, iteration
    raise SolverError("rebuilding loop did not converge")


@pytest.mark.parametrize(
    "design", ["C1", "C2", "C3", "C4", "C5", "C6", "manycore"]
)
def test_power_vector_loop_is_bit_identical(design):
    floorplan = make_manycore() if design == "manycore" else make_benchmark(design)
    clear_factor_cache()  # the first solve builds the block→mesh map
    for preset in available_presets():
        profile = ActivityProfile.preset(preset, floorplan)
        expected_fp, expected_field, expected_temps, expected_iterations = (
            _rebuilding_loop(floorplan, profile)
        )
        # Twice: the second solve is always served from the warm map.
        for _ in range(2):
            solution = solve_power_thermal(floorplan, profile)
            assert solution.iterations == expected_iterations, preset
            assert solution.floorplan == expected_fp, preset
            assert np.array_equal(
                [b.power for b in solution.floorplan.blocks],
                [b.power for b in expected_fp.blocks],
            ), preset
            assert np.array_equal(
                solution.block_temperatures, expected_temps
            ), preset
            assert np.array_equal(
                solution.thermal.field.values, expected_field.values
            ), preset
