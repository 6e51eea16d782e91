"""The block-model fixed point against two floorplan-rebuilding loops.

Both oracles rebuild the floorplan with ``with_powers`` every iteration
and rasterize every block onto the mesh afresh (uncached):

- :func:`_rebuilding_loop` solves the mesh every iteration and averages
  the field per block, as the loop did before it iterated on the block
  model.  It agrees with production within stated bounds: the same
  iteration count, block temperatures and fields within 1e-9 degC, and
  converged powers within rtol 1e-12.
- :func:`_rebuilding_block_loop` iterates on a block model it builds
  itself from the uncached rasterization.  Production must agree with
  it bit for bit: neither the cached block model, nor the vector power
  formula, nor iterating on power vectors changes a float.

Both compute block powers with the scalar per-block formula of
:func:`tests.oracles.block_powers`, not with the production model.
"""

import numpy as np
import pytest

from repro.chip.benchmarks import make_alpha_processor, make_benchmark, make_manycore
from repro.errors import SolverError
from repro.power.activity import ActivityProfile, available_presets
from repro.power.loop import solve_power_thermal
from repro.power.model import PowerModelParams
from repro.thermal.factor_cache import clear_factor_cache
from repro.thermal.hotspot import HotSpotLite
from repro.thermal.solver import conductance_solver, solve_steady_state
from tests import oracles

DESIGNS = ["C1", "C2", "C3", "C4", "C5", "C6", "manycore", "alpha"]

#: Bounds of the block model against mesh solves.
TEMPERATURE_ATOL = 1e-9
POWER_RTOL = 1e-12


def _floorplan(design):
    if design == "manycore":
        return make_manycore()
    if design == "alpha":
        return make_alpha_processor()
    return make_benchmark(design)


def _profiles(floorplan, n_random=10, seed=19):
    """Every preset plus ``n_random`` seeded random activity profiles."""
    profiles = [
        ActivityProfile.preset(preset, floorplan) for preset in available_presets()
    ]
    rng = np.random.default_rng(seed)
    for i in range(n_random):
        factors = rng.uniform(0.05, 0.95, floorplan.n_blocks)
        profiles.append(
            ActivityProfile(
                name=f"random-{i}",
                factors=dict(zip(floorplan.block_names, factors, strict=True)),
            )
        )
    return profiles


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


def _rebuilding_block_temperatures(model, floorplan):
    mesh = model.mesh_for(floorplan)
    rows = [mesh.overlap_fractions(block.rect) for block in floorplan.blocks]
    weights = np.array(rows) / np.array([row.sum() for row in rows])[:, None]
    solve, _hit = conductance_solver(mesh, model.package)
    ambient = np.full(
        mesh.n_cells,
        model.package.vertical_conductance(mesh) * model.package.ambient_temperature,
    )
    powers = np.array([block.power for block in floorplan.blocks])
    return weights @ solve(weights.T) @ powers + weights @ solve(ambient)


def _loop(floorplan, profile, block_temperatures, max_iterations=25, tolerance=0.05):
    params = PowerModelParams()
    thermal_model = HotSpotLite()
    temperatures = np.full(
        floorplan.n_blocks, thermal_model.package.ambient_temperature
    )
    for iteration in range(1, max_iterations + 1):
        powers = oracles.block_powers(params, floorplan, profile, temperatures)
        current = floorplan.with_powers(powers)
        block_temps = block_temperatures(thermal_model, current)
        change = float(np.max(np.abs(block_temps - temperatures)))
        temperatures = block_temps
        if change <= tolerance:
            field, _ = _rebuilding_analyze(thermal_model, current)
            return current, field, block_temps, iteration
    raise SolverError("rebuilding loop did not converge")


def _rebuilding_loop(floorplan, profile):
    return _loop(
        floorplan,
        profile,
        lambda model, current: _rebuilding_analyze(model, current)[1],
    )


def _rebuilding_block_loop(floorplan, profile):
    return _loop(floorplan, profile, _rebuilding_block_temperatures)


def _powers(floorplan):
    return np.array([block.power for block in floorplan.blocks])


@pytest.mark.parametrize("design", DESIGNS)
def test_block_model_loop_matches_mesh_oracle(design):
    floorplan = _floorplan(design)
    for profile in _profiles(floorplan):
        expected_fp, expected_field, expected_temps, expected_iterations = (
            _rebuilding_loop(floorplan, profile)
        )
        solution = solve_power_thermal(floorplan, profile)
        assert solution.iterations == expected_iterations, profile.name
        np.testing.assert_allclose(
            _powers(solution.floorplan),
            _powers(expected_fp),
            rtol=POWER_RTOL,
            atol=0.0,
            err_msg=profile.name,
        )
        np.testing.assert_allclose(
            solution.block_temperatures,
            expected_temps,
            rtol=0.0,
            atol=TEMPERATURE_ATOL,
            err_msg=profile.name,
        )
        np.testing.assert_allclose(
            solution.thermal.field.values,
            expected_field.values,
            rtol=0.0,
            atol=TEMPERATURE_ATOL,
            err_msg=profile.name,
        )


@pytest.mark.parametrize("design", DESIGNS)
def test_power_vector_loop_is_bit_identical(design):
    floorplan = _floorplan(design)
    clear_factor_cache()  # the first solve builds the block model
    for profile in _profiles(floorplan, n_random=5):
        name = profile.name
        expected_fp, expected_field, expected_temps, expected_iterations = (
            _rebuilding_block_loop(floorplan, profile)
        )
        # Twice: the second solve is always served from the warm model.
        for _ in range(2):
            solution = solve_power_thermal(floorplan, profile)
            assert solution.iterations == expected_iterations, name
            assert np.array_equal(solution.block_powers, _powers(expected_fp)), name
            assert not solution.block_powers.flags.writeable
            assert np.array_equal(
                solution.block_temperatures, expected_temps
            ), name
            assert solution.floorplan == expected_fp, name
            assert np.array_equal(
                solution.thermal.field.values, expected_field.values
            ), name
