"""Tests for :meth:`HotSpotLite.block_model` and its geometry cache."""

from dataclasses import replace

import numpy as np
import pytest

from repro import obs
from repro.chip.benchmarks import make_alpha_processor
from repro.chip.geometry import Rect
from repro.power.activity import ActivityProfile
from repro.power.loop import solve_power_thermal
from repro.thermal.factor_cache import clear_factor_cache
from repro.thermal.grid import PackageModel
from repro.thermal.hotspot import HotSpotLite


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_factor_cache()
    yield
    clear_factor_cache()


@pytest.fixture(scope="module")
def alpha():
    return make_alpha_processor()


def _counters(action):
    obs.reset()
    with obs.enabled():
        action()
        counters = obs.metrics_snapshot()["counters"]
    obs.reset()
    return counters


def _block_model_counts(action):
    counters = _counters(action)
    return tuple(
        counters.get(f"thermal.block_model.{kind}", 0.0) for kind in ("hit", "miss")
    )


def _narrow(floorplan, x):
    """``floorplan`` with its first block narrowed to a unit square at ``x``."""
    first = replace(floorplan.blocks[0], rect=Rect(x, 0.0, 1.0, 1.0))
    return replace(floorplan, blocks=(first, *floorplan.blocks[1:]))


class TestModel:
    def test_arrays_are_read_only(self, alpha):
        response, offset = HotSpotLite().block_model(alpha)
        assert response.shape == (alpha.n_blocks, alpha.n_blocks)
        assert offset.shape == (alpha.n_blocks,)
        assert not response.flags.writeable
        assert not offset.flags.writeable
        with pytest.raises(ValueError):
            response[0, 0] = 0.0

    def test_offset_is_the_ambient(self, alpha):
        model = HotSpotLite(PackageModel(ambient_temperature=52.5))
        _response, offset = model.block_model(alpha)
        np.testing.assert_allclose(offset, 52.5, rtol=0.0, atol=1e-9)

    def test_response_is_symmetric_and_positive(self, alpha):
        response, _offset = HotSpotLite().block_model(alpha)
        np.testing.assert_allclose(response, response.T, rtol=1e-12, atol=0.0)
        assert np.all(response > 0.0)
        # A block heats itself more than it heats any other block.
        assert np.all(np.diag(response) == response.max(axis=1))

    def test_matches_mesh_analysis(self, alpha, rng):
        model = HotSpotLite()
        response, offset = model.block_model(alpha)
        for _ in range(5):
            powers = rng.uniform(0.0, 4.0, alpha.n_blocks)
            expected = model.analyze(alpha, block_powers=powers).block_temperatures
            np.testing.assert_allclose(
                response @ powers + offset, expected, rtol=0.0, atol=1e-9
            )


class TestCacheKey:
    def test_new_powers_hit(self, tiny_floorplan):
        model = HotSpotLite(mesh_resolution=16)

        def lookups():
            model.block_model(tiny_floorplan)
            model.block_model(tiny_floorplan.with_powers({"hot": 9.0}))
            HotSpotLite(mesh_resolution=16).block_model(tiny_floorplan)

        assert _block_model_counts(lookups) == (2.0, 1.0)

    def test_same_arrays_on_a_hit(self, tiny_floorplan):
        model = HotSpotLite(mesh_resolution=16)
        first = model.block_model(tiny_floorplan)
        second = model.block_model(tiny_floorplan.with_powers({"cool": 1.0}))
        assert first[0] is second[0] and first[1] is second[1]

    def test_moving_a_block_misses(self, tiny_floorplan):
        model = HotSpotLite(mesh_resolution=16)

        def lookups():
            model.block_model(_narrow(tiny_floorplan, 0.0))
            model.block_model(_narrow(tiny_floorplan, 0.5))

        assert _block_model_counts(lookups) == (0.0, 2.0)

    def test_package_misses(self, tiny_floorplan):
        def lookups():
            HotSpotLite(mesh_resolution=16).block_model(tiny_floorplan)
            HotSpotLite(
                PackageModel(ambient_temperature=60.0), mesh_resolution=16
            ).block_model(tiny_floorplan)

        assert _block_model_counts(lookups) == (0.0, 2.0)

    def test_mesh_resolution_misses(self, tiny_floorplan):
        def lookups():
            HotSpotLite(mesh_resolution=16).block_model(tiny_floorplan)
            HotSpotLite(mesh_resolution=20).block_model(tiny_floorplan)

        assert _block_model_counts(lookups) == (0.0, 2.0)

    def test_clear_drops_the_model(self, tiny_floorplan):
        model = HotSpotLite(mesh_resolution=16)
        model.block_model(tiny_floorplan)
        clear_factor_cache()
        assert _block_model_counts(
            lambda: model.block_model(tiny_floorplan)
        ) == (0.0, 1.0)


class TestLazyField:
    def test_thermal_is_solved_once_on_first_read(self, alpha):
        profile = ActivityProfile.preset("typical", alpha)
        solution = solve_power_thermal(alpha, profile)

        def read_twice():
            first = solution.thermal
            assert solution.thermal is first

        counters = _counters(read_twice)
        assert counters["thermal.solves"] == 1.0
        assert _block_model_counts(lambda: solution.thermal) == (0.0, 0.0)

    def test_thermal_equals_a_fresh_analysis(self, alpha):
        profile = ActivityProfile.preset("fp_heavy", alpha)
        solution = solve_power_thermal(alpha, profile)
        expected = HotSpotLite().analyze(solution.floorplan)
        assert np.array_equal(solution.thermal.field.values, expected.field.values)
        assert np.array_equal(
            solution.thermal.block_temperatures, expected.block_temperatures
        )
        np.testing.assert_allclose(
            solution.thermal.block_temperatures,
            solution.block_temperatures,
            rtol=0.0,
            atol=1e-9,
        )

    def test_thermal_uses_the_loop_model(self, tiny_floorplan):
        model = HotSpotLite(PackageModel(ambient_temperature=30.0), mesh_resolution=16)
        profile = ActivityProfile.preset("typical", tiny_floorplan)
        solution = solve_power_thermal(tiny_floorplan, profile, thermal_model=model)
        assert solution.thermal.field.grid == model.mesh_for(tiny_floorplan)
        np.testing.assert_allclose(
            solution.thermal.block_temperatures,
            solution.block_temperatures,
            rtol=0.0,
            atol=1e-9,
        )
