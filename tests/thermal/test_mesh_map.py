"""Tests for the block→mesh map cache behind :meth:`HotSpotLite.analyze`."""

import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from repro import obs
from repro.chip.benchmarks import make_benchmark
from repro.chip.floorplan import Floorplan
from repro.chip.geometry import Rect
from repro.errors import ConfigurationError
from repro.kernels import use_fast_paths
from repro.thermal.factor_cache import (
    _MAX_MAP_ENTRIES,
    clear_factor_cache,
    factor_cache_stats,
    mesh_map_stats,
)
from repro.thermal.hotspot import HotSpotLite


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_factor_cache()
    yield
    clear_factor_cache()


@pytest.fixture()
def hotspot():
    return HotSpotLite(mesh_resolution=16)


def _moved(floorplan, dx):
    """``floorplan`` with its first block shifted right by ``dx``."""
    first = floorplan.blocks[0]
    rect = first.rect
    moved = replace(first, rect=Rect(rect.x + dx, rect.y, rect.width, rect.height))
    return replace(floorplan, blocks=(moved, *floorplan.blocks[1:]))


class TestCacheKey:
    def test_same_geometry_different_powers_hits(self, hotspot, tiny_floorplan):
        hotspot.analyze(tiny_floorplan)
        hotspot.analyze(tiny_floorplan.with_powers({"hot": 9.0}))
        hotspot.analyze(tiny_floorplan, block_powers=np.array([0.5, 0.25]))
        assert mesh_map_stats() == {"hits": 2, "misses": 1, "entries": 1}

    def test_moving_one_block_misses(self, hotspot, tiny_floorplan):
        narrow = Floorplan(
            width=tiny_floorplan.width,
            height=tiny_floorplan.height,
            blocks=(
                replace(
                    tiny_floorplan.blocks[0],
                    rect=Rect(0.0, 0.0, 1.0, 1.0),
                ),
                *tiny_floorplan.blocks[1:],
            ),
        )
        hotspot.analyze(narrow)
        hotspot.analyze(_moved(narrow, 0.5))
        assert mesh_map_stats()["misses"] == 2

    def test_mesh_resolution_misses(self, tiny_floorplan):
        HotSpotLite(mesh_resolution=16).analyze(tiny_floorplan)
        HotSpotLite(mesh_resolution=20).analyze(tiny_floorplan)
        assert mesh_map_stats()["misses"] == 2

    def test_die_change_misses(self, hotspot, tiny_floorplan):
        wider = replace(tiny_floorplan, width=tiny_floorplan.width + 1.0)
        hotspot.analyze(tiny_floorplan)
        hotspot.analyze(wider)
        assert mesh_map_stats()["misses"] == 2

    def test_entry_count_stays_at_bound(self, tiny_floorplan):
        for n in range(_MAX_MAP_ENTRIES + 3):
            HotSpotLite(mesh_resolution=8 + n).analyze(tiny_floorplan)
        stats = mesh_map_stats()
        assert stats["entries"] == _MAX_MAP_ENTRIES
        assert stats["misses"] == _MAX_MAP_ENTRIES + 3


class TestCachedArrays:
    def test_read_only(self, hotspot, tiny_floorplan):
        mesh = hotspot.mesh_for(tiny_floorplan)
        fractions, totals = hotspot.mesh_map(tiny_floorplan, mesh)
        with pytest.raises(ValueError):
            fractions[0, 0] = 1.0
        with pytest.raises(ValueError):
            totals[0] = 1.0
        # A later analysis still works on the shared arrays.
        hotspot.analyze(tiny_floorplan)

    def test_rows_are_the_overlap_fractions(self, hotspot, tiny_floorplan):
        mesh = hotspot.mesh_for(tiny_floorplan)
        fractions, totals = hotspot.mesh_map(tiny_floorplan, mesh)
        for j, block in enumerate(tiny_floorplan.blocks):
            expected = mesh.overlap_fractions(block.rect)
            assert np.array_equal(fractions[j], expected)
            assert totals[j] == expected.sum()


class TestReferenceMode:
    def test_cache_not_consulted(self, hotspot, tiny_floorplan):
        mesh = hotspot.mesh_for(tiny_floorplan)
        with use_fast_paths(False):
            reference = hotspot.analyze(tiny_floorplan)
            hotspot.analyze(tiny_floorplan)
            uncached, uncached_totals = hotspot.mesh_map(tiny_floorplan, mesh)
            assert uncached.flags.writeable
        assert mesh_map_stats() == {"hits": 0, "misses": 0, "entries": 0}
        cached, cached_totals = hotspot.mesh_map(tiny_floorplan, mesh)
        assert np.array_equal(cached, uncached)
        assert np.array_equal(cached_totals, uncached_totals)
        # The solves differ (cached LU vs spsolve) only by round-off.
        fast = hotspot.analyze(tiny_floorplan)
        np.testing.assert_allclose(
            fast.block_temperatures, reference.block_temperatures, rtol=1e-12
        )


class TestPowerVector:
    def test_matches_rebuilt_floorplan(self, hotspot):
        floorplan = make_benchmark("C1")
        powers = np.linspace(0.5, 3.0, floorplan.n_blocks)
        rebuilt = floorplan.with_powers(
            dict(zip(floorplan.block_names, powers.tolist(), strict=True))
        )
        by_vector = hotspot.analyze(floorplan, block_powers=powers)
        by_floorplan = hotspot.analyze(rebuilt)
        assert np.array_equal(by_vector.field.values, by_floorplan.field.values)
        assert np.array_equal(
            by_vector.block_temperatures, by_floorplan.block_temperatures
        )

    def test_span_reports_solved_powers(self, hotspot, tiny_floorplan):
        obs.reset()
        with obs.enabled():
            hotspot.analyze(tiny_floorplan, block_powers=np.array([1.25, 2.5]))
            (root,) = obs.trace_snapshot()
        obs.reset()
        assert root["name"] == "thermal.hotspot"
        assert root["attrs"]["power_w"] == 3.75

    @pytest.mark.parametrize(
        "powers",
        [np.array([1.0]), np.array([1.0, np.nan]), np.array([1.0, np.inf]),
         np.array([1.0, -0.5])],
    )
    def test_rejects_bad_vectors(self, hotspot, tiny_floorplan, powers):
        with pytest.raises(ConfigurationError):
            hotspot.analyze(tiny_floorplan, block_powers=powers)


def test_concurrent_analyses_share_one_entry(hotspot):
    floorplan = make_benchmark("C1")
    vectors = [
        np.linspace(0.5, 1.0 + k, floorplan.n_blocks) for k in range(32)
    ]
    serial = [hotspot.analyze(floorplan, block_powers=v) for v in vectors]
    clear_factor_cache()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            threaded = list(
                pool.map(
                    lambda v: hotspot.analyze(floorplan, block_powers=v),
                    vectors,
                    timeout=60,
                )
            )
    finally:
        sys.setswitchinterval(interval)
    for a, b in zip(serial, threaded, strict=True):
        assert np.array_equal(a.block_temperatures, b.block_temperatures)
    stats = mesh_map_stats()
    assert stats["entries"] == 1
    # A lost counter update would break the lookup accounting.
    assert stats["hits"] + stats["misses"] == len(vectors)


def test_clear_factor_cache_drops_maps_and_keeps_stat_keys(hotspot, tiny_floorplan):
    hotspot.analyze(tiny_floorplan)
    clear_factor_cache()
    assert mesh_map_stats() == {"hits": 0, "misses": 0, "entries": 0}
    assert factor_cache_stats() == {"hits": 0, "misses": 0, "entries": 0}
