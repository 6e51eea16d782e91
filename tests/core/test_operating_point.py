"""One design model, many operating points: ``ReliabilityAnalyzer.at``.

``at(T, vdd)`` moves an analyzer to other block temperatures and supply
voltage on the same :class:`~repro.core.analyzer.DesignModel`.  Every
number it gives must equal, bit for bit, a fresh analyzer built at that
operating point; and it must rebuild nothing temperature-free.
"""

from __future__ import annotations

import sys
import threading
from dataclasses import replace

import numpy as np
import pytest

from repro import AnalysisConfig, ReliabilityAnalyzer, make_benchmark, obs
from repro.errors import ConfigurationError

#: (design, grid) cases: the three sizes the method tables are pinned on.
CASES = (("C1", 10), ("C2", 15), ("C3", 25))
METHODS = ("st_fast", "st_mc", "hybrid", "temp_unaware", "guard")
CURVE_METHODS = ("st_fast", "st_mc", "hybrid")


def _config(grid: int) -> AnalysisConfig:
    # A small st_mc cloud keeps the st_mc checks quick; it is part of the
    # design model, so base and fresh analyzers draw the same one.
    return AnalysisConfig(grid_size=grid, st_mc_samples=2000)


def _temperature_profiles(base: ReliabilityAnalyzer) -> list[np.ndarray]:
    n_blocks = base.floorplan.n_blocks
    return [
        np.full(n_blocks, 55.0),
        np.full(n_blocks, 107.03),
        base.block_temperatures + 12.5,
    ]


def _numbers(analyzer: ReliabilityAnalyzer, times: np.ndarray) -> dict:
    out: dict = {
        f"lifetime/{method}": analyzer.lifetime(10.0, method=method)
        for method in METHODS
    }
    for method in CURVE_METHODS:
        out[f"curve/{method}"] = analyzer.reliability(times, method=method)
    return out


def _assert_identical(got: dict, want: dict) -> None:
    assert got.keys() == want.keys()
    for key, value in want.items():
        # Bit for bit: array_equal on floats, not allclose.
        assert np.array_equal(got[key], value), key


@pytest.mark.parametrize("design,grid", CASES)
def test_at_matches_fresh_analyzer(design, grid):
    floorplan = make_benchmark(design)
    base = ReliabilityAnalyzer(floorplan, config=_config(grid))
    times = np.geomspace(3e4, 3e6, 12)
    for temps in _temperature_profiles(base):
        for vdd in (None, 1.3):
            point = base.at(temps, vdd=vdd)
            fresh = ReliabilityAnalyzer(
                floorplan,
                config=replace(_config(grid), vdd=vdd),
                block_temperatures=temps,
            )
            assert point.config == fresh.config
            _assert_identical(_numbers(point, times), _numbers(fresh, times))
    temps = _temperature_profiles(base)[0]
    assert base.at(temps).mc_lifetime(100.0, n_chips=64, seed=3) == (
        ReliabilityAnalyzer(
            floorplan, config=_config(grid), block_temperatures=temps
        ).mc_lifetime(100.0, n_chips=64, seed=3)
    )


def _span_names(docs: list[dict]) -> list[str]:
    names = []
    for doc in docs:
        names.append(doc["name"])
        names.extend(_span_names(doc.get("children", [])))
    return names


def test_at_shares_the_design_model():
    base = ReliabilityAnalyzer(make_benchmark("C1"), config=_config(10))
    base.lifetime(10.0, method="st_fast")
    temps = np.full(base.floorplan.n_blocks, 90.0)
    obs.reset()
    with obs.enabled():
        point = base.at(temps)
        for method in ("st_fast", "hybrid", "temp_unaware", "st_mc"):
            point.lifetime(10.0, method=method)
        names = _span_names(obs.trace_snapshot())
    assert point.design is base.design
    assert point.blods is base.blods
    assert point.canonical is base.canonical
    assert point.st_fast.rule_tables is base.st_fast.rule_tables
    assert point.hybrid.rule_tables is base.st_fast.rule_tables
    assert point.st_mc.cloud is base.design.sample_cloud
    assert "analyzer.setup" not in names
    assert "st_fast.rules" not in names
    assert point.thermal is None
    assert np.array_equal(point.block_temperatures, temps)


def test_at_keeps_or_moves_vdd():
    base = ReliabilityAnalyzer(
        make_benchmark("C1"), config=AnalysisConfig(grid_size=6, vdd=1.25)
    )
    temps = base.block_temperatures
    assert base.at(temps).config.vdd == 1.25
    assert base.at(temps, vdd=1.1).config.vdd == 1.1
    np.testing.assert_array_equal(base.at(temps).alphas, base.alphas)


def test_at_rejects_wrong_temperature_shape():
    base = ReliabilityAnalyzer(make_benchmark("C1"), config=_config(6))
    with pytest.raises(ConfigurationError, match="block temperatures"):
        base.at(np.full(base.floorplan.n_blocks + 1, 80.0))


def test_threads_on_one_design_read_serial_values():
    """More threads than cores race to build one design model's lazy
    tables and cloud; each reads what a serial fresh analyzer reads."""
    floorplan = make_benchmark("C2")
    profiles = [
        np.full(floorplan.n_blocks, temp) for temp in (58.0, 71.5, 86.0, 98.0)
    ]
    times = np.geomspace(3e4, 3e6, 12)
    serial = [
        _numbers(
            ReliabilityAnalyzer(
                floorplan, config=_config(10), block_temperatures=temps
            ),
            times,
        )
        for temps in profiles
    ]
    base = ReliabilityAnalyzer(floorplan, config=_config(10))
    barrier = threading.Barrier(len(profiles))
    results: list[dict | None] = [None] * len(profiles)
    errors: list[Exception] = []

    def run(index: int) -> None:
        try:
            barrier.wait(timeout=60.0)
            results[index] = _numbers(base.at(profiles[index]), times)
        except Exception as exc:  # noqa: BLE001 - asserted below
            errors.append(exc)

    threads = [
        threading.Thread(target=run, args=(i,)) for i in range(len(profiles))
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors
    for got, want in zip(results, serial, strict=True):
        assert got is not None
        _assert_identical(got, want)
