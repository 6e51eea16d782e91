"""Work-counter golden: exact per-request counts from the obs counters.

These counts do not depend on the host's speed, so a change that moves
one shows here as an exact mismatch, not as timing noise.  A change that
moves a count on purpose updates this table and says why.  Counts that
depend on the path ``brentq`` takes through a lifetime solve (such as
``lifetime.evals_per_solve``) are left out: they move with the last bits
of the solved function.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.chip.benchmarks import make_benchmark
from repro.power.activity import ActivityProfile
from repro.power.loop import solve_power_thermal
from repro.service.requests import JobRequest, run_job
from repro.thermal.factor_cache import clear_factor_cache
from repro.thermal.hotspot import HotSpotLite

#: Counters read from one cold and one warm ``run_job`` build, and from one
#: fixed-time st_fast reliability call.
GOLDEN = {
    ("C1", 10): {
        "cold": {"hit": 0, "miss": 2, "store": 2},
        "warm": {"hit": 1, "miss": 0, "store": 0},
        "blod.blocks": 8,
        "pca.factors": 101,
        "integration.subdomain_evals": 800,
    },
    ("C3", 25): {
        "cold": {"hit": 0, "miss": 2, "store": 2},
        "warm": {"hit": 1, "miss": 0, "store": 0},
        "blod.blocks": 12,
        "pca.factors": 624,
        "integration.subdomain_evals": 1200,
    },
}


def _counters(action) -> dict[str, float]:
    obs.reset()
    with obs.enabled():
        action()
        return obs.metrics_snapshot()["counters"]


@pytest.mark.parametrize("design,grid", sorted(GOLDEN))
def test_work_counters(design, grid, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_ARTIFACT_CACHE_DIR", str(tmp_path / "artifacts"))
    golden = GOLDEN[(design, grid)]
    request = JobRequest.from_dict(
        {"kind": "lifetime", "design": design, "grid": grid, "methods": ["st_fast"]}
    )
    for build in ("cold", "warm"):
        counters = _counters(lambda: run_job(request))
        artifacts = {
            name: counters.get(f"kernels.artifacts.{name}", 0.0)
            for name in ("hit", "miss", "store")
        }
        assert artifacts == golden[build], build
        assert counters["blod.blocks"] == golden["blod.blocks"]
        assert counters["pca.factors"] == golden["pca.factors"]

    analyzer = request.build_analyzer()
    counters = _counters(lambda: analyzer.reliability(1e5, method="st_fast"))
    assert (
        counters["integration.subdomain_evals"]
        == golden["integration.subdomain_evals"]
    )


#: A C2 power-thermal sweep on a 64-cell mesh over three activity modes,
#: from empty thermal caches.  Every mode shares one mesh geometry and one
#: conductance system, so each cache misses once and serves every other
#: solve of the sweep.
POWER_THERMAL_GOLDEN = {
    "thermal.iterations": 12,
    "thermal.solves": 12,
    "thermal.factor_cache.hit": 11,
    "thermal.factor_cache.miss": 1,
    "thermal.mesh_map.hit": 11,
    "thermal.mesh_map.miss": 1,
}


def test_power_thermal_sweep_counters():
    floorplan = make_benchmark("C2")
    thermal_model = HotSpotLite(mesh_resolution=64)
    profiles = [
        ActivityProfile.preset(mode, floorplan)
        for mode in ("typical", "int_heavy", "memory_bound")
    ]

    def sweep() -> None:
        for profile in profiles:
            solve_power_thermal(floorplan, profile, thermal_model=thermal_model)

    clear_factor_cache()
    try:
        counters = _counters(sweep)
    finally:
        clear_factor_cache()
    assert {name: counters.get(name, 0.0) for name in POWER_THERMAL_GOLDEN} == (
        POWER_THERMAL_GOLDEN
    )
