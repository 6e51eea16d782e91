"""Work-counter golden: exact per-request counts from the obs counters.

These counts do not depend on the host's speed, so a change that moves
one shows here as an exact mismatch, not as timing noise.  A change that
moves a count on purpose updates this table and says why.

The lifetime-evaluation golden counts the reliability evaluations of a
lifetime solve, which follow the path ``brentq`` takes: a bracket rung
or two, then the interpolation steps that reach the tolerance.  Those
steps can move with the last bits of the solved function, so a change
that moves one of these counts, even that way, updates the golden and
says why.  The BLAS thread count moves those bits too (C3/g25's st_fast
lifetime differs in its last bits between one and two threads), so the
design counts are taken in a child process pinned to one BLAS thread.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro import obs
from repro.chip.benchmarks import make_alpha_processor, make_benchmark
from repro.core import ensemble
from repro.core.analyzer import ReliabilityAnalyzer
from repro.core.ensemble import StFastAnalyzer
from repro.core.hybrid import HybridAnalyzer
from repro.core.lifetime import ppm_to_reliability, solve_lifetime
from repro.core.store import clear_design_store
from repro.exec.batch import SweepSpec, run_batch
from repro.power.activity import ActivityProfile, available_presets
from repro.power.loop import solve_power_thermal
from repro.service.requests import JobRequest, run_job
from repro.thermal.factor_cache import clear_factor_cache
from repro.thermal.hotspot import HotSpotLite

#: Counters read from three ``run_job`` calls, then one fixed-time st_fast
#: reliability call.  ``cold`` starts from an empty design store and
#: artifact cache.  ``store_warm`` finds the design stored: it reads no
#: artifact and builds no BLOD or PCA factor.  ``artifact_warm`` runs after
#: the store is cleared, so the design is rebuilt from the warm artifact.
_COUNTERS = (
    "kernels.artifacts.hit",
    "kernels.artifacts.miss",
    "kernels.artifacts.store",
    "analyzer.store.hit",
    "analyzer.store.miss",
    "blod.blocks",
    "pca.factors",
)


def _steps(blocks: int, factors: int) -> dict[str, tuple[int, ...]]:
    """Each step's :data:`_COUNTERS`, in order."""
    return {
        "cold": (0, 2, 2, 0, 1, blocks, factors),
        "store_warm": (0, 0, 0, 1, 0, 0, 0),
        "artifact_warm": (1, 0, 0, 0, 1, blocks, factors),
    }


GOLDEN = {
    ("C1", 10): {**_steps(8, 101), "integration.subdomain_evals": 800},
    ("C3", 25): {**_steps(12, 624), "integration.subdomain_evals": 1200},
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
    for step in ("cold", "store_warm", "artifact_warm"):
        if step == "artifact_warm":
            clear_design_store()
        counters = _counters(lambda: run_job(request))
        got = tuple(counters.get(name, 0.0) for name in _COUNTERS)
        assert dict(zip(_COUNTERS, got, strict=True)) == dict(
            zip(_COUNTERS, golden[step], strict=True)
        ), step

    analyzer = request.build_analyzer()
    counters = _counters(lambda: analyzer.reliability(1e5, method="st_fast"))
    assert (
        counters["integration.subdomain_evals"]
        == golden["integration.subdomain_evals"]
    )


#: A service-shaped stream: 20 lifetime, curve and scenario jobs over three
#: designs at several ppm, vdd and methods.  Each design is built once.
SERVICE_GOLDEN = {"analyzer.store.miss": 3, "analyzer.setup": 3}


def test_service_jobs_build_each_design_once(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_ARTIFACT_CACHE_DIR", str(tmp_path / "artifacts"))
    designs = (("C1", 10), ("C2", 15), ("C3", 25))
    docs = []
    for i in range(20):
        design, grid = designs[i % 3]
        doc = {"design": design, "grid": grid, "ppm": float(1 + i)}
        if i % 4 == 1:
            doc.update(
                kind="curve", methods=["st_fast"], t_min=1e3, t_max=1e6, points=9
            )
        elif i % 4 == 2:
            doc.update(
                kind="scenario",
                scenario={"phases": [{"name": "field"}], "mechanisms": ["obd"]},
            )
        else:
            doc.update(kind="lifetime", methods=["st_fast", "hybrid"])
            if i % 4 == 3:
                doc["vdd"] = 1.25
        docs.append(JobRequest.from_dict(doc))
    obs.reset()
    with obs.enabled():
        for request in docs:
            run_job(request)
        names = _span_names(obs.trace_snapshot())
        counters = obs.metrics_snapshot()["counters"]
    assert {
        "analyzer.store.miss": counters.get("analyzer.store.miss", 0.0),
        "analyzer.setup": names.count("analyzer.setup"),
    } == SERVICE_GOLDEN
    assert counters["analyzer.store.hit"] == 17


#: One fresh design_sweep-shaped sweep: C1 on a 15x15 grid at two uniform
#: temperatures over st_fast, temp_unaware, hybrid and guard, from empty
#: caches.  The design gets one analyzer and the other temperature is an
#: operating point of it, so the sweep sets up one analyzer, builds one
#: set of rule tables (one ``st_fast.rules`` span, one midpoint rule build)
#: and one ``StFastAnalyzer``; before the design model was split out it
#: read 2, 4, 6 and 4.
SWEEP_GOLDEN = {
    "analyzer.setup": 1,
    "st_fast.rules": 1,
    "midpoint_block_rules": 1,
    "StFastAnalyzer": 1,
    "exec.batch.fused_cells": 4,
}


def _span_names(docs: list[dict]) -> list[str]:
    names = []
    for doc in docs:
        names.append(doc["name"])
        names.extend(_span_names(doc.get("children", [])))
    return names


def test_sweep_builds_one_design_model(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_ARTIFACT_CACHE_DIR", str(tmp_path / "artifacts"))
    built: dict[str, list] = {"StFastAnalyzer": [], "HybridAnalyzer": []}
    for cls in (StFastAnalyzer, HybridAnalyzer):
        original = cls.__init__

        def recording_init(self, *args, _original=original, **kwargs):
            _original(self, *args, **kwargs)
            built[type(self).__name__].append(self)

        monkeypatch.setattr(cls, "__init__", recording_init)
    rule_builds = []
    original_rules = ensemble.midpoint_block_rules

    def counting_rules(*args, **kwargs):
        rule_builds.append(args)
        return original_rules(*args, **kwargs)

    monkeypatch.setattr(ensemble, "midpoint_block_rules", counting_rules)
    spec = SweepSpec(
        designs=("C1",),
        methods=("st_fast", "temp_unaware", "hybrid", "guard"),
        temperatures_c=(61.5, 97.25),
        grid_size=15,
    )
    obs.reset()
    with obs.enabled():
        run_batch(spec, use_cache=False)
        names = _span_names(obs.trace_snapshot())
        fused = obs.metrics_snapshot()["counters"]["exec.batch.fused_cells"]
    counts = {
        "analyzer.setup": names.count("analyzer.setup"),
        "st_fast.rules": names.count("st_fast.rules"),
        "midpoint_block_rules": len(rule_builds),
        "StFastAnalyzer": len(built["StFastAnalyzer"]),
        "exec.batch.fused_cells": fused,
    }
    assert counts == SWEEP_GOLDEN
    (st_fast,) = built["StFastAnalyzer"]
    assert len(built["HybridAnalyzer"]) == 2
    for hybrid in built["HybridAnalyzer"]:
        assert hybrid.rule_tables is st_fast.rule_tables


#: A C2 power-thermal sweep on a 64-cell mesh over three activity modes,
#: from empty thermal caches.  Every mode shares one geometry, so the
#: block model misses once and serves the other two solves; building it
#: takes the only factorization and block→mesh map.  The loop iterates on
#: the block model and solves no mesh.
POWER_THERMAL_GOLDEN = {
    "thermal.iterations": 12,
    "thermal.solves": 0,
    "thermal.factor_cache.hit": 0,
    "thermal.factor_cache.miss": 1,
    "thermal.mesh_map.hit": 0,
    "thermal.mesh_map.miss": 1,
    "thermal.block_model.hit": 2,
    "thermal.block_model.miss": 1,
}

#: Reading one solution's ``thermal`` twice: one field solve, through
#: the warm factorization and block→mesh map.
THERMAL_READ_GOLDEN = {
    "thermal.iterations": 0,
    "thermal.solves": 1,
    "thermal.factor_cache.hit": 1,
    "thermal.factor_cache.miss": 0,
    "thermal.mesh_map.hit": 1,
    "thermal.mesh_map.miss": 0,
    "thermal.block_model.hit": 0,
    "thermal.block_model.miss": 0,
}


def test_power_thermal_sweep_counters():
    floorplan = make_benchmark("C2")
    thermal_model = HotSpotLite(mesh_resolution=64)
    profiles = [
        ActivityProfile.preset(mode, floorplan)
        for mode in ("typical", "int_heavy", "memory_bound")
    ]
    solutions = []

    def sweep() -> None:
        for profile in profiles:
            solutions.append(
                solve_power_thermal(floorplan, profile, thermal_model=thermal_model)
            )

    def read_thermal_twice() -> None:
        assert solutions[0].thermal is solutions[0].thermal

    clear_factor_cache()
    try:
        counters = _counters(sweep)
        read_counters = _counters(read_thermal_twice)
    finally:
        clear_factor_cache()
    assert {name: counters.get(name, 0.0) for name in POWER_THERMAL_GOLDEN} == (
        POWER_THERMAL_GOLDEN
    )
    assert {
        name: read_counters.get(name, 0.0) for name in THERMAL_READ_GOLDEN
    } == THERMAL_READ_GOLDEN


#: Reliability evaluations per lifetime solve at 10 ppm.  The alpha
#: processor's are the runtime-management solve: the power-thermal fixed
#: point of each preset, then the hybrid tables queried at its block
#: temperatures from ``t_guess = 1e5`` h; they read the same under one
#: or two BLAS threads.  The designs' are ``ReliabilityAnalyzer.lifetime``,
#: seeded with the guard-band lifetime, under one BLAS thread: C3/g25's
#: st_fast lifetime moves in its last bits with the thread count, and its
#: solve reads 6 evaluations under two threads.
LIFETIME_EVALS_GOLDEN = {
    ("alpha", "hybrid", "fp_heavy"): 5,
    ("alpha", "hybrid", "idle"): 6,
    ("alpha", "hybrid", "int_heavy"): 5,
    ("alpha", "hybrid", "memory_bound"): 5,
    ("alpha", "hybrid", "typical"): 5,
    ("C1/g10", "st_fast", None): 7,
    ("C1/g10", "hybrid", None): 5,
    ("C3/g25", "st_fast", None): 8,
    ("C3/g25", "hybrid", None): 5,
}

#: Counts the evaluations of every ``ReliabilityAnalyzer.lifetime`` solve
#: of C1/g10 and C3/g25 by st_fast and hybrid; prints them as JSON.
_DESIGN_EVALS_SCRIPT = """
import json

import repro.core.analyzer as analyzer_module
from repro.core.lifetime import solve_lifetime
from repro.service.requests import JobRequest

solves = []


def counting_solve(reliability_fn, reliability_target, **kwargs):
    calls = []

    def counted(t):
        calls.append(t)
        return reliability_fn(t)

    lifetime = solve_lifetime(counted, reliability_target, **kwargs)
    solves.append(len(calls))
    return lifetime


analyzer_module.solve_lifetime = counting_solve
counts = []
for design, grid in (("C1", 10), ("C3", 25)):
    request = JobRequest.from_dict(
        {"kind": "lifetime", "design": design, "grid": grid, "methods": ["st_fast"]}
    )
    analyzer = request.build_analyzer()
    for method in ("st_fast", "hybrid"):
        solves.clear()
        analyzer.lifetime(10.0, method=method)
        (count,) = solves
        counts.append([f"{design}/g{grid}", method, count])
print(json.dumps(counts))
"""


def _counted(fn, calls):
    def counted(t):
        calls.append(t)
        return fn(t)

    return counted


def _management_evals(analyzer, floorplan, preset, target):
    """Evaluations of one runtime-management lifetime solve."""
    solution = solve_power_thermal(
        floorplan, ActivityProfile.preset(preset, floorplan)
    )
    params = analyzer.obd_model.block_params(solution.block_temperatures)
    alphas = np.array([p.alpha for p in params])
    bs = np.array([p.b for p in params])
    calls: list[float] = []
    solve_lifetime(
        _counted(
            lambda t: float(analyzer.hybrid.reliability(t, alphas=alphas, bs=bs)),
            calls,
        ),
        target,
        t_guess=1e5,
    )
    return len(calls)


def _design_evals(artifact_dir: Path) -> dict[tuple, int]:
    """The design counts, from a child process on one BLAS thread."""
    src = str(Path(repro.__file__).resolve().parents[1])
    env = {
        **os.environ,
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "REPRO_ARTIFACT_CACHE_DIR": str(artifact_dir),
        "PYTHONPATH": os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])]
        ),
    }
    proc = subprocess.run(
        [sys.executable, "-c", _DESIGN_EVALS_SCRIPT],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    rows = json.loads(proc.stdout.strip().splitlines()[-1])
    return {(design, method, None): count for design, method, count in rows}


def test_lifetime_evaluations(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_ARTIFACT_CACHE_DIR", str(tmp_path / "artifacts"))
    target = ppm_to_reliability(10.0)
    counts = {}

    alpha = make_alpha_processor()
    base = solve_power_thermal(alpha, ActivityProfile.preset("typical", alpha))
    analyzer = ReliabilityAnalyzer(
        base.floorplan, block_temperatures=base.block_temperatures
    )
    for preset in available_presets():
        counts[("alpha", "hybrid", preset)] = _management_evals(
            analyzer, alpha, preset, target
        )
    counts.update(_design_evals(tmp_path / "artifacts"))

    assert counts == LIFETIME_EVALS_GOLDEN
