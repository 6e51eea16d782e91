"""Kernel fast-path benchmark harness.

Times every fast path of :mod:`repro.kernels` against the reference
implementation it replaces — the same code paths the equivalence tests
compare numerically — plus one end-to-end serial analyzer run (workload
power-thermal fixed point, analyzer preparation, st_fast lifetime and
reliability curve, Imhof reference check).

Used two ways:

- ``repro bench kernels`` (CLI) runs :func:`run_kernel_benchmarks` and
  writes ``BENCH_kernels.json``;
- ``benchmarks/test_kernels.py`` wraps the same entry points in the
  pytest benchmark harness and enforces the speedup/regression gates.

All timings are best-of-``repeats`` wall clock.  Results are reported as
raw seconds plus the dimensionless fast-vs-reference speedup; the CI
regression gate compares *speedups* (machine-portable), never absolute
times.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
import time
from collections.abc import Callable
from contextlib import contextmanager
from pathlib import Path
from typing import Any

import numpy as np

from repro.chip.benchmarks import make_benchmark
from repro.chip.geometry import GridSpec
from repro.core.analyzer import AnalysisConfig, ReliabilityAnalyzer
from repro.core.ensemble import (
    BlockReliability,
    StFastAnalyzer,
    StMcAnalyzer,
    sweep_reliabilities,
)
from repro.errors import NumericalError
from repro.core.hybrid import HybridAnalyzer
from repro.kernels.artifacts import use_artifacts
from repro.kernels.config import use_fast_paths
from repro.power.activity import ActivityProfile
from repro.power.loop import solve_power_thermal
from repro.thermal.factor_cache import (
    clear_factor_cache,
    factor_cache_stats,
    mesh_map_stats,
)
from repro.thermal.grid import PackageModel
from repro.thermal.hotspot import HotSpotLite
from repro.thermal.solver import (
    _build_conductance_matrix,
    _build_conductance_matrix_reference,
)

__all__ = [
    "DEFAULT_BENCH_PATH",
    "format_kernel_report",
    "run_kernel_benchmarks",
    "write_bench_json",
]

#: Committed baseline location (repo root).
DEFAULT_BENCH_PATH = "BENCH_kernels.json"

#: Workload knobs per scale; "quick" keeps the whole suite under ~2 min.
_SCALES: dict[str, dict[str, Any]] = {
    "quick": {
        "design": "C2",
        "mesh": 64,
        "conductance_mesh": 96,
        "repeats": 3,
        "curve_points": 100,
        "st_mc_samples": 4000,
        "hybrid_table": 60,
        "imhof_points": 16,
    },
    "full": {
        "design": "C3",
        "mesh": 96,
        "conductance_mesh": 192,
        "repeats": 5,
        "curve_points": 200,
        "st_mc_samples": 20000,
        "hybrid_table": 100,
        "imhof_points": 32,
    },
}


def _best_of(fn: Callable[[], Any], repeats: int) -> float:
    """Best-of-``repeats`` wall time of ``fn`` in seconds."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _entry(reference_s: float, fast_s: float, **extra: Any) -> dict[str, Any]:
    speedup = reference_s / fast_s if fast_s > 0.0 else float("inf")
    return {
        "reference_s": round(reference_s, 6),
        "fast_s": round(fast_s, 6),
        "speedup": round(speedup, 3),
        **extra,
    }


def _bench_conductance(mesh: int, repeats: int) -> dict[str, Any]:
    """Conductance-matrix assembly: per-cell loop vs index arithmetic."""
    grid = GridSpec(nx=mesh, ny=mesh, width=0.016, height=0.016)
    package = PackageModel()
    ref = _best_of(
        lambda: _build_conductance_matrix_reference(grid, package), repeats
    )
    fast = _best_of(lambda: _build_conductance_matrix(grid, package), repeats)
    return _entry(ref, fast, cells=grid.n_cells)


def _bench_power_thermal(
    design: str, mesh: int, repeats: int
) -> dict[str, Any]:
    """The leakage-temperature fixed point with/without the factor cache."""
    floorplan = make_benchmark(design)
    thermal_model = HotSpotLite(mesh_resolution=mesh)
    profiles = [
        ActivityProfile.preset(name, floorplan)
        for name in ("typical", "int_heavy", "memory_bound")
    ]

    def sweep() -> None:
        for profile in profiles:
            solve_power_thermal(
                floorplan, profile, thermal_model=thermal_model
            )

    with use_fast_paths(False):
        ref = _best_of(sweep, repeats)
    clear_factor_cache()
    with use_fast_paths(True):
        fast = _best_of(sweep, repeats)
    stats = factor_cache_stats()
    return _entry(
        ref,
        fast,
        profiles=len(profiles),
        cache_hits=stats["hits"],
        cache_misses=stats["misses"],
        **_map_counts(),
    )


def _map_counts() -> dict[str, int]:
    """Block→mesh map reuse since the last cache clear.

    Both power-thermal benchmarks solve one design on one mesh, so every
    activity mode and iteration shares a single map geometry.
    """
    stats = mesh_map_stats()
    return {
        "map_hits": stats["hits"],
        "map_misses": stats["misses"],
        "map_geometries": 1,
    }


def _bench_ensemble(
    analyzer: ReliabilityAnalyzer,
    times: np.ndarray,
    st_mc_samples: int,
    repeats: int,
) -> dict[str, dict[str, Any]]:
    """Batched vs per-block-loop ensemble failure probabilities."""
    st_fast = StFastAnalyzer(analyzer.blocks, l0=analyzer.config.l0)
    with use_fast_paths(False):
        ref = _best_of(
            lambda: st_fast.block_failure_probabilities(times), repeats
        )
    with use_fast_paths(True):
        fast = _best_of(
            lambda: st_fast.block_failure_probabilities(times), repeats
        )
    out = {
        "st_fast_curve": _entry(
            ref, fast, blocks=len(analyzer.blocks), times=int(times.size)
        )
    }

    st_mc = StMcAnalyzer(analyzer.blocks, n_samples=st_mc_samples, seed=0)
    with use_fast_paths(False):
        ref = _best_of(
            lambda: st_mc.block_failure_probabilities(times), repeats
        )
    with use_fast_paths(True):
        fast = _best_of(
            lambda: st_mc.block_failure_probabilities(times), repeats
        )
    out["st_mc_curve"] = _entry(
        ref, fast, samples=st_mc_samples, times=int(times.size)
    )
    return out


def _bench_hybrid(
    analyzer: ReliabilityAnalyzer,
    times: np.ndarray,
    table: int,
    repeats: int,
) -> dict[str, dict[str, Any]]:
    """Shared-scaled-grid table build and batched query interpolation."""

    def build() -> HybridAnalyzer:
        return HybridAnalyzer(
            analyzer.blocks, n_alpha=table, n_b=table, l0=analyzer.config.l0
        )

    # Artifacts off: this entry isolates the fused table-build kernel;
    # the artifact warm path has its own benchmark (artifact_warm_rerun).
    with use_artifacts(False):
        with use_fast_paths(False):
            ref_build = _best_of(build, repeats)
        with use_fast_paths(True):
            fast_build = _best_of(build, repeats)
            hybrid = build()
    query_times = times[times < 0.3 * min(b.alpha for b in analyzer.blocks)]
    with use_fast_paths(False):
        ref_query = _best_of(
            lambda: hybrid.block_failure_probabilities(query_times), repeats
        )
    with use_fast_paths(True):
        fast_query = _best_of(
            lambda: hybrid.block_failure_probabilities(query_times), repeats
        )
    return {
        "hybrid_build": _entry(
            ref_build, fast_build, blocks=len(analyzer.blocks), table=table
        ),
        "hybrid_query": _entry(
            ref_query, fast_query, times=int(query_times.size)
        ),
    }


def _bench_batch_fusion(
    analyzer: ReliabilityAnalyzer, repeats: int
) -> dict[str, Any]:
    """Fused temperature-axis sweep vs per-analyzer kernel dispatch.

    Models the ``repro batch`` bracketing ladder: many same-design
    ensembles (here Weibull rescalings standing in for temperatures,
    sharing the per-block quadrature tables) each probed at a handful of
    times.  Both sides run the fast kernels; the entry isolates the
    dispatch-fusion win of :func:`repro.core.ensemble.sweep_reliabilities`
    over one kernel call per ensemble.
    """
    factors = np.linspace(0.8, 1.6, 16, dtype=np.float64)
    subs = [
        StFastAnalyzer(
            [
                BlockReliability(
                    blod=block.blod,
                    alpha=block.alpha * float(factor),
                    b=block.b,
                )
                for block in analyzer.blocks
            ],
            l0=analyzer.config.l0,
        )
        for factor in factors
    ]
    alpha_min = min(block.alpha for block in analyzer.blocks)
    # A couple of probe times per ensemble, like the bracketing ladder:
    # short time axes keep the workload dispatch-bound, which is the
    # regime fusion targets (long curves amortise dispatch on their own).
    times = np.geomspace(0.05 * alpha_min, 0.5 * alpha_min, 2)
    times_list = [times] * len(subs)

    def fused() -> None:
        if sweep_reliabilities(subs, times_list) is None:
            raise NumericalError("fused sweep unexpectedly declined")

    def per_analyzer() -> None:
        for sub in subs:
            sub.reliability(times)

    with use_fast_paths(True):
        per_analyzer()  # prime the lazily built rule tables
        ref = _best_of(per_analyzer, repeats)
        fast = _best_of(fused, repeats)
    return _entry(
        ref, fast, profiles=len(subs), times=int(times.size)
    )


@contextmanager
def _artifact_dir(path: str | Path) -> Any:
    """Point the artifact cache at ``path`` for the duration."""
    previous = os.environ.get("REPRO_ARTIFACT_CACHE_DIR")
    os.environ["REPRO_ARTIFACT_CACHE_DIR"] = str(path)
    try:
        yield
    finally:
        if previous is None:
            os.environ.pop("REPRO_ARTIFACT_CACHE_DIR", None)
        else:
            os.environ["REPRO_ARTIFACT_CACHE_DIR"] = previous


def _clear_dir(path: str | Path) -> None:
    root = Path(path)
    for child in root.iterdir():
        if child.is_dir():
            shutil.rmtree(child)
        else:
            child.unlink()


def _bench_artifacts(design: str, repeats: int) -> dict[str, Any]:
    """Analyzer preparation from a cold vs a warm artifact cache.

    ``reference`` is the cold build (empty artifact directory, so the
    timing includes the store overhead); ``fast`` is the identical build
    served from the warm cache — the cross-request path of a service
    worker or a repeated CLI invocation.
    """
    floorplan = make_benchmark(design)

    def build() -> ReliabilityAnalyzer:
        return ReliabilityAnalyzer(
            floorplan, config=AnalysisConfig(exec_backend="serial")
        )

    with tempfile.TemporaryDirectory() as tmp:
        with _artifact_dir(tmp), use_fast_paths(True):
            cold = float("inf")
            for _ in range(repeats):
                _clear_dir(tmp)
                start = time.perf_counter()
                build()
                cold = min(cold, time.perf_counter() - start)
            build()  # ensure the cache is warm before timing hits
            warm = _best_of(build, repeats)
    return _entry(cold, warm, design=design, blocks=floorplan.n_blocks)


def _widest_form(analyzer: ReliabilityAnalyzer):
    """The quadratic form of the BLOD spanning the most grid cells."""
    spans = [a.grid_indices.size for a in analyzer.sampler.assignments]
    return analyzer.blods[int(np.argmax(spans))].v_quadratic_form()


def _bench_imhof(
    analyzer: ReliabilityAnalyzer, n_points: int, repeats: int
) -> dict[str, Any]:
    """Batched composite-rule Imhof inversion vs per-point adaptive quad."""
    form = _widest_form(analyzer)
    match = form.chi2_match()
    xs = np.asarray(match.ppf(np.linspace(0.05, 0.98, n_points, dtype=np.float64)))
    with use_fast_paths(False):
        ref = _best_of(lambda: form.imhof_sf(xs), 1)
    with use_fast_paths(True):
        form.imhof_sf(xs)  # build + cache the node tables once
        fast = _best_of(lambda: form.imhof_sf(xs), repeats)
    return _entry(ref, fast, points=n_points)


def _bench_end_to_end(
    design: str,
    mesh: int,
    curve_points: int,
    imhof_points: int,
) -> tuple[dict[str, Any], dict[str, Any]]:
    """One full serial analyzer run, reference vs fast paths.

    Workload power-thermal fixed points over three activity modes (the
    multi-mode sweep of a reliability-management study, where the
    factorization cache is reused across modes), analyzer preparation at
    the typical-mode temperatures, st_fast 10-ppm lifetime, a reliability
    curve, and a small Imhof reference check — the serial flow a designer
    runs per design point.

    Returns two entries: the cold run (empty artifact cache, so the
    fast timing pays the artifact *store* overhead — comparable to the
    pre-artifact baselines) and the warm rerun of the same scenario,
    where analyzer preparation is served from the artifact cache.
    """

    def run() -> dict[str, Any]:
        floorplan = make_benchmark(design)
        thermal_model = HotSpotLite(mesh_resolution=mesh)
        iterations = 0
        for mode in ("int_heavy", "memory_bound", "typical"):
            profile = ActivityProfile.preset(mode, floorplan)
            solution = solve_power_thermal(
                floorplan, profile, thermal_model=thermal_model
            )
            iterations += solution.iterations
        analyzer = ReliabilityAnalyzer(
            solution.floorplan,
            config=AnalysisConfig(exec_backend="serial"),
            block_temperatures=solution.block_temperatures,
        )
        center = analyzer.lifetime(10.0, method="st_fast")
        times = np.geomspace(center / 100.0, 2.0 * center, curve_points)
        analyzer.reliability(times, method="st_fast")
        form = _widest_form(analyzer)
        xs = np.asarray(
            form.chi2_match().ppf(
                np.linspace(0.1, 0.95, imhof_points, dtype=np.float64)
            )
        )
        form.imhof_sf(xs)
        return {"iterations": iterations}

    with tempfile.TemporaryDirectory() as tmp:
        with _artifact_dir(tmp):
            with use_fast_paths(False):
                start = time.perf_counter()
                info = run()
                ref = time.perf_counter() - start
            _clear_dir(tmp)
            clear_factor_cache()
            with use_fast_paths(True):
                start = time.perf_counter()
                info = run()
                fast = time.perf_counter() - start
                stats = factor_cache_stats()
                maps = _map_counts()
                start = time.perf_counter()
                run()
                warm = time.perf_counter() - start
    cold_entry = _entry(
        ref,
        fast,
        power_loop_iterations=info["iterations"],
        cache_hits=stats["hits"],
        cache_misses=stats["misses"],
        **maps,
    )
    warm_entry = _entry(
        ref, warm, power_loop_iterations=info["iterations"]
    )
    return cold_entry, warm_entry


def run_kernel_benchmarks(scale: str = "quick") -> dict[str, Any]:
    """Run every kernel benchmark at the given scale; returns the report.

    The report is JSON-serialisable and shaped for ``BENCH_kernels.json``:
    ``{"schema": 1, "scale": ..., "micro": {...}, "end_to_end": {...}}``.
    """
    from repro.errors import ConfigurationError

    if scale not in _SCALES:
        raise ConfigurationError(
            f"unknown benchmark scale {scale!r}; expected one of "
            f"{sorted(_SCALES)}"
        )
    knobs = _SCALES[scale]
    repeats = knobs["repeats"]

    analyzer = ReliabilityAnalyzer(
        make_benchmark(knobs["design"]),
        config=AnalysisConfig(exec_backend="serial"),
    )
    alpha_min = min(b.alpha for b in analyzer.blocks)
    times = np.concatenate(
        [
            [0.0],
            np.geomspace(
                1e-3 * alpha_min, 0.8 * alpha_min, knobs["curve_points"] - 1
            ),
        ]
    )

    micro: dict[str, Any] = {}
    micro["conductance_build"] = _bench_conductance(
        knobs["conductance_mesh"], repeats
    )
    micro["power_thermal_sweep"] = _bench_power_thermal(
        knobs["design"], knobs["mesh"], repeats
    )
    micro.update(
        _bench_ensemble(analyzer, times, knobs["st_mc_samples"], repeats)
    )
    micro.update(_bench_hybrid(analyzer, times, knobs["hybrid_table"], repeats))
    micro["imhof_batch"] = _bench_imhof(
        analyzer, knobs["imhof_points"], repeats
    )
    micro["batch_fusion"] = _bench_batch_fusion(analyzer, repeats)
    micro["artifact_warm_build"] = _bench_artifacts(knobs["design"], repeats)
    end_to_end, end_to_end_warm = _bench_end_to_end(
        knobs["design"],
        knobs["mesh"],
        knobs["curve_points"],
        max(knobs["imhof_points"] // 2, 4),
    )
    return {
        "schema": 1,
        "scale": scale,
        "design": knobs["design"],
        "micro": micro,
        "end_to_end": end_to_end,
        "end_to_end_warm": end_to_end_warm,
    }


def write_bench_json(
    results: dict[str, Any], path: str | Path = DEFAULT_BENCH_PATH
) -> Path:
    """Persist a benchmark report as pretty-printed JSON."""
    target = Path(path)
    target.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")
    return target


def format_kernel_report(results: dict[str, Any]) -> str:
    """Human-readable table of a :func:`run_kernel_benchmarks` report."""
    lines = [
        f"kernel benchmarks (scale={results['scale']}, "
        f"design={results['design']})",
        "",
        f"{'benchmark':<22} {'reference':>12} {'fast':>12} {'speedup':>9}",
        "-" * 58,
    ]
    entries = dict(results["micro"])
    entries["end_to_end"] = results["end_to_end"]
    if "end_to_end_warm" in results:
        entries["end_to_end_warm"] = results["end_to_end_warm"]
    for name, entry in entries.items():
        lines.append(
            f"{name:<22} {entry['reference_s']:>10.4f}s "
            f"{entry['fast_s']:>10.4f}s {entry['speedup']:>8.2f}x"
        )
    e2e = results["end_to_end"]
    lines += [
        "",
        f"factor cache (end-to-end): {e2e['cache_hits']} hits / "
        f"{e2e['cache_misses']} misses over "
        f"{e2e['power_loop_iterations']} power-loop iterations",
    ]
    if "map_hits" in e2e:
        lines.append(
            f"block->mesh map (end-to-end): {e2e['map_hits']} hits / "
            f"{e2e['map_misses']} misses over {e2e['map_geometries']} geometry"
        )
    return "\n".join(lines)
