"""Kernel fast-path benchmark and regression gate.

Runs the :mod:`repro.kernels.bench` harness (micro-benchmarks per fast
path plus one end-to-end serial analyzer run), writes the machine-local
report to ``BENCH_kernels.json`` at the repo root, and enforces two
gates:

- the factorization cache must be *reused* during the end-to-end run
  (at least one hit per distinct thermal configuration), and the
  block->mesh map cache may miss at most once per distinct geometry,
- with ``REPRO_KERNELS_ASSERT_SPEEDUP=1`` on a multi-core machine, the
  end-to-end run must be at least 2x faster than the reference paths,
  its warm-artifact rerun at least 5x faster than the cold reference,
  the fused batch axis must beat per-ensemble kernel dispatch, and no
  speedup may regress more than 25% below the committed baseline.

Timing on single-core or oversubscribed runners is noise, so the speedup
assertions are opt-in via the environment flag; the structural checks
(cache reuse, report schema) always run.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from benchmarks.conftest import bench_scale
from repro.kernels.bench import (
    DEFAULT_BENCH_PATH,
    format_kernel_report,
    run_kernel_benchmarks,
    write_bench_json,
)

_REPO_ROOT = Path(__file__).resolve().parent.parent

#: Largest tolerated slowdown vs the committed baseline speedups.
_REGRESSION_FRACTION = 0.25

#: Required end-to-end improvement of the fast paths over the reference.
_END_TO_END_MIN_SPEEDUP = 2.0

#: Required improvement of the warm-artifact rerun over the cold
#: reference run (the cross-request memoization payoff).
_WARM_E2E_MIN_SPEEDUP = 5.0

#: The fused batch axis must beat per-ensemble kernel dispatch.
_BATCH_FUSION_MIN_SPEEDUP = 1.0


def _assert_speedups() -> bool:
    return (
        os.environ.get("REPRO_KERNELS_ASSERT_SPEEDUP") == "1"
        and (os.cpu_count() or 1) >= 2
    )


def _load_baseline(path: Path) -> dict | None:
    if not path.exists():
        return None
    baseline = json.loads(path.read_text())
    if baseline.get("schema") != 1:
        return None
    return baseline


def test_kernel_benchmarks(report):
    baseline_path = _REPO_ROOT / DEFAULT_BENCH_PATH
    baseline = _load_baseline(baseline_path)

    results = run_kernel_benchmarks(bench_scale())
    write_bench_json(results, baseline_path)
    report.line(format_kernel_report(results))

    end_to_end = results["end_to_end"]
    # The power-thermal loop re-solves one sparse system per iteration;
    # every solve after the first must come from the factorization cache.
    assert end_to_end["cache_hits"] >= 1, "factorization cache never reused"
    assert end_to_end["cache_hits"] >= end_to_end["power_loop_iterations"] - (
        end_to_end["cache_misses"]
    ), "factorization cache missed a repeat solve"
    # Each iteration reuses the block->mesh map of its geometry: one miss
    # per distinct (mesh, block rectangles) key, never a rebuild.
    for name, entry in (
        ("end_to_end", end_to_end),
        ("power_thermal_sweep", results["micro"]["power_thermal_sweep"]),
    ):
        assert entry["map_misses"] <= entry["map_geometries"], (
            f"{name}: block->mesh map rebuilt for a known geometry"
        )

    if not _assert_speedups():
        report.line("speedup gates: skipped (REPRO_KERNELS_ASSERT_SPEEDUP off)")
        return

    assert end_to_end["speedup"] >= _END_TO_END_MIN_SPEEDUP, (
        f"end-to-end fast-path speedup {end_to_end['speedup']:.2f}x "
        f"< {_END_TO_END_MIN_SPEEDUP:.1f}x"
    )
    warm = results["end_to_end_warm"]
    assert warm["speedup"] >= _WARM_E2E_MIN_SPEEDUP, (
        f"warm-artifact end-to-end speedup {warm['speedup']:.2f}x "
        f"< {_WARM_E2E_MIN_SPEEDUP:.1f}x"
    )
    fusion = results["micro"]["batch_fusion"]
    assert fusion["speedup"] >= _BATCH_FUSION_MIN_SPEEDUP, (
        f"fused batch axis {fusion['speedup']:.2f}x does not beat "
        f"per-ensemble dispatch"
    )

    if baseline is None or baseline.get("scale") != results["scale"]:
        report.line("regression gate: no comparable committed baseline")
        return
    floor = 1.0 - _REGRESSION_FRACTION
    failures = []
    pairs = [("end_to_end", baseline["end_to_end"], end_to_end)] + [
        (name, baseline["micro"][name], entry)
        for name, entry in results["micro"].items()
        if name in baseline.get("micro", {})
    ]
    for name, base_entry, entry in pairs:
        if entry["speedup"] < floor * base_entry["speedup"]:
            failures.append(
                f"{name}: {entry['speedup']:.2f}x vs baseline "
                f"{base_entry['speedup']:.2f}x"
            )
    assert not failures, "kernel speedup regressions >25%: " + "; ".join(
        failures
    )
