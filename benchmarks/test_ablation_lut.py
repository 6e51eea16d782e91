"""Ablation — hybrid look-up-table resolution and reuse economics.

Design choices called out in DESIGN.md: the paper picks n_alpha = n_b =
100 table indices. This bench sweeps the resolution against st_fast
accuracy and measures the break-even point of table reuse across
setup/application profiles (the scenario Sec. IV-E motivates).
"""

from __future__ import annotations

import time

import numpy as np

from benchmarks.design_cache import prepared_analyzer
from repro.core.hybrid import HybridAnalyzer


def test_ablation_lut_resolution(report, benchmark):
    analyzer = prepared_analyzer("C2")
    blocks = analyzer.blocks
    t10 = analyzer.lifetime(10)
    times = np.array([t10 / 3.0, t10, 3.0 * t10])
    reference = analyzer.st_fast.failure_probability(times)

    rows = []
    errors = {}
    for resolution in (12, 25, 50, 100, 200):
        start = time.perf_counter()
        hybrid = HybridAnalyzer(blocks, n_alpha=resolution, n_b=resolution)
        _ = hybrid.tables  # every column, not only the ones queried below
        build_time = time.perf_counter() - start
        start = time.perf_counter()
        f = hybrid.failure_probability(times)
        query_time = time.perf_counter() - start
        err = float(np.max(np.abs(f / reference - 1.0)))
        errors[resolution] = err
        rows.append(
            [
                f"{resolution}x{resolution}",
                f"{err:.2e}",
                f"{build_time * 1e3:.0f}",
                f"{query_time * 1e3:.2f}",
            ]
        )

    hybrid_100 = HybridAnalyzer(blocks, n_alpha=100, n_b=100)
    benchmark.pedantic(
        lambda: hybrid_100.failure_probability(times), rounds=10, iterations=1
    )

    report.line("Ablation - hybrid LUT resolution (design C2)")
    report.line()
    report.table(
        ["table", "max rel err vs st_fast", "build (ms)", "query (ms)"], rows
    )
    # The paper's 100x100 resolution is comfortably converged.
    assert errors[100] < 0.01
    assert errors[200] <= errors[12]


def test_ablation_lut_reuse_breakeven(report, benchmark):
    """Tables pay off after a handful of profile re-evaluations."""
    analyzer = prepared_analyzer("C2")
    blocks = analyzer.blocks
    t10 = analyzer.lifetime(10)
    times = np.logspace(np.log10(t10) - 0.5, np.log10(t10) + 0.5, 9)
    alphas = np.array([b.alpha for b in blocks])
    bs = np.array([b.b for b in blocks])

    start = time.perf_counter()
    hybrid = HybridAnalyzer(blocks, n_alpha=100, n_b=100)
    _ = hybrid.tables
    build_time = time.perf_counter() - start

    # Queries fill only the columns their interpolation stencil reads.
    start = time.perf_counter()
    HybridAnalyzer(blocks, n_alpha=100, n_b=100).reliability(times)
    first_query_time = time.perf_counter() - start

    n_profiles = 20
    scales = np.linspace(0.5, 1.5, n_profiles)

    start = time.perf_counter()
    for s in scales:
        hybrid.reliability(times, alphas=alphas * s, bs=bs)
    hybrid_time = time.perf_counter() - start

    start = time.perf_counter()
    for s in scales:
        from repro.core.ensemble import BlockReliability, StFastAnalyzer

        profile_blocks = [
            BlockReliability(blod=b.blod, alpha=b.alpha * s, b=b.b)
            for b in blocks
        ]
        StFastAnalyzer(profile_blocks).reliability(times)
    st_fast_time = time.perf_counter() - start

    benchmark.pedantic(
        lambda: hybrid.reliability(times, alphas=alphas * 1.1, bs=bs),
        rounds=10,
        iterations=1,
    )

    per_query_hybrid = hybrid_time / n_profiles
    per_query_fast = st_fast_time / n_profiles
    breakeven = build_time / max(per_query_fast - per_query_hybrid, 1e-9)
    report.line("Ablation - LUT reuse economics (20 application profiles)")
    report.line()
    report.table(
        ["quantity", "value"],
        [
            ["table build (every column)", f"{build_time * 1e3:.0f} ms"],
            [
                "first query (on-demand columns)",
                f"{first_query_time * 1e3:.1f} ms",
            ],
            ["hybrid per profile", f"{per_query_hybrid * 1e3:.2f} ms"],
            ["st_fast per profile", f"{per_query_fast * 1e3:.2f} ms"],
            ["break-even profiles", f"{breakeven:.1f}"],
        ],
    )
    # The query path must be much cheaper than re-integration.
    assert per_query_hybrid < per_query_fast
