"""Ablation — MC device handling: exact per-device vs binned multinomial.

The binned mode is distributionally equivalent to per-device sampling up
to the residual-thickness quantisation (DESIGN.md substitution note).
This bench quantifies both the agreement and the speedup, and sweeps the
bin count to show convergence.
"""

from __future__ import annotations

import math
import time

import numpy as np

from benchmarks.design_cache import prepared_analyzer
from repro.core.montecarlo import MonteCarloEngine, ResidualBinning


def test_ablation_binned_vs_exact_accuracy(report, benchmark):
    analyzer = prepared_analyzer("C1")
    t10 = analyzer.lifetime(10)
    times = np.logspace(np.log10(t10) - 0.4, np.log10(t10) + 0.6, 6)
    chips = 150

    # The two modes take similar times, so one run of each can swap
    # their order on host noise alone: time them interleaved, best of
    # three.  Each run draws from the same seed and returns the same curve.
    best = {"exact": math.inf, "binned": math.inf}
    curves = {}
    for _ in range(3):
        for mode in ("exact", "binned"):
            start = time.perf_counter()
            curves[mode] = MonteCarloEngine(
                analyzer.sampler, analyzer.blocks, device_mode=mode, chunk_size=chips
            ).reliability_curve(times, chips, np.random.default_rng(4))
            best[mode] = min(best[mode], time.perf_counter() - start)
    t_exact, t_binned = best["exact"], best["binned"]
    exact, binned = curves["exact"], curves["binned"]

    f_e = exact.failure_probability()
    f_b = binned.failure_probability()
    worst = float(np.max(np.abs(f_b / np.maximum(f_e, 1e-300) - 1.0)))

    benchmark.pedantic(
        lambda: MonteCarloEngine(
            analyzer.sampler, analyzer.blocks, device_mode="binned",
            chunk_size=50,
        ).reliability_curve(times, 50, np.random.default_rng(4)),
        rounds=3,
        iterations=1,
    )

    report.line("Ablation - MC device modes on C1 (150 chips)")
    report.line()
    report.table(
        ["mode", "best of 3 (s)", "1-R at t10ppm"],
        [
            ["exact ", f"{t_exact:.2f}", f"{f_e[2]:.3e}"],
            ["binned", f"{t_binned:.2f}", f"{f_b[2]:.3e}"],
        ],
    )
    report.line()
    report.line(
        f"speedup {t_exact / t_binned:.1f}x, worst relative gap {worst:.2%} "
        "(MC noise dominates; same RNG seed but different draw order)"
    )
    assert t_binned < t_exact
    assert worst < 0.5  # same distribution within MC noise


def test_ablation_bin_count_convergence(report, benchmark):
    analyzer = prepared_analyzer("C1")
    t10 = analyzer.lifetime(10)
    times = np.array([t10])
    reference = float(
        np.asarray(analyzer.st_fast.failure_probability(times))[0]
    )
    chips = 400

    rows = []
    gaps = {}
    for n_bins in (16, 32, 64, 128, 256):
        engine = MonteCarloEngine(
            analyzer.sampler,
            analyzer.blocks,
            device_mode="binned",
            binning=ResidualBinning(n_bins=n_bins),
            chunk_size=100,
        )
        curve = engine.reliability_curve(times, chips, np.random.default_rng(9))
        f = float(curve.failure_probability()[0])
        gap = abs(f / reference - 1.0)
        gaps[n_bins] = gap
        rows.append([n_bins, f"{f:.4e}", f"{gap:.2%}"])

    benchmark.pedantic(
        lambda: MonteCarloEngine(
            analyzer.sampler,
            analyzer.blocks,
            binning=ResidualBinning(n_bins=128),
            chunk_size=100,
        ).reliability_curve(times, 100, np.random.default_rng(9)),
        rounds=3,
        iterations=1,
    )

    report.line(
        f"Ablation - residual bin count vs st_fast reference "
        f"(C1, {chips} chips, 10ppm point)"
    )
    report.line()
    report.table(["bins", "MC failure", "gap vs st_fast"], rows)
    # The default (128 bins) sits within MC noise of the reference.
    assert gaps[128] < 0.2
    assert gaps[256] < 0.2
