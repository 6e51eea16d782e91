"""Fig. 8 — CDF of the BLOD-variance quadratic form vs its chi-square fit.

The paper compares the Monte-Carlo CDF of a sample variance v_j (a
quadratic normal form) with the two-moment chi-square approximation of
eq. (29)-(30) and shows close agreement. This bench adds the Imhof exact
inversion and the three-moment HBE refinement as extra reference curves.
"""

from __future__ import annotations

import numpy as np

from benchmarks.design_cache import prepared_analyzer


def _hardest_blod():
    analyzer = prepared_analyzer("C3")
    spans = [a.grid_indices.size for a in analyzer.sampler.assignments]
    return analyzer.blods[int(np.argmax(spans))]


def test_fig8_chi2_approximation_cdf(report, benchmark):
    blod = _hardest_blod()
    form = blod.v_quadratic_form()
    match = blod.v_chi2_match(include_residual_fluctuation=False)

    samples = benchmark.pedantic(
        lambda: form.sample(np.random.default_rng(2024), 400_000),
        rounds=1,
        iterations=1,
    )

    quantiles = np.array([0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99])
    xs = np.quantile(samples, quantiles)
    rows = []
    max_err_chi2 = 0.0
    for q, x in zip(quantiles, xs, strict=True):
        chi2_cdf = float(match.cdf(float(x)))
        imhof_cdf = form.imhof_cdf(float(x))
        hbe_cdf = float(form.hbe_match().cdf(float(x))) if form.var() > 0 else chi2_cdf
        max_err_chi2 = max(max_err_chi2, abs(chi2_cdf - q))
        rows.append(
            [
                f"{x:.3e}",
                f"{q:.3f}",
                f"{chi2_cdf:.3f}",
                f"{hbe_cdf:.3f}",
                f"{imhof_cdf:.3f}",
            ]
        )

    report.line("Fig. 8 - BLOD variance distribution vs chi^2 approximation")
    report.line()
    report.line(
        f"block {blod.name}: E[v]={form.mean():.3e} nm^2, "
        f"sd[v]={form.std():.3e} nm^2, skew={form.skewness():.2f}"
    )
    report.line()
    report.table(
        ["v", "MC CDF", "chi2 fit", "HBE fit", "Imhof exact"], rows
    )
    report.line()
    report.line(f"max |chi2 - MC| CDF error: {max_err_chi2:.4f}")

    # Paper shape: the chi-square approximation tracks the MC CDF closely.
    # The hardest block's form is dominated by a handful of eigenvalues
    # (strongly skewed), where the two-moment fit peaks around 7 % — the
    # same visual agreement class as the paper's Fig. 8; the HBE
    # three-moment refinement (footnote 4's "more moments") tightens it.
    assert max_err_chi2 < 0.09
    # Imhof agrees with MC even more tightly.
    mid = float(np.quantile(samples, 0.5))
    assert abs(form.imhof_cdf(mid) - 0.5) < 0.01


def test_fig8_approximation_quality_across_blocks(report, benchmark):
    """The fit holds for every block of the design, not just the showcased
    one."""
    analyzer = prepared_analyzer("C3")
    rows = []
    worst = 0.0
    for blod in analyzer.blods:
        form = blod.v_quadratic_form()
        if form.is_degenerate:
            rows.append([blod.name, "degenerate", "-"])
            continue
        match = blod.v_chi2_match(include_residual_fluctuation=False)
        samples = form.sample(np.random.default_rng(7), 100_000)
        errs = [
            abs(float(match.cdf(float(np.quantile(samples, q)))) - q)
            for q in (0.1, 0.5, 0.9)
        ]
        worst = max(worst, max(errs))
        rows.append([blod.name, f"{form.std():.2e}", f"{max(errs):.4f}"])
    benchmark.pedantic(
        lambda: _hardest_blod().v_chi2_match(), rounds=3, iterations=1
    )
    report.line("chi^2 fit quality per block (max CDF error at q=0.1/0.5/0.9)")
    report.table(["block", "sd[v]", "max CDF err"], rows)
    assert worst < 0.09
