"""Ablation — integration rule for the eq. (28) double integrals.

Design choice called out in DESIGN.md: the paper's l0 x l0 midpoint
sub-domain rule (l0 = 10) versus Gauss-Hermite/quantile rules versus
adaptive scipy quadrature. Checks that l0 = 10 is converged (the paper's
claim) and reports the accuracy/cost trade-off.
"""

from __future__ import annotations

import time

import numpy as np

from benchmarks.design_cache import prepared_analyzer
from repro.core.ensemble import StFastAnalyzer
from repro.stats.integration import expectation_2d_adaptive


def test_ablation_l0_convergence(report, benchmark):
    analyzer = prepared_analyzer("C2")
    blocks = analyzer.blocks
    t10 = analyzer.lifetime(10)
    times = np.array([t10 / 3.0, t10, 3.0 * t10])

    reference = StFastAnalyzer(blocks, l0=120).failure_probability(times)
    rows = []
    errors = {}
    for l0 in (4, 6, 10, 20, 40):
        start = time.perf_counter()
        fast = StFastAnalyzer(blocks, l0=l0)
        f = fast.failure_probability(times)
        elapsed = time.perf_counter() - start
        err = float(np.max(np.abs(f / reference - 1.0)))
        errors[l0] = err
        rows.append([l0, f"{err:.2e}", f"{elapsed * 1e3:.1f}"])

    benchmark.pedantic(
        lambda: StFastAnalyzer(blocks, l0=10).failure_probability(times),
        rounds=3,
        iterations=1,
    )

    report.line("Ablation - midpoint rule l0 convergence (design C2)")
    report.line()
    report.table(["l0", "max rel err vs l0=120", "setup+eval (ms)"], rows)

    # Paper claim: l0 = 10 is already a reasonable number.
    assert errors[10] < 0.02
    # And the rule converges monotonically (up to tiny noise).
    assert errors[40] <= errors[4]


def test_ablation_rule_family_agreement(report, benchmark):
    analyzer = prepared_analyzer("C2")
    blocks = analyzer.blocks
    t10 = analyzer.lifetime(10)
    times = np.array([t10])

    midpoint = StFastAnalyzer(blocks, l0=10, rule="midpoint")
    gauss = StFastAnalyzer(blocks, l0=16, rule="gauss")
    f_mid = float(midpoint.failure_probability(times)[0])
    f_gauss = float(gauss.failure_probability(times)[0])

    # Adaptive scipy dblquad on the largest block as the exact reference.
    j = int(np.argmax([b.blod.area for b in blocks]))
    block = blocks[j]
    log_t_ratio = float(np.log(t10 / block.alpha))

    def integrand(u, v):
        from repro.core.closed_form import block_survival

        return block_survival(u, v, np.array([log_t_ratio]), block.b,
                              block.blod.area)[0]

    start = time.perf_counter()
    exact_block = 1.0 - expectation_2d_adaptive(
        integrand, block.blod.u_dist(), block.blod.v_chi2_match()
    )
    t_exact = time.perf_counter() - start
    f_mid_block = float(midpoint.block_failure_probabilities(times)[j][0])

    benchmark.pedantic(
        lambda: midpoint.block_failure_probabilities(times), rounds=5, iterations=1
    )

    report.line("Ablation - integration rule family agreement (10ppm point)")
    report.line()
    report.table(
        ["rule", "chip failure prob"],
        [
            ["midpoint l0=10", f"{f_mid:.6e}"],
            ["gauss-hermite/quantile", f"{f_gauss:.6e}"],
        ],
    )
    report.line()
    report.line(
        f"largest block: midpoint={f_mid_block:.6e}, "
        f"dblquad={exact_block:.6e} ({t_exact * 1e3:.0f} ms)"
    )
    assert f_gauss == f_mid or abs(f_gauss / f_mid - 1.0) < 0.05
    assert abs(f_mid_block / exact_block - 1.0) < 0.02
