"""Extension bench — mission-profile management vs static analyses.

Not a paper artifact: this exercises the "reliability management"
extension DESIGN.md lists (cumulative-exposure damage over operating
phases, a residency scenario) and cross-validates the closed-form mission
lifetime against a Monte-Carlo simulation with explicitly mixed stress.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from benchmarks.design_cache import prepared_analyzer
from repro.scenario import (
    Scenario,
    ScenarioAnalyzer,
    StressPhase,
    phase_dose_shares,
)


def _mission(*phases: StressPhase) -> Scenario:
    return Scenario(phases=phases, composition="residency")


def test_ext_mission_vs_static_bounds(report, benchmark):
    analyzer = prepared_analyzer("C2")
    temps = analyzer.block_temperatures

    profile = _mission(
        StressPhase("idle", fraction=0.5, temperature_c=temps - 25.0),
        StressPhase("typical", fraction=0.4, temperature_c=temps),
        StressPhase("turbo", fraction=0.1, temperature_c=temps + 10.0, vdd=1.27),
    )
    mission = benchmark.pedantic(
        lambda: ScenarioAnalyzer(analyzer, profile), rounds=3, iterations=1
    )
    lt_mission = mission.lifetime(10)
    bounds = {}
    for phase in profile.phases:
        single = ScenarioAnalyzer(
            analyzer, _mission(replace(phase, fraction=1.0))
        )
        bounds[phase.name] = single.lifetime(10)

    report.line("Extension - mission-profile lifetime vs constant-phase bounds")
    report.line()
    report.table(
        ["scenario", "10ppm lifetime (h)", "years"],
        [
            *(
                [name, f"{lt:.3e}", f"{lt / 8766:.1f}"]
                for name, lt in bounds.items()
            ),
            ["mission (50/40/10)", f"{lt_mission:.3e}", f"{lt_mission / 8766:.1f}"],
        ],
    )

    worst = min(bounds.values())
    best = max(bounds.values())
    assert worst < lt_mission < best
    # The damage-share diagnostic is consistent: turbo ages blocks faster
    # than its time share.
    shares = phase_dose_shares(profile.fractions, mission.alphas)
    assert np.all(shares[2] > 0.1)


def test_ext_mission_matches_mixed_stress_mc(report, benchmark):
    """Cross-validate the cumulative-exposure closed form against MC with
    per-block harmonic-effective alphas applied in the MC engine (the same
    damage law evaluated by brute force)."""
    from repro.core.ensemble import BlockReliability
    from repro.core.montecarlo import MonteCarloEngine
    from repro.scenario import effective_block_params

    analyzer = prepared_analyzer("C1")
    temps = analyzer.block_temperatures
    profile = _mission(
        StressPhase("cool", fraction=0.7, temperature_c=temps - 15.0),
        StressPhase("hot", fraction=0.3, temperature_c=temps + 10.0),
    )
    mission = ScenarioAnalyzer(analyzer, profile)

    alpha_eff, b_eff = effective_block_params(
        profile.fractions, mission.alphas, mission.bs
    )
    blocks_eff = [
        BlockReliability(blod=b.blod, alpha=float(a), b=float(bb))
        for b, a, bb in zip(analyzer.blocks, alpha_eff, b_eff, strict=True)
    ]
    engine = MonteCarloEngine(analyzer.sampler, blocks_eff, chunk_size=100)

    lt_mission = mission.lifetime(10)
    times = np.logspace(
        np.log10(lt_mission) - 0.4, np.log10(lt_mission) + 0.4, 7
    )
    curve = benchmark.pedantic(
        lambda: engine.reliability_curve(
            times, 300, np.random.default_rng(5)
        ),
        rounds=1,
        iterations=1,
    )
    f_mc = curve.failure_probability()
    f_cf = np.asarray(mission.failure_probability(times))
    mask = f_cf > 1e-9
    worst = float(np.max(np.abs(f_mc[mask] / f_cf[mask] - 1.0)))
    report.line(
        f"mission closed form vs per-device MC at effective conditions: "
        f"worst relative gap {worst:.2%} over {int(mask.sum())} points"
    )
    assert worst < 0.2
