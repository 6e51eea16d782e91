"""Mission-profile reliability budgeting with burn-in screening.

Puts the library's management extensions together for a product scenario:

1. Define a duty-cycled mission (idle / typical / turbo phases) for the
   C2 design as a residency scenario of time fractions and compute the
   mission lifetime under the cumulative-exposure damage law — versus
   the naive always-worst-case number.
2. Show which phase ages which block (phase dose shares).
3. Add an extrinsic (weak-oxide defect) population and optimise the
   burn-in duration for a 5-year warranty: enough stress to screen infant
   mortality, not so much that it consumes intrinsic wearout life.  The
   intrinsic part is the ordered burn-in→field scenario.

Run:  python examples/mission_profile.py
"""

from __future__ import annotations

import numpy as np

from repro import (
    BurnInAnalyzer,
    ExtrinsicDefectModel,
    ReliabilityAnalyzer,
    make_benchmark,
)
from repro.scenario import (
    Scenario,
    ScenarioAnalyzer,
    StressPhase,
    phase_dose_shares,
)
from repro.units import hours_to_years, years_to_hours


def main() -> None:
    floorplan = make_benchmark("C2")
    analyzer = ReliabilityAnalyzer(floorplan)
    base_temps = analyzer.block_temperatures

    # --- 1. the mission: time fractions, composed as residency ----------
    profile = Scenario(
        phases=(
            StressPhase("idle", fraction=0.55, temperature_c=base_temps - 30.0),
            StressPhase("typical", fraction=0.40, temperature_c=base_temps),
            StressPhase(
                "turbo", fraction=0.05, temperature_c=base_temps + 12.0, vdd=1.28
            ),
        ),
        composition="residency",
    )
    mission = ScenarioAnalyzer(analyzer, profile)

    lt_mission = mission.lifetime(10)
    always_turbo = Scenario(
        phases=(StressPhase("turbo", temperature_c=base_temps + 12.0, vdd=1.28),)
    )
    lt_always_worst = ScenarioAnalyzer(analyzer, always_turbo).lifetime(10)
    lt_static = analyzer.lifetime(10)

    print("10-per-million lifetime, design C2:")
    print(f"  always-typical (static analysis): {hours_to_years(lt_static):7.1f} years")
    print(f"  duty-cycled mission              : {hours_to_years(lt_mission):7.1f} years")
    print(f"  always-turbo (naive worst case)  : {hours_to_years(lt_always_worst):7.1f} years")
    print()

    # --- 2. who ages what ------------------------------------------------
    shares = phase_dose_shares(profile.fractions, mission.alphas)
    hottest = int(np.argmax(base_temps))
    print(
        f"damage shares on the hottest block "
        f"({floorplan.block_names[hottest]}):"
    )
    for phase, share in zip(profile.phases, shares[:, hottest], strict=True):
        print(
            f"  {phase.name:>8}: {share:6.1%} of damage "
            f"for {phase.fraction:5.1%} of time"
        )
    print()

    # --- 3. burn-in optimisation -----------------------------------------
    defects = ExtrinsicDefectModel(
        density=5.0e-7, alpha=5.0e5, beta=0.4, acceleration=2000.0
    )
    burnin = BurnInAnalyzer(
        analyzer, burnin_temperature=125.0, burnin_vdd=1.5, defects=defects
    )
    warranty = years_to_hours(5.0)
    candidates = np.array([0.0, 2.0, 6.0, 12.0, 24.0, 48.0, 96.0, 192.0])
    best, curve = burnin.optimize_burnin(warranty, candidates)

    print("burn-in optimisation (5-year warranty, ppm of shipped parts):")
    for t_b in candidates:
        marker = "  <-- optimum" if t_b == best else ""
        print(
            f"  burn-in {t_b:6.1f} h: field failures "
            f"{curve[float(t_b)] * 1e6:9.1f} ppm{marker}"
        )
    no_burnin = curve[0.0] * 1e6
    at_best = curve[best] * 1e6
    print()
    print(
        f"screening at {best:.0f} h cuts warranty returns from "
        f"{no_burnin:.0f} to {at_best:.0f} ppm "
        f"({1.0 - at_best / no_burnin:.0%} reduction)"
    )


if __name__ == "__main__":
    main()
