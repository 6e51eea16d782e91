"""Dynamic reliability management with the hybrid look-up tables.

The DATE 2010 title is "process variation and temperature-aware
*reliability management*": a runtime system repeatedly re-evaluates chip
reliability as workloads (and hence temperatures) change, which demands
millisecond-class evaluation. This example sets up the per-design look-up
tables once (Sec. IV-E) and then sweeps workload scenarios — each giving a
new thermal profile through the Wattch-like power model — querying the
tables for the remaining-lifetime budget of each scenario. The table
columns fill on demand: a query tabulates the columns its interpolation
reads the first time it reads them, and later queries reuse them.

Run:  python examples/reliability_management.py
"""

from __future__ import annotations

import time

import numpy as np

from repro import (
    ActivityProfile,
    ReliabilityAnalyzer,
    make_alpha_processor,
    solve_power_thermal,
)
from repro.core.lifetime import ppm_to_reliability, solve_lifetime
from repro.units import hours_to_years


def main() -> None:
    floorplan = make_alpha_processor()

    # One-time design characterisation at the nominal ("typical") profile:
    # BLODs, the hybrid's rule tables, and one nominal lifetime query,
    # which fills the table columns around the nominal (alpha, b). This
    # is the offline step.
    base = solve_power_thermal(
        floorplan, ActivityProfile.preset("typical", floorplan)
    )
    analyzer = ReliabilityAnalyzer(
        base.floorplan, block_temperatures=base.block_temperatures
    )
    start = time.perf_counter()
    hybrid = analyzer.hybrid
    analyzer.lifetime(10.0, method="hybrid")
    build_time = time.perf_counter() - start
    print(
        f"offline: {len(analyzer.blocks)} blocks' look-up tables set up and "
        f"filled at the nominal profile in {build_time:.2f} s"
    )
    print("(columns further from it fill on demand, on the query that reads them)")
    print()

    # Online: each workload scenario produces a new temperature profile,
    # hence new per-block (alpha_j, b_j); the tables are reused verbatim.
    print(
        f"{'workload':>14} {'T_max':>7} {'spread':>7} "
        f"{'10ppm lifetime':>15} {'query':>9}"
    )
    for preset in ("idle", "memory_bound", "typical", "fp_heavy", "int_heavy"):
        profile = ActivityProfile.preset(preset, floorplan)
        solution = solve_power_thermal(floorplan, profile)
        temps = solution.block_temperatures
        params = analyzer.obd_model.block_params(temps)
        alphas = np.array([p.alpha for p in params])
        bs = np.array([p.b for p in params])

        start = time.perf_counter()
        lifetime = solve_lifetime(
            lambda t: float(hybrid.reliability(t, alphas=alphas, bs=bs)),
            ppm_to_reliability(10.0),
            t_guess=1e5,
        )
        query_time = time.perf_counter() - start
        print(
            f"{preset:>14} {temps.max():>6.1f}C {np.ptp(temps):>6.1f}C "
            f"{hours_to_years(lifetime):>9.1f} years {query_time * 1e3:>6.1f} ms"
        )

    print()
    print(
        "a reliability manager can therefore re-budget after every "
        "workload change at millisecond cost."
    )


if __name__ == "__main__":
    main()
