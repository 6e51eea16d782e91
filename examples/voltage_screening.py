"""Supply-voltage screening: how much headroom does accurate analysis buy?

The paper's introduction argues that pessimism in OBD analysis directly
limits the maximum operating voltage (and hence performance). This example
makes that concrete: for a ten-year, ten-per-million reliability target it
finds the maximum Vdd admitted by (a) the guard-band flow and (b) the
temperature-aware statistical flow, then reports the reclaimed headroom
and its frequency value under a simple alpha-power delay model.

Run:  python examples/voltage_screening.py
"""

from __future__ import annotations

from repro import AnalysisConfig, ReliabilityAnalyzer, make_benchmark
from repro.core.voltage import max_vdd_for_target
from repro.units import years_to_hours

TARGET_YEARS = 10.0
TARGET_PPM = 10.0


def relative_frequency(vdd: float, vth: float = 0.35, power: float = 1.3) -> float:
    """Alpha-power-law frequency relative to 1.2 V."""
    ref = (1.2 - vth) ** power / 1.2
    return ((vdd - vth) ** power / vdd) / ref


def main() -> None:
    floorplan = make_benchmark("C2")
    config = AnalysisConfig(grid_size=15)  # slightly coarse grid: fast sweeps
    print(
        f"design C2 ({floorplan.n_devices:,} devices); target: "
        f"{TARGET_PPM:g}-per-million lifetime >= {TARGET_YEARS:g} years"
    )
    print()

    # Each probed Vdd is an operating point of this one analysis: the
    # design model (grid, BLODs, rule tables) is built once.
    analyzer = ReliabilityAnalyzer(floorplan, config=config)
    results = {}
    for method in ("guard", "temp_unaware", "st_fast"):
        vdd = max_vdd_for_target(
            analyzer,
            years_to_hours(TARGET_YEARS),
            ppm=TARGET_PPM,
            method=method,
            vdd_range=(1.0, 2.0),
        ).max_vdd
        results[method] = vdd
        print(
            f"max Vdd by {method:>12}: {vdd:.3f} V "
            f"(relative frequency {relative_frequency(vdd):.3f})"
        )

    headroom = results["st_fast"] - results["guard"]
    speedup = relative_frequency(results["st_fast"]) / relative_frequency(
        results["guard"]
    )
    print()
    print(
        f"statistical analysis reclaims {headroom * 1000:.0f} mV of supply "
        f"headroom over the guard-band flow ({speedup - 1.0:.1%} frequency)"
    )
    assert results["guard"] <= results["temp_unaware"] <= results["st_fast"]


if __name__ == "__main__":
    main()
