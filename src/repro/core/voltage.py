"""Supply-voltage screening: the maximum Vdd meeting a lifetime target.

The paper's introduction frames the value of accurate OBD analysis in
exactly these terms: "any pessimism in oxide reliability analysis limits
the maximum operating voltage and thus the maximum achievable
chip-performance". This module solves the inverse problem — given a ppm
lifetime target, find the largest supply voltage each analysis method
admits — and prices the difference in frequency with an alpha-power-law
delay model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import optimize

from repro.core.analyzer import ReliabilityAnalyzer
from repro.errors import ConfigurationError, NumericalError


@dataclass(frozen=True)
class VoltageScreeningResult:
    """Outcome of a max-Vdd search for one method."""

    method: str
    max_vdd: float
    target_hours: float
    ppm: float

    def relative_frequency(
        self, vth: float = 0.35, alpha_power: float = 1.3, v_ref: float = 1.2
    ) -> float:
        """Alpha-power-law frequency relative to ``v_ref``."""
        if self.max_vdd <= vth:
            raise ConfigurationError("Vdd at or below threshold voltage")
        ref = (v_ref - vth) ** alpha_power / v_ref
        return ((self.max_vdd - vth) ** alpha_power / self.max_vdd) / ref


def max_vdd_for_target(
    analyzer: ReliabilityAnalyzer,
    target_hours: float,
    ppm: float = 10.0,
    method: str = "st_fast",
    vdd_range: tuple[float, float] = (0.9, 2.0),
    tolerance: float = 1e-4,
) -> VoltageScreeningResult:
    """Largest Vdd whose ``ppm`` lifetime still meets ``target_hours``.

    Each probed voltage is an operating point of the prepared analysis
    (:meth:`ReliabilityAnalyzer.at`): the design model is reused, and
    temperatures are held at the analyzer's profile — voltage-dependent
    self-heating can be layered on by the caller via explicit block
    temperatures.

    Raises
    ------
    NumericalError
        When the target is unreachable even at the low end, or already met
        at the high end (widen ``vdd_range``).
    """
    if target_hours <= 0.0:
        raise ConfigurationError("target lifetime must be positive")
    lo, hi = vdd_range
    if not 0.0 < lo < hi:
        raise ConfigurationError("vdd_range must be positive and increasing")

    def margin(vdd: float) -> float:
        probe = analyzer.at(analyzer.block_temperatures, vdd=vdd)
        return probe.lifetime(ppm, method=method) - target_hours

    if margin(lo) < 0.0:
        raise NumericalError(
            f"lifetime target not met even at Vdd = {lo} V"
        )
    if margin(hi) > 0.0:
        raise NumericalError(
            f"lifetime target still met at Vdd = {hi} V; widen vdd_range"
        )
    root = float(optimize.brentq(margin, lo, hi, xtol=tolerance))
    return VoltageScreeningResult(
        method=method, max_vdd=root, target_hours=target_hours, ppm=ppm
    )


def voltage_headroom(
    analyzer: ReliabilityAnalyzer,
    target_hours: float,
    ppm: float = 10.0,
    methods: tuple[str, str] = ("guard", "st_fast"),
    vdd_range: tuple[float, float] = (0.9, 2.0),
) -> dict[str, VoltageScreeningResult]:
    """Max-Vdd comparison across methods (typically guard vs statistical).

    Returns a dict keyed by method; the headroom the accurate analysis
    reclaims is ``results["st_fast"].max_vdd - results["guard"].max_vdd``.
    """
    results = {
        method: max_vdd_for_target(
            analyzer, target_hours, ppm=ppm, method=method, vdd_range=vdd_range
        )
        for method in methods
    }
    ordered = [results[m].max_vdd for m in methods]
    if not np.all(np.isfinite(ordered)):
        raise NumericalError("voltage search produced non-finite results")
    return results
