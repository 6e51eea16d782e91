"""Sensitivity analysis of the chip lifetime to model parameters.

Answers the design-review question "which knob moves the ppm lifetime
most?" with central finite differences of the st_fast lifetime w.r.t. the
operating point (Vdd, temperature margin) and the process assumptions
(total variation magnitude, variance split, correlation distance). All
sensitivities are reported as elasticities — percent lifetime change per
percent parameter change — so they compare across dimensionally different
knobs.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from repro.core.analyzer import ReliabilityAnalyzer
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class SensitivityResult:
    """One parameter's lifetime elasticity."""

    parameter: str
    base_value: float
    elasticity: float
    lifetime_low: float
    lifetime_high: float

    @property
    def magnitude(self) -> float:
        """Absolute elasticity, used for tornado ordering."""
        return abs(self.elasticity)


#: Parameters the analysis knows how to perturb.
PARAMETERS = (
    "vdd",
    "temperature_margin",
    "three_sigma_ratio",
    "global_fraction",
    "rho_dist",
)


def _rebuilt_lifetime(
    analyzer: ReliabilityAnalyzer,
    ppm: float,
    parameter: str,
    value: float,
) -> float:
    """Lifetime with one parameter replaced.

    ``vdd`` and ``temperature_margin`` only move the operating point
    (:meth:`ReliabilityAnalyzer.at`); the process parameters change the
    design, which is rebuilt.
    """
    temps = analyzer.block_temperatures
    if parameter == "vdd":
        return analyzer.at(temps, vdd=value).lifetime(ppm, method="st_fast")
    if parameter == "temperature_margin":
        return analyzer.at(temps + value).lifetime(ppm, method="st_fast")
    budget = analyzer.budget
    config = analyzer.config
    if parameter == "three_sigma_ratio":
        budget = dataclasses.replace(budget, three_sigma_ratio=value)
    elif parameter == "global_fraction":
        # Move variance between the global and independent components,
        # keeping the spatial share fixed and the split normalized.
        remaining = 1.0 - value - budget.spatial_fraction
        if remaining < 0.0:
            raise ConfigurationError(
                f"global fraction {value} leaves no room for the "
                "independent component"
            )
        budget = dataclasses.replace(
            budget, global_fraction=value, independent_fraction=remaining
        )
    elif parameter == "rho_dist":
        config = dataclasses.replace(config, rho_dist=value)
    else:
        raise ConfigurationError(
            f"unknown parameter {parameter!r}; expected one of {PARAMETERS}"
        )
    rebuilt = ReliabilityAnalyzer(
        analyzer.floorplan,
        budget=budget,
        obd_model=analyzer.obd_model,
        config=config,
        block_temperatures=temps,
    )
    return rebuilt.lifetime(ppm, method="st_fast")


def _base_value(analyzer: ReliabilityAnalyzer, parameter: str) -> float:
    if parameter == "vdd":
        vdd = analyzer.config.vdd
        return vdd if vdd is not None else analyzer.obd_model.v_ref
    if parameter == "temperature_margin":
        # Margin is an additive offset; elasticity is computed against the
        # mean block temperature so "percent" has a meaning.
        return 0.0
    if parameter == "three_sigma_ratio":
        return analyzer.budget.three_sigma_ratio
    if parameter == "global_fraction":
        return analyzer.budget.global_fraction
    if parameter == "rho_dist":
        return analyzer.config.rho_dist
    raise ConfigurationError(
        f"unknown parameter {parameter!r}; expected one of {PARAMETERS}"
    )


def lifetime_sensitivities(
    analyzer: ReliabilityAnalyzer,
    ppm: float = 10.0,
    parameters: tuple[str, ...] = PARAMETERS,
    relative_step: float = 0.05,
) -> list[SensitivityResult]:
    """Central-difference lifetime elasticities for the chosen parameters.

    ``temperature_margin`` perturbs all block temperatures by +/- 2 degC
    and reports the elasticity against the mean block temperature.
    """
    if not 0.0 < relative_step < 0.5:
        raise ConfigurationError(
            f"relative step must be in (0, 0.5), got {relative_step}"
        )
    base_lifetime = analyzer.lifetime(ppm, method="st_fast")
    results: list[SensitivityResult] = []
    for parameter in parameters:
        base = _base_value(analyzer, parameter)
        if parameter == "temperature_margin":
            step = 2.0
            reference = float(np.mean(analyzer.block_temperatures))
            lo_value, hi_value = -step, step
            denom = 2.0 * step / reference
        else:
            step = relative_step * base
            lo_value, hi_value = base - step, base + step
            denom = 2.0 * relative_step
        lifetime_low = _rebuilt_lifetime(analyzer, ppm, parameter, lo_value)
        lifetime_high = _rebuilt_lifetime(analyzer, ppm, parameter, hi_value)
        elasticity = (lifetime_high - lifetime_low) / base_lifetime / denom
        results.append(
            SensitivityResult(
                parameter=parameter,
                base_value=base,
                elasticity=float(elasticity),
                lifetime_low=lifetime_low,
                lifetime_high=lifetime_high,
            )
        )
    results.sort(key=lambda r: r.magnitude, reverse=True)
    return results


def tornado_text(results: list[SensitivityResult], width: int = 40) -> str:
    """A text tornado chart of the sensitivities."""
    if not results:
        raise ConfigurationError("no sensitivity results to render")
    peak = max(r.magnitude for r in results) or 1.0
    lines = []
    for r in results:
        bar_len = int(round(width * r.magnitude / peak))
        bar = ("+" if r.elasticity >= 0 else "-") * max(bar_len, 1)
        lines.append(
            f"{r.parameter:>20} {r.elasticity:+8.2f}  {bar}"
        )
    return "\n".join(lines)
