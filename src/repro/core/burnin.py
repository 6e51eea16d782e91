"""Burn-in and screening analysis on top of the statistical OBD model.

Production flows stress chips briefly at elevated voltage/temperature
("burn-in") to weed out defective parts before shipment. Whether that
helps depends on the failure population:

- *intrinsic* OBD (this paper's model) is a wearout mechanism with a
  Weibull slope well above 1 — burn-in only consumes intrinsic life;
- *extrinsic* (defect-related) breakdown of weak oxide spots has a slope
  below 1 (infant mortality) — burn-in removes those early fails.

This module combines the paper's ensemble intrinsic model with a simple
extrinsic defect population and evaluates post-burn-in field reliability:

    R_field(t) = R_total(t_use + A_j * t_b) / R_total(A_j * t_b)

under the cumulative-exposure damage law (same as
:mod:`repro.core.mission`): burn-in time advances each block's effective
age by the per-block acceleration factor ``A_j = alpha_use_j /
alpha_stress``. Given a warranty window it finds the burn-in duration
minimising field failures — the classic screening trade-off, now with
process variation and temperature awareness included.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.analyzer import ReliabilityAnalyzer
from repro.core.closed_form import _EXP_MAX, _EXP_MIN
from repro.core.ensemble import midpoint_block_rules
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class ExtrinsicDefectModel:
    """A weak-oxide (defect) failure population.

    Defects are rare, spatially random weak spots whose breakdown time is
    Weibull with slope below 1 (decreasing hazard). The population is
    characterised per unit normalized oxide area, so the chip-level term is
    ``exp(-A_total * density * (t / alpha)^beta)`` — deterministic across
    the ensemble (defectivity, unlike thickness, is not modelled as
    spatially correlated).

    Parameters
    ----------
    density:
        Expected defects per unit normalized oxide area.
    alpha:
        Characteristic life of a defect at use conditions, hours.
    beta:
        Weibull slope of the defect population (< 1: infant mortality).
    acceleration:
        Burn-in acceleration factor on the defect time scale (the ratio
        ``alpha_use / alpha_stress`` at the burn-in condition).
    """

    density: float = 1.0e-9
    alpha: float = 1.0e7
    beta: float = 0.4
    acceleration: float = 500.0

    def __post_init__(self) -> None:
        if self.density < 0.0:
            raise ConfigurationError("defect density must be >= 0")
        if self.alpha <= 0.0 or self.beta <= 0.0:
            raise ConfigurationError("alpha and beta must be positive")
        if not self.beta < 1.0:
            raise ConfigurationError(
                "extrinsic slope must be < 1 (infant mortality); use the "
                "intrinsic model for wearout populations"
            )
        if self.acceleration < 1.0:
            raise ConfigurationError("burn-in must accelerate (factor >= 1)")

    def exponent(self, total_area: float, t_use: float, t_stress: float) -> float:
        """Weibull exponent after ``t_stress`` of burn-in + ``t_use`` field.

        Damage adds on the *effective* (stress-equivalent) time axis.
        """
        effective = t_use + self.acceleration * t_stress
        return (
            total_area * self.density * (effective / self.alpha) ** self.beta
        )


class BurnInAnalyzer:
    """Field-reliability evaluation with a burn-in screening step.

    Parameters
    ----------
    analyzer:
        Prepared design analysis (supplies BLODs, intrinsic OBD params and
        the total oxide area).
    burnin_temperature:
        Burn-in junction temperature (celsius), applied chip-wide.
    burnin_vdd:
        Burn-in stress voltage.
    defects:
        Extrinsic defect population; ``None`` disables it (pure intrinsic
        analysis, where burn-in can only hurt).
    l0, tail:
        Integration controls.
    """

    def __init__(
        self,
        analyzer: ReliabilityAnalyzer,
        burnin_temperature: float = 125.0,
        burnin_vdd: float = 1.5,
        defects: ExtrinsicDefectModel | None = None,
        l0: int | None = None,
        tail: float | None = None,
    ) -> None:
        self.analyzer = analyzer
        self.defects = defects
        stress = analyzer.obd_model.device_params(burnin_temperature, burnin_vdd)
        self._stress_alpha = stress.alpha
        self._stress_b = stress.b
        self._use_alphas = np.array([b.alpha for b in analyzer.blocks])
        self._use_bs = np.array([b.b for b in analyzer.blocks])
        cfg = analyzer.config
        l0 = l0 if l0 is not None else cfg.l0
        tail = tail if tail is not None else cfg.tail
        self._rules = midpoint_block_rules(
            analyzer.blods, l0, tail, cfg.include_residual_fluctuation
        )

    def _block_survival_expectation(
        self, index: int, t_use: float, t_stress: float
    ) -> float:
        """``E[exp(-A_j g(effective age))]`` for one block.

        Burn-in time is converted to equivalent field time through the
        block's acceleration factor ``alpha_use / alpha_stress``
        (cumulative-exposure law), then the standard eq. (17) closed form
        applies at the block's field parameters.
        """
        blod = self.analyzer.blods[index]
        u_rule, v_rule = self._rules[index]
        alpha_use = self._use_alphas[index]
        b_use = self._use_bs[index]
        acceleration = alpha_use / self._stress_alpha
        effective = t_use + acceleration * t_stress
        if effective <= 0.0:
            return 1.0
        u = u_rule.points[:, None]
        v = v_rule.points[None, :]
        scaled = b_use * np.log(effective / alpha_use)
        log_g = scaled * u + 0.5 * scaled**2 * v
        exponent = np.exp(
            np.clip(np.log(blod.area) + log_g, _EXP_MIN, _EXP_MAX)
        )
        survival = np.exp(-np.clip(exponent, 0.0, -_EXP_MIN))
        return float(u_rule.weights @ survival @ v_rule.weights)

    def survival(self, t_use: float, t_burnin: float) -> float:
        """Probability a chip survives burn-in plus ``t_use`` field hours."""
        if t_use < 0.0 or t_burnin < 0.0:
            raise ConfigurationError("durations must be non-negative")
        failure = 0.0
        for j in range(len(self.analyzer.blods)):
            failure += 1.0 - self._block_survival_expectation(
                j, t_use, t_burnin
            )
        intrinsic = max(1.0 - failure, 0.0)
        if self.defects is None:
            return intrinsic
        extrinsic = np.exp(
            -np.clip(
                self.defects.exponent(
                    self.analyzer.floorplan.total_oxide_area, t_use, t_burnin
                ),
                0.0,
                -_EXP_MIN,
            )
        )
        return intrinsic * float(extrinsic)

    def burnin_yield(self, t_burnin: float) -> float:
        """Fraction of chips surviving the burn-in stress itself."""
        return self.survival(0.0, t_burnin)

    def field_failure_probability(
        self, warranty_hours: float, t_burnin: float
    ) -> float:
        """P(chip fails in the field within the warranty | passed burn-in)."""
        if warranty_hours <= 0.0:
            raise ConfigurationError("warranty window must be positive")
        passed = self.burnin_yield(t_burnin)
        if passed <= 0.0:
            raise ConfigurationError("burn-in kills every chip; shorten it")
        return 1.0 - self.survival(warranty_hours, t_burnin) / passed

    def optimize_burnin(
        self,
        warranty_hours: float,
        candidates: np.ndarray,
    ) -> tuple[float, dict[float, float]]:
        """Pick the candidate burn-in duration minimising field failures.

        Returns ``(best_duration, {duration: field_failure_prob})``; a
        duration of 0 (no burn-in) should be among the candidates so the
        sweep can conclude burn-in does not pay (the intrinsic-only case).
        """
        candidates = np.asarray(candidates, dtype=float)
        if candidates.size == 0 or np.any(candidates < 0.0):
            raise ConfigurationError("need non-negative candidate durations")
        curve = {
            float(t_b): self.field_failure_probability(warranty_hours, float(t_b))
            for t_b in candidates
        }
        best = min(curve, key=curve.get)
        return best, curve
