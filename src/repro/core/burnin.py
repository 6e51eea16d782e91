"""Burn-in and screening analysis on top of the statistical OBD model.

Production flows stress chips briefly at elevated voltage/temperature
("burn-in") to weed out defective parts before shipment. Whether that
helps depends on the failure population:

- *intrinsic* OBD (this paper's model) is a wearout mechanism with a
  Weibull slope well above 1 — burn-in only consumes intrinsic life;
- *extrinsic* (defect-related) breakdown of weak oxide spots has a slope
  below 1 (infant mortality) — burn-in removes those early fails.

The intrinsic population is the scenario engine's ordered burn-in→field
schedule (:mod:`repro.scenario`): ``t_b`` hours at the burn-in condition,
then the design's own operating point.  Under the cumulative-exposure
law block ``j``'s dose after ``t_use`` field hours is
``t_b / alpha_stress + t_use / alpha_use_j``, so burn-in advances each
block's effective field age by its acceleration factor
``A_j = alpha_use_j / alpha_stress``.  This module adds a simple
extrinsic defect population and evaluates post-burn-in field
reliability:

    R_field(t) = R_total(t_b + t) / R_total(t_b)

Given a warranty window it finds the burn-in duration minimising field
failures — the classic screening trade-off, now with process variation
and temperature awareness included.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.core.analyzer import ReliabilityAnalyzer
from repro.core.closed_form import _EXP_MIN
from repro.errors import ConfigurationError
from repro.scenario import Scenario, ScenarioAnalyzer, StressPhase


def _check_duration(value: float, name: str) -> None:
    """Reject a negative, infinite or NaN duration, naming the argument."""
    if not 0.0 <= value < np.inf:  # NaN fails too
        raise ConfigurationError(
            f"{name} must be finite and non-negative, got {value!r}"
        )


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
        # NaN fails every comparison, so each check rejects it too.
        if not 0.0 <= self.density < np.inf:
            raise ConfigurationError(
                f"defect density must be finite and >= 0, got {self.density}"
            )
        if not 0.0 < self.alpha < np.inf:
            raise ConfigurationError(
                f"defect alpha must be finite and positive, got {self.alpha}"
            )
        if not 0.0 < self.beta < 1.0:
            raise ConfigurationError(
                "extrinsic slope beta must be in (0, 1) (infant "
                f"mortality), got {self.beta}; use the intrinsic model for "
                "wearout populations"
            )
        if not 1.0 <= self.acceleration < np.inf:
            raise ConfigurationError(
                "burn-in must accelerate: acceleration must be finite and "
                f">= 1, got {self.acceleration}"
            )

    def exponent(
        self,
        total_area: float,
        t_use: float | np.ndarray,
        t_stress: float,
    ) -> float | np.ndarray:
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
        Prepared design analysis. Its operating point is the field
        condition, and its st_fast tables evaluate the intrinsic
        population through :class:`~repro.scenario.ScenarioAnalyzer`.
    burnin_temperature:
        Burn-in junction temperature (celsius), applied chip-wide.
    burnin_vdd:
        Burn-in stress voltage.
    defects:
        Extrinsic defect population; ``None`` disables it (pure intrinsic
        analysis, where burn-in can only hurt).
    """

    def __init__(
        self,
        analyzer: ReliabilityAnalyzer,
        burnin_temperature: float = 125.0,
        burnin_vdd: float = 1.5,
        defects: ExtrinsicDefectModel | None = None,
    ) -> None:
        self.analyzer = analyzer
        self.defects = defects
        # Checked here; scenario() gives it each evaluation's duration.
        self._burnin = StressPhase(
            "burnin", temperature_c=burnin_temperature, vdd=burnin_vdd
        )

    def scenario(self, t_burnin: float) -> Scenario:
        """``t_burnin`` hours of burn-in, then the design's operating point.

        Without burn-in the field phase is the whole schedule, which the
        scenario engine evaluates as the host's st_fast, bit for bit.
        """
        _check_duration(t_burnin, "t_burnin")
        field = StressPhase("field")
        if t_burnin <= 0.0:
            return Scenario(phases=(field,))
        return Scenario(
            phases=(replace(self._burnin, duration_hours=t_burnin), field)
        )

    def _survivals(self, t_use: np.ndarray, t_burnin: float) -> np.ndarray:
        """Survival of burn-in plus each of the ``t_use`` field hours."""
        engine = ScenarioAnalyzer(self.analyzer, self.scenario(t_burnin))
        survival = engine.reliability(t_burnin + t_use)
        if self.defects is None:
            return survival
        exponent = self.defects.exponent(
            self.analyzer.floorplan.total_oxide_area, t_use, t_burnin
        )
        return survival * np.exp(-np.clip(exponent, 0.0, -_EXP_MIN))

    def survival(self, t_use: float, t_burnin: float) -> float:
        """Probability a chip survives burn-in plus ``t_use`` field hours."""
        _check_duration(t_use, "t_use")
        field_hours = np.array([t_use], dtype=float)
        return float(self._survivals(field_hours, t_burnin)[0])

    def burnin_yield(self, t_burnin: float) -> float:
        """Fraction of chips surviving the burn-in stress itself."""
        return self.survival(0.0, t_burnin)

    def field_failure_probability(
        self, warranty_hours: float, t_burnin: float
    ) -> float:
        """P(chip fails in the field within the warranty | passed burn-in)."""
        if not 0.0 < warranty_hours < np.inf:
            raise ConfigurationError(
                "warranty_hours must be finite and positive, got "
                f"{warranty_hours!r}"
            )
        passed, survived = self._survivals(
            np.array([0.0, warranty_hours], dtype=float), t_burnin
        )
        if passed <= 0.0:
            raise ConfigurationError("burn-in kills every chip; shorten it")
        return float(1.0 - survived / passed)

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
        if candidates.size == 0 or not np.all(
            (candidates >= 0.0) & (candidates < np.inf)
        ):
            raise ConfigurationError(
                "candidates must be a non-empty list of finite non-negative "
                f"durations, got {candidates.tolist()}"
            )
        curve = {
            float(t_b): self.field_failure_probability(warranty_hours, float(t_b))
            for t_b in candidates
        }
        best = min(curve, key=curve.get)
        return best, curve
