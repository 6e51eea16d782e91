"""Traditional guard-band baseline (eq. (33)-(34), refs [4], [14], [28]).

The conventional flow assumes every device on every chip has the *minimum*
oxide thickness and runs at the *worst-case* temperature for its entire
lifetime. The chip reliability is then a single area-scaled Weibull and
the required lifetime has the closed form of eq. (34). The paper shows
this is ~50 % pessimistic versus the statistical analysis (Table III).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.closed_form import check_times
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class GuardBandAnalyzer:
    """Deterministic worst-corner reliability model.

    Parameters
    ----------
    total_area:
        Chip's total normalized oxide area ``A``.
    alpha_worst:
        Characteristic life at the worst-case operating temperature.
    b_worst:
        Weibull slope coefficient at the worst-case temperature.
    x_min:
        Minimum (guard-band) oxide thickness in nm, typically nominal
        minus three total sigma.
    """

    total_area: float
    alpha_worst: float
    b_worst: float
    x_min: float

    def __post_init__(self) -> None:
        for name in ("total_area", "alpha_worst", "b_worst", "x_min"):
            if getattr(self, name) <= 0.0:
                raise ConfigurationError(f"{name} must be positive")

    @property
    def beta(self) -> float:
        """Chip-wide Weibull slope ``b_worst * x_min``."""
        return self.b_worst * self.x_min

    def reliability(self, times: np.ndarray | float) -> np.ndarray | float:
        """Eq. (33): ``R(t) = exp(-A (t/alpha)^(b x_min))``."""
        times = np.asarray(times, dtype=float)
        check_times(times)
        value = np.exp(-self.total_area * (times / self.alpha_worst) ** self.beta)
        return value if value.ndim else float(value)

    def failure_probability(self, times: np.ndarray | float) -> np.ndarray | float:
        """``1 - R(t)`` computed stably."""
        times = np.asarray(times, dtype=float)
        check_times(times)
        value = -np.expm1(
            -self.total_area * (times / self.alpha_worst) ** self.beta
        )
        return value if value.ndim else float(value)

    def lifetime(self, reliability_target: float) -> float:
        """Eq. (34): ``t_req = alpha (-ln(R_req)/A)^(1/(b x_min))``."""
        if not 0.0 < reliability_target < 1.0:
            raise ConfigurationError(
                f"reliability target must be in (0, 1), got {reliability_target}"
            )
        return float(
            self.alpha_worst
            * (-np.log(reliability_target) / self.total_area)
            ** (1.0 / self.beta)
        )
