"""Architectural block power model (Wattch-like substrate).

Per-block power is the classic decomposition

    P = activity * C_eff_density * area * Vdd^2 * f   (dynamic)
      + leak_density(T) * area                        (leakage)

with an exponential temperature dependence for subthreshold leakage. The
absolute calibration constants are representative of a high-performance
process; only the *relative* block powers and the resulting temperature
spread matter to the reliability analysis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.chip.floorplan import Floorplan
from repro.errors import ConfigurationError
from repro.power.activity import ActivityProfile

#: Largest argument ``np.exp`` maps to a finite float64.
_MAX_EXP_ARG = float(np.log(np.finfo(float).max))


@dataclass(frozen=True)
class PowerModelParams:
    """Calibration constants of the block power model.

    Parameters
    ----------
    switched_cap_density:
        Effective switched capacitance per unit area at full activity,
        F/mm^2.
    frequency:
        Clock frequency in Hz.
    vdd:
        Supply voltage in volts.
    leak_density_ref:
        Leakage power density at the reference temperature, W/mm^2.
    leak_temp_ref:
        Reference temperature for leakage, celsius.
    leak_temp_slope:
        Exponential leakage-temperature coefficient, 1/K (leakage roughly
        doubles every ~20-30 K, i.e. slope ~0.025-0.035).
    """

    switched_cap_density: float = 2.5e-10
    frequency: float = 2.0e9
    vdd: float = 1.2
    leak_density_ref: float = 0.03
    leak_temp_ref: float = 60.0
    leak_temp_slope: float = 0.02

    def __post_init__(self) -> None:
        for name in (
            "switched_cap_density",
            "frequency",
            "vdd",
            "leak_density_ref",
        ):
            if getattr(self, name) <= 0.0:
                raise ConfigurationError(f"{name} must be positive")
        if self.leak_temp_slope < 0.0:
            raise ConfigurationError("leak_temp_slope must be non-negative")


class BlockPowerModel:
    """Computes per-block power from activity and temperature."""

    def __init__(self, params: PowerModelParams | None = None) -> None:
        self.params = params if params is not None else PowerModelParams()

    def dynamic_power(self, area: float, activity: float) -> float:
        """Dynamic power of a block in watts."""
        p = self.params
        return activity * p.switched_cap_density * area * p.vdd**2 * p.frequency

    def leakage_power(self, area: float, temperature: float) -> float:
        """Leakage power of a block at ``temperature`` (celsius), watts.

        Infinite once the exponential overflows float64 (thermal
        runaway); the power-thermal loop reports that as non-convergence.
        """
        p = self.params
        exponent = p.leak_temp_slope * (temperature - p.leak_temp_ref)
        if exponent > _MAX_EXP_ARG:
            # np.exp would warn about the overflow before returning inf.
            return math.inf
        factor = np.exp(exponent)
        return p.leak_density_ref * area * float(factor)

    def block_power(
        self, area: float, activity: float, temperature: float
    ) -> float:
        """Total block power: dynamic plus leakage."""
        return self.dynamic_power(area, activity) + self.leakage_power(
            area, temperature
        )

    def floorplan_powers(
        self,
        floorplan: Floorplan,
        profile: ActivityProfile,
        block_temperatures: np.ndarray | None = None,
    ) -> dict[str, float]:
        """Per-block powers for a floorplan under a workload profile.

        ``block_temperatures`` (celsius, floorplan order) feeds the leakage
        term; defaults to the leakage reference temperature everywhere.
        """
        if block_temperatures is None:
            block_temperatures = np.full(
                floorplan.n_blocks, self.params.leak_temp_ref
            )
        block_temperatures = np.asarray(block_temperatures, dtype=float)
        if block_temperatures.shape != (floorplan.n_blocks,):
            raise ConfigurationError(
                f"expected {floorplan.n_blocks} block temperatures, got "
                f"shape {block_temperatures.shape}"
            )
        return {
            block.name: self.block_power(
                block.rect.area,
                profile.factor(block.name),
                float(block_temperatures[j]),
            )
            for j, block in enumerate(floorplan.blocks)
        }
