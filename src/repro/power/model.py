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


def block_inputs(
    floorplan: Floorplan, profile: ActivityProfile
) -> tuple[np.ndarray, np.ndarray]:
    """Block areas (mm^2) and activity factors, floorplan order.

    A factor named for a block the floorplan lacks is rejected, as
    :meth:`Floorplan.with_powers` rejects unknown names: a misspelt
    block would otherwise run at the profile's default.  Blocks the
    profile does not name take its default (:meth:`ActivityProfile.factor`).
    """
    unknown = profile.factors.keys() - set(floorplan.block_names)
    if unknown:
        raise ConfigurationError(
            f"activity profile {profile.name!r} names blocks not on the "
            f"floorplan: {sorted(unknown)}"
        )
    areas = np.array([block.rect.area for block in floorplan.blocks])
    activities = np.array([profile.factor(block.name) for block in floorplan.blocks])
    return areas, activities


class BlockPowerModel:
    """Computes block power from activity and temperature.

    Every formula takes floats or equal-length arrays (one entry per
    block) and works elementwise in one operation order, so a block's
    power is the same float alone or in a floorplan's power vector.
    """

    def __init__(self, params: PowerModelParams | None = None) -> None:
        self.params = params if params is not None else PowerModelParams()

    def dynamic_power(
        self, area: float | np.ndarray, activity: float | np.ndarray
    ) -> float | np.ndarray:
        """Dynamic power in watts."""
        p = self.params
        return activity * p.switched_cap_density * area * p.vdd**2 * p.frequency

    def leakage_power(
        self, area: float | np.ndarray, temperature: float | np.ndarray
    ) -> float | np.ndarray:
        """Leakage power at ``temperature`` (celsius), watts.

        Infinite where the exponential overflows float64 (thermal
        runaway); the power-thermal loop reports that as non-convergence.
        """
        p = self.params
        # Past ln(DBL_MAX) the leakage is inf, as is a product that
        # overflows just below it: silently, as in float arithmetic, not
        # with numpy's overflow (or, for a zero area, 0 * inf) warnings.
        with np.errstate(over="ignore", invalid="ignore"):
            exponent = p.leak_temp_slope * (
                np.asarray(temperature, dtype=float) - p.leak_temp_ref
            )
            leakage = np.where(
                exponent > _MAX_EXP_ARG,
                np.inf,
                p.leak_density_ref * area * np.exp(exponent),
            )
        return float(leakage) if leakage.ndim == 0 else leakage

    def block_power(
        self,
        area: float | np.ndarray,
        activity: float | np.ndarray,
        temperature: float | np.ndarray,
    ) -> float | np.ndarray:
        """Total block power: dynamic plus leakage."""
        return self.dynamic_power(area, activity) + self.leakage_power(
            area, temperature
        )

    def block_powers(
        self,
        floorplan: Floorplan,
        profile: ActivityProfile,
        block_temperatures: np.ndarray | None = None,
    ) -> np.ndarray:
        """Per-block powers (watts, floorplan order) under a workload profile.

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
        areas, activities = block_inputs(floorplan, profile)
        return np.asarray(self.block_power(areas, activities, block_temperatures))

    def floorplan_powers(
        self,
        floorplan: Floorplan,
        profile: ActivityProfile,
        block_temperatures: np.ndarray | None = None,
    ) -> dict[str, float]:
        """:meth:`block_powers` keyed by block name."""
        powers = self.block_powers(floorplan, profile, block_temperatures)
        return dict(zip(floorplan.block_names, powers.tolist(), strict=True))
