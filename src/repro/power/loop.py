"""Power-thermal fixed-point iteration.

Leakage grows with temperature and temperature grows with power, so block
powers and the thermal profile must be solved together. The loop converges
in a handful of iterations for any physical operating point; a failure to
converge indicates thermal runaway for the given package.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.chip.floorplan import Floorplan
from repro.errors import SolverError
from repro.obs import metrics
from repro.obs.logging import get_logger
from repro.obs.trace import span
from repro.power.activity import ActivityProfile
from repro.power.model import BlockPowerModel
from repro.thermal.hotspot import HotSpotLite, ThermalResult

logger = get_logger("power.loop")


@dataclass(frozen=True)
class PowerThermalSolution:
    """Converged workload power/temperature operating point.

    Attributes
    ----------
    floorplan:
        The input floorplan with converged per-block powers filled in.
    thermal:
        The matching thermal analysis result.
    iterations:
        Fixed-point iterations used.
    """

    floorplan: Floorplan
    thermal: ThermalResult
    iterations: int

    @property
    def block_temperatures(self) -> np.ndarray:
        """Converged per-block temperatures, celsius, floorplan order."""
        return self.thermal.block_temperatures


def solve_power_thermal(
    floorplan: Floorplan,
    profile: ActivityProfile,
    power_model: BlockPowerModel | None = None,
    thermal_model: HotSpotLite | None = None,
    max_iterations: int = 25,
    tolerance: float = 0.05,
) -> PowerThermalSolution:
    """Solve the coupled power/temperature fixed point for a workload.

    Parameters
    ----------
    floorplan:
        Design under analysis (block powers in the input are ignored and
        recomputed from the activity profile).
    profile:
        Workload activity profile.
    power_model, thermal_model:
        Substrate models; defaults are constructed when omitted.
    max_iterations:
        Iteration cap; exceeding it raises :class:`SolverError` (thermal
        runaway or an unphysical configuration).
    tolerance:
        Convergence threshold on the max block-temperature change, celsius.
    """
    power_model = power_model if power_model is not None else BlockPowerModel()
    thermal_model = thermal_model if thermal_model is not None else HotSpotLite()

    temperatures = np.full(
        floorplan.n_blocks, thermal_model.package.ambient_temperature
    )
    with span("thermal.power_loop", blocks=floorplan.n_blocks) as loop_span:
        for iteration in range(1, max_iterations + 1):
            powers = power_model.floorplan_powers(
                floorplan, profile, temperatures
            )
            # Iterate on the power vector: the floorplan (and with it the
            # block→mesh map) is the same every iteration, so it is only
            # rebuilt with the converged powers below.
            power_vector = np.fromiter(
                powers.values(), dtype=float, count=floorplan.n_blocks
            )
            if not np.all(np.isfinite(power_vector)):
                raise SolverError(
                    "power-thermal loop did not converge: block powers became "
                    f"non-finite at iteration {iteration} (possible thermal "
                    "runaway for this package)"
                )
            thermal = thermal_model.analyze(floorplan, block_powers=power_vector)
            change = float(
                np.max(np.abs(thermal.block_temperatures - temperatures))
            )
            temperatures = thermal.block_temperatures
            metrics.inc("thermal.iterations")
            logger.debug(
                "power-thermal iteration %d: max block change %.3f degC",
                iteration,
                change,
            )
            if change <= tolerance:
                loop_span.set(iterations=iteration)
                return PowerThermalSolution(
                    floorplan=floorplan.with_powers(powers),
                    thermal=thermal,
                    iterations=iteration,
                )
    raise SolverError(
        f"power-thermal loop did not converge in {max_iterations} iterations "
        "(possible thermal runaway for this package)"
    )
