"""Power-thermal fixed-point iteration.

Leakage grows with temperature and temperature grows with power, so block
powers and the thermal profile must be solved together. The loop converges
in a handful of iterations for any physical operating point; a failure to
converge indicates thermal runaway for the given package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.chip.floorplan import Floorplan
from repro.errors import ConfigurationError, SolverError
from repro.obs import metrics
from repro.obs.logging import get_logger
from repro.obs.trace import span
from repro.power.activity import ActivityProfile
from repro.power.model import BlockPowerModel, block_inputs
from repro.thermal.hotspot import HotSpotLite, ThermalResult

logger = get_logger("power.loop")


@dataclass(frozen=True, eq=False)
class PowerThermalSolution:
    """Converged workload power/temperature operating point.

    Only :func:`solve_power_thermal` constructs it.

    Attributes
    ----------
    input_floorplan:
        The floorplan the loop solved (its block powers are ignored).
    block_powers:
        Converged per-block powers, watts, floorplan order (read-only).
    block_temperatures:
        Converged per-block temperatures, celsius, floorplan order, from
        the thermal model's block model (:meth:`HotSpotLite.block_model`).
    iterations:
        Fixed-point iterations used.
    thermal_model:
        The thermal model the loop ran on; :attr:`thermal` solves with it.
    """

    input_floorplan: Floorplan
    block_powers: np.ndarray
    block_temperatures: np.ndarray
    iterations: int
    thermal_model: HotSpotLite = field(repr=False)

    @cached_property
    def floorplan(self) -> Floorplan:
        """The input floorplan with the converged block powers filled in.

        Built on first read (one :meth:`Floorplan.with_powers`), then
        kept; a caller that reads only temperatures never builds it.
        """
        return self.input_floorplan.with_powers(
            dict(
                zip(
                    self.input_floorplan.block_names,
                    self.block_powers.tolist(),
                    strict=True,
                )
            )
        )

    @cached_property
    def thermal(self) -> ThermalResult:
        """The cell-level thermal analysis of the converged floorplan.

        Solved on first read (one :meth:`HotSpotLite.analyze`), then
        kept.  Its ``block_temperatures``, the mesh averages, agree with
        :attr:`block_temperatures` within 1e-9 degC.
        """
        return self.thermal_model.analyze(self.floorplan)


def solve_power_thermal(
    floorplan: Floorplan,
    profile: ActivityProfile,
    power_model: BlockPowerModel | None = None,
    thermal_model: HotSpotLite | None = None,
    max_iterations: int = 25,
    tolerance: float = 0.05,
) -> PowerThermalSolution:
    """Solve the coupled power/temperature fixed point for a workload.

    Iterates on the thermal model's block model, ``T = R @ p + t0``, with
    block powers as one vector, so no iteration solves the mesh or
    rebuilds the floorplan; the cell-level field is solved only when
    :attr:`PowerThermalSolution.thermal` is read.

    Parameters
    ----------
    floorplan:
        Design under analysis (block powers in the input are ignored and
        recomputed from the activity profile).
    profile:
        Workload activity profile; a factor for a block not on the
        floorplan raises :class:`ConfigurationError`.
    power_model, thermal_model:
        Substrate models; defaults are constructed when omitted.
    max_iterations:
        Iteration cap, at least 1; exceeding it raises
        :class:`SolverError` (thermal runaway or an unphysical
        configuration).
    tolerance:
        Convergence threshold on the max block-temperature change,
        celsius; finite and non-negative.
    """
    if max_iterations < 1:
        raise ConfigurationError(
            f"max_iterations must be at least 1, got {max_iterations}"
        )
    if not 0.0 <= tolerance < math.inf:
        raise ConfigurationError(
            f"tolerance must be finite and non-negative, got {tolerance}"
        )
    power_model = power_model if power_model is not None else BlockPowerModel()
    thermal_model = thermal_model if thermal_model is not None else HotSpotLite()
    # Areas and activities do not change between iterations.
    areas, activities = block_inputs(floorplan, profile)

    temperatures = np.full(
        floorplan.n_blocks, thermal_model.package.ambient_temperature
    )
    with span("thermal.power_loop", blocks=floorplan.n_blocks) as loop_span:
        # The block model depends on the geometry only, and block powers
        # stay a vector: the floorplan is rebuilt only when a caller reads
        # the solution's ``floorplan``.
        response, offset = thermal_model.block_model(floorplan)
        for iteration in range(1, max_iterations + 1):
            powers = np.asarray(
                power_model.block_power(areas, activities, temperatures)
            )
            if not np.isfinite(powers).all():
                raise SolverError(
                    "power-thermal loop did not converge: block powers became "
                    f"non-finite at iteration {iteration} (possible thermal "
                    "runaway for this package)"
                )
            if (powers < 0.0).any():
                raise ConfigurationError(
                    "block powers must be finite and non-negative"
                )
            block_temperatures = response @ powers + offset
            change = float(np.abs(block_temperatures - temperatures).max())
            temperatures = block_temperatures
            metrics.inc("thermal.iterations")
            logger.debug(
                "power-thermal iteration %d: max block change %.3f degC",
                iteration,
                change,
            )
            if change <= tolerance:
                loop_span.set(iterations=iteration)
                powers.flags.writeable = False
                return PowerThermalSolution(
                    input_floorplan=floorplan,
                    block_powers=powers,
                    block_temperatures=temperatures,
                    iterations=iteration,
                    thermal_model=thermal_model,
                )
    raise SolverError(
        f"power-thermal loop did not converge in {max_iterations} iterations "
        "(possible thermal runaway for this package)"
    )
