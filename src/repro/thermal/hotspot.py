"""HotSpotLite: floorplan-level thermal analysis facade.

Maps per-block powers onto the thermal mesh, runs the steady-state solver,
and reports per-block average temperatures — the exact interface the
reliability analysis needs ("HotSpot [10] to achieve the temperature
profile of the design", Sec. V).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.chip.floorplan import Floorplan
from repro.chip.geometry import GridSpec
from repro.errors import ConfigurationError
from repro.kernels.config import fast_paths_enabled
from repro.obs.trace import span
from repro.thermal.factor_cache import cached_mesh_map
from repro.thermal.grid import PackageModel
from repro.thermal.solver import TemperatureField, solve_steady_state


@dataclass(frozen=True)
class ThermalResult:
    """Output of a floorplan thermal analysis.

    Attributes
    ----------
    field:
        The solved cell-level temperature map.
    block_temperatures:
        Area-averaged temperature of each block (celsius), floorplan order.
    """

    field: TemperatureField
    block_temperatures: np.ndarray

    @property
    def hottest_block_temperature(self) -> float:
        """Worst-case block temperature — what a guard-band flow assumes
        for the entire chip."""
        return float(self.block_temperatures.max())

    @property
    def block_spread(self) -> float:
        """Hot-spot minus inactive-region block temperature (Fig. 1 shows
        ~30 degC on real designs)."""
        return float(self.block_temperatures.max() - self.block_temperatures.min())

    def block_temperature_map(self, floorplan: Floorplan) -> dict[str, float]:
        """Block temperatures keyed by block name."""
        if floorplan.n_blocks != self.block_temperatures.size:
            raise ConfigurationError("floorplan does not match this result")
        return dict(
            zip(floorplan.block_names, self.block_temperatures.tolist(), strict=True)
        )


class HotSpotLite:
    """Steady-state floorplan thermal analyzer.

    Parameters
    ----------
    package:
        Package and material constants.
    mesh_resolution:
        Cells along the longer die edge; the mesh aspect follows the die.
    """

    def __init__(
        self,
        package: PackageModel | None = None,
        mesh_resolution: int = 48,
    ) -> None:
        if mesh_resolution < 4:
            raise ConfigurationError(
                f"mesh resolution must be >= 4, got {mesh_resolution}"
            )
        self.package = package if package is not None else PackageModel()
        self.mesh_resolution = mesh_resolution

    def mesh_for(self, floorplan: Floorplan) -> GridSpec:
        """The thermal mesh used for a given die."""
        longer = max(floorplan.width, floorplan.height)
        nx = max(4, round(self.mesh_resolution * floorplan.width / longer))
        ny = max(4, round(self.mesh_resolution * floorplan.height / longer))
        return GridSpec(nx=nx, ny=ny, width=floorplan.width, height=floorplan.height)

    def mesh_map(
        self, floorplan: Floorplan, mesh: GridSpec
    ) -> tuple[np.ndarray, np.ndarray]:
        """Each block's overlap fractions on ``mesh`` and their sums.

        Returns ``(fractions, totals)``: row ``j`` of the ``(blocks,
        cells)`` matrix is ``mesh.overlap_fractions`` of block ``j``'s
        rectangle, ``totals[j]`` its sum.  While fast paths are enabled
        the pair comes from the process-wide block→mesh cache keyed on
        ``(mesh, block rectangles)`` and is read-only; the reference
        path rasterizes afresh.
        """

        def build() -> tuple[np.ndarray, np.ndarray]:
            fractions = np.empty((floorplan.n_blocks, mesh.n_cells))
            totals = np.empty(floorplan.n_blocks)
            for j, block in enumerate(floorplan.blocks):
                row = mesh.overlap_fractions(block.rect)
                total = row.sum()
                if total <= 0.0:
                    raise ConfigurationError(
                        f"block {block.name!r} does not overlap the thermal mesh"
                    )
                fractions[j] = row
                totals[j] = total
            return fractions, totals

        if not fast_paths_enabled():
            return build()
        rects = tuple(block.rect for block in floorplan.blocks)
        return cached_mesh_map(mesh, rects, build)

    def cell_powers(self, floorplan: Floorplan, mesh: GridSpec) -> np.ndarray:
        """Distribute block powers onto mesh cells by overlap area."""
        return _spread(
            [block.power for block in floorplan.blocks],
            *self.mesh_map(floorplan, mesh),
        )

    def analyze(
        self, floorplan: Floorplan, block_powers: np.ndarray | None = None
    ) -> ThermalResult:
        """Solve the steady-state profile and per-block temperatures.

        ``block_powers`` (watts, floorplan order) replaces the blocks' own
        powers without building a new :class:`Floorplan`; the
        power-thermal loop iterates on power vectors this way.
        """
        powers = _block_powers(floorplan, block_powers)
        with span(
            "thermal.hotspot",
            blocks=floorplan.n_blocks,
            power_w=round(sum(powers), 3),
        ):
            mesh = self.mesh_for(floorplan)
            fractions, totals = self.mesh_map(floorplan, mesh)
            field = solve_steady_state(
                mesh, _spread(powers, fractions, totals), self.package
            )
            block_temps = np.array(
                [
                    float(field.values @ row / total)
                    for row, total in zip(fractions, totals, strict=True)
                ]
            )
        return ThermalResult(field=field, block_temperatures=block_temps)


def _block_powers(
    floorplan: Floorplan, block_powers: np.ndarray | None
) -> list[float]:
    """Validated per-block powers (watts, floorplan order)."""
    if block_powers is None:
        return [block.power for block in floorplan.blocks]
    values = np.asarray(block_powers, dtype=float)
    if values.shape != (floorplan.n_blocks,):
        raise ConfigurationError(
            f"expected {floorplan.n_blocks} block powers, got shape "
            f"{values.shape}"
        )
    if not (np.all(np.isfinite(values)) and np.all(values >= 0.0)):
        raise ConfigurationError("block powers must be finite and non-negative")
    powers: list[float] = values.tolist()
    return powers


def _spread(
    powers: list[float], fractions: np.ndarray, totals: np.ndarray
) -> np.ndarray:
    """Cell powers: each block's power spread over its overlap fractions.

    Accumulates ``p * fractions / total`` in block order, so the result
    is the same float sequence whether the map was cached or not.
    """
    cell_power = np.zeros(fractions.shape[1])
    for power, row, total in zip(powers, fractions, totals, strict=True):
        cell_power += power * row / total
    return cell_power


def uniform_temperature_result(
    floorplan: Floorplan, temperature: float, mesh_resolution: int = 8
) -> ThermalResult:
    """A degenerate thermal result with every block at one temperature.

    Used by the temperature-unaware baseline, which assumes the worst-case
    temperature across the whole chip.
    """
    mesh = GridSpec(
        nx=mesh_resolution,
        ny=mesh_resolution,
        width=floorplan.width,
        height=floorplan.height,
    )
    field = TemperatureField(
        grid=mesh, values=np.full(mesh.n_cells, float(temperature))
    )
    return ThermalResult(
        field=field,
        block_temperatures=np.full(floorplan.n_blocks, float(temperature)),
    )
