"""Floorplans: temperature-uniform blocks with device populations.

A :class:`Block` is the paper's unit of temperature uniformity — a region
whose devices share the same operating temperature and therefore the same
device-level reliability parameters ``alpha_j`` and ``b_j`` (Sec. IV-A). A
:class:`Floorplan` is the full die: its blocks carry device counts,
normalized gate areas, and per-block power used by the thermal model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from repro.chip.geometry import GridSpec, Rect
from repro.errors import FloorplanError


@dataclass(frozen=True)
class Block:
    """One temperature-uniform functional block.

    Parameters
    ----------
    name:
        Unique block identifier (e.g. ``"icache"``).
    rect:
        Block footprint on the die, in millimetres.
    n_devices:
        Number of gate-oxide devices in the block (``m_j`` in the paper).
    avg_device_area:
        Mean device gate area normalized to the minimum device area (the
        ``a`` of eq. (3)); the block's total normalized oxide area is
        ``A_j = n_devices * avg_device_area``.
    power:
        Block power dissipation in watts (input to the thermal model).
    """

    name: str
    rect: Rect
    n_devices: int
    avg_device_area: float = 1.0
    power: float = 0.0

    def __post_init__(self) -> None:
        if not self.name:
            raise FloorplanError("block name must be non-empty")
        if self.n_devices < 1:
            raise FloorplanError(
                f"block {self.name!r} must contain at least one device, "
                f"got {self.n_devices}"
            )
        if self.avg_device_area <= 0.0:
            raise FloorplanError(
                f"block {self.name!r} average device area must be positive"
            )
        if not (math.isfinite(self.power) and self.power >= 0.0):
            raise FloorplanError(
                f"block {self.name!r} power must be finite and non-negative"
            )

    @property
    def total_oxide_area(self) -> float:
        """Total normalized oxide area ``A_j`` of the block."""
        return self.n_devices * self.avg_device_area

    @property
    def power_density(self) -> float:
        """Power per unit silicon area, W/mm^2."""
        return self.power / self.rect.area

    def with_power(self, power: float) -> "Block":
        """A copy of this block with a different power value."""
        return replace(self, power=power)


@dataclass(frozen=True)
class Floorplan:
    """A die outline plus its temperature-uniform blocks.

    Blocks must lie on the die and must not overlap each other (they need
    not tile the die completely: whitespace is allowed and simply holds no
    devices).
    """

    width: float
    height: float
    blocks: tuple[Block, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not (self.width > 0.0 and self.height > 0.0):
            raise FloorplanError(
                f"die must have positive size, got {self.width} x {self.height}"
            )
        if not self.blocks:
            raise FloorplanError("floorplan must contain at least one block")
        die = self.die_rect
        names: set[str] = set()
        for block in self.blocks:
            if block.name in names:
                raise FloorplanError(f"duplicate block name {block.name!r}")
            names.add(block.name)
            if not die.contains_rect(block.rect):
                raise FloorplanError(
                    f"block {block.name!r} extends outside the die"
                )
        self._check_no_overlap()

    def _check_no_overlap(self) -> None:
        """Reject any pair of blocks that overlaps by more than 1e-9 of the
        smaller block's area.

        One numpy pass over the pairs ``i < j`` in row-major order, with
        the float operations of :meth:`Rect.overlap_area`, so the first
        offending pair named is the one a pairwise loop would find.
        """
        blocks = self.blocks
        x, y, width, height = np.array(
            [
                (b.rect.x, b.rect.y, b.rect.width, b.rect.height)
                for b in blocks
            ]
        ).T
        x2 = x + width
        y2 = y + height
        area = width * height
        order = np.arange(len(blocks))
        # The pairs of np.triu_indices(n, 1), at a fraction of its cost.
        i, j = np.nonzero(order[:, None] < order)
        dx = np.minimum(x2[i], x2[j]) - np.maximum(x[i], x[j])
        dy = np.minimum(y2[i], y2[j]) - np.maximum(y[i], y[j])
        smaller = np.minimum(area[i], area[j])
        overlapping = (dx > 0.0) & (dy > 0.0) & (dx * dy > 1e-9 * smaller)
        if overlapping.any():
            k = int(np.argmax(overlapping))
            raise FloorplanError(
                f"blocks {blocks[i[k]].name!r} and {blocks[j[k]].name!r} overlap"
            )

    @property
    def die_rect(self) -> Rect:
        """The die outline as a rectangle anchored at the origin."""
        return Rect(0.0, 0.0, self.width, self.height)

    @property
    def n_blocks(self) -> int:
        """Number of blocks (``N`` in the paper)."""
        return len(self.blocks)

    @property
    def n_devices(self) -> int:
        """Total device count across all blocks (``m`` in the paper)."""
        return sum(block.n_devices for block in self.blocks)

    @property
    def total_oxide_area(self) -> float:
        """Total normalized oxide area of the chip, ``sum_j A_j``."""
        return sum(block.total_oxide_area for block in self.blocks)

    @property
    def total_power(self) -> float:
        """Total chip power in watts."""
        return sum(block.power for block in self.blocks)

    @property
    def block_names(self) -> tuple[str, ...]:
        """Block names in floorplan order."""
        return tuple(block.name for block in self.blocks)

    def block(self, name: str) -> Block:
        """Look a block up by name."""
        for candidate in self.blocks:
            if candidate.name == name:
                return candidate
        raise KeyError(f"no block named {name!r}")

    def with_powers(self, powers: dict[str, float]) -> "Floorplan":
        """A copy of this floorplan with per-block powers replaced.

        ``powers`` maps block name to watts; blocks not mentioned keep
        their current power.
        """
        unknown = set(powers) - set(self.block_names)
        if unknown:
            raise KeyError(f"unknown block names: {sorted(unknown)}")
        new_blocks = tuple(
            block.with_power(powers.get(block.name, block.power))
            for block in self.blocks
        )
        return replace(self, blocks=new_blocks)

    def make_grid(self, nx: int, ny: int | None = None) -> GridSpec:
        """A spatial-correlation grid covering this die."""
        return GridSpec(nx=nx, ny=ny if ny is not None else nx,
                        width=self.width, height=self.height)

    def device_grid_fractions(self, grid: GridSpec) -> np.ndarray:
        """Per-block device distribution over grid cells.

        Returns an ``(n_blocks, n_cells)`` matrix whose row ``j`` gives the
        fraction of block ``j``'s devices located in each spatial-correlation
        grid cell, assuming devices are spread uniformly over the block
        footprint. Each row sums to 1.
        """
        rows = np.empty((self.n_blocks, grid.n_cells))
        for j, block in enumerate(self.blocks):
            fractions = grid.overlap_fractions(block.rect)
            total = fractions.sum()
            if total <= 0.0:
                raise FloorplanError(
                    f"block {block.name!r} does not overlap the grid"
                )
            rows[j] = fractions / total
        return rows

    def coverage(self) -> float:
        """Fraction of the die area covered by blocks."""
        covered = sum(block.rect.area for block in self.blocks)
        return covered / self.die_rect.area
