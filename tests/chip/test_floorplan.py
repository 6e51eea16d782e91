"""Unit tests for blocks and floorplans."""

import numpy as np
import pytest

from repro.chip.floorplan import Block, Floorplan
from repro.chip.geometry import GridSpec, Rect
from repro.errors import FloorplanError


def _block(name, x, y, w, h, devices=100, power=1.0, avg_area=1.0):
    return Block(
        name=name,
        rect=Rect(x, y, w, h),
        n_devices=devices,
        avg_device_area=avg_area,
        power=power,
    )


class TestBlock:
    def test_total_oxide_area(self):
        block = _block("b", 0, 0, 1, 1, devices=500, avg_area=1.5)
        assert block.total_oxide_area == pytest.approx(750.0)

    def test_power_density(self):
        block = _block("b", 0, 0, 2, 1, power=4.0)
        assert block.power_density == pytest.approx(2.0)

    def test_with_power_returns_copy(self):
        block = _block("b", 0, 0, 1, 1, power=1.0)
        other = block.with_power(5.0)
        assert other.power == 5.0
        assert block.power == 1.0
        assert other.name == block.name

    def test_rejects_empty_name(self):
        with pytest.raises(FloorplanError):
            _block("", 0, 0, 1, 1)

    def test_rejects_zero_devices(self):
        with pytest.raises(FloorplanError):
            _block("b", 0, 0, 1, 1, devices=0)

    def test_rejects_negative_power(self):
        with pytest.raises(FloorplanError):
            _block("b", 0, 0, 1, 1, power=-1.0)

    @pytest.mark.parametrize("power", [float("nan"), float("inf")])
    def test_rejects_non_finite_power(self, power):
        # ``nan < 0.0`` is False, so a sign check alone lets NaN through.
        with pytest.raises(FloorplanError, match="finite"):
            _block("b", 0, 0, 1, 1, power=power)

    def test_rejects_non_positive_avg_area(self):
        with pytest.raises(FloorplanError):
            _block("b", 0, 0, 1, 1, avg_area=0.0)


class TestFloorplan:
    def test_aggregates(self):
        fp = Floorplan(
            width=2.0,
            height=2.0,
            blocks=(
                _block("a", 0, 0, 1, 2, devices=100, power=1.0),
                _block("b", 1, 0, 1, 2, devices=200, power=2.0, avg_area=2.0),
            ),
        )
        assert fp.n_blocks == 2
        assert fp.n_devices == 300
        assert fp.total_power == pytest.approx(3.0)
        assert fp.total_oxide_area == pytest.approx(100 + 400)
        assert fp.block_names == ("a", "b")
        assert fp.coverage() == pytest.approx(1.0)

    def test_lookup_by_name(self):
        fp = Floorplan(
            width=2.0, height=2.0, blocks=(_block("a", 0, 0, 1, 1),)
        )
        assert fp.block("a").name == "a"
        with pytest.raises(KeyError):
            fp.block("missing")

    def test_rejects_duplicate_names(self):
        with pytest.raises(FloorplanError, match="duplicate"):
            Floorplan(
                width=2.0,
                height=2.0,
                blocks=(_block("a", 0, 0, 1, 1), _block("a", 1, 0, 1, 1)),
            )

    def test_rejects_block_outside_die(self):
        with pytest.raises(FloorplanError, match="outside"):
            Floorplan(
                width=2.0,
                height=2.0,
                blocks=(_block("a", 1.5, 0, 1.0, 1.0),),
            )

    def test_rejects_overlapping_blocks(self):
        with pytest.raises(FloorplanError, match="overlap"):
            Floorplan(
                width=2.0,
                height=2.0,
                blocks=(
                    _block("a", 0, 0, 1.5, 1.0),
                    _block("b", 1.0, 0, 1.0, 1.0),
                ),
            )

    def test_allows_touching_blocks(self):
        fp = Floorplan(
            width=2.0,
            height=1.0,
            blocks=(_block("a", 0, 0, 1, 1), _block("b", 1, 0, 1, 1)),
        )
        assert fp.n_blocks == 2

    def test_rejects_empty_floorplan(self):
        with pytest.raises(FloorplanError):
            Floorplan(width=1.0, height=1.0, blocks=())

    def test_with_powers_partial_update(self):
        fp = Floorplan(
            width=2.0,
            height=1.0,
            blocks=(
                _block("a", 0, 0, 1, 1, power=1.0),
                _block("b", 1, 0, 1, 1, power=2.0),
            ),
        )
        updated = fp.with_powers({"a": 5.0})
        assert updated.block("a").power == 5.0
        assert updated.block("b").power == 2.0
        # Original untouched.
        assert fp.block("a").power == 1.0

    def test_with_powers_rejects_unknown_block(self):
        fp = Floorplan(
            width=1.0, height=1.0, blocks=(_block("a", 0, 0, 1, 1),)
        )
        with pytest.raises(KeyError):
            fp.with_powers({"zzz": 1.0})

    def test_make_grid_matches_die(self):
        fp = Floorplan(
            width=4.0, height=2.0, blocks=(_block("a", 0, 0, 1, 1),)
        )
        grid = fp.make_grid(8, 4)
        assert grid.width == 4.0
        assert grid.height == 2.0
        assert grid.n_cells == 32

    def test_device_grid_fractions_rows_sum_to_one(self, small_floorplan):
        grid = small_floorplan.make_grid(5)
        fractions = small_floorplan.device_grid_fractions(grid)
        assert fractions.shape == (small_floorplan.n_blocks, 25)
        np.testing.assert_allclose(fractions.sum(axis=1), 1.0)

    def test_device_grid_fractions_single_cell_grid(self, small_floorplan):
        grid = small_floorplan.make_grid(1)
        fractions = small_floorplan.device_grid_fractions(grid)
        np.testing.assert_allclose(fractions, 1.0)

    def test_device_grid_fractions_localised(self):
        fp = Floorplan(
            width=2.0,
            height=2.0,
            blocks=(_block("a", 0, 0, 1, 1),),  # lower-left quadrant
        )
        grid = GridSpec(nx=2, ny=2, width=2.0, height=2.0)
        fractions = fp.device_grid_fractions(grid)
        np.testing.assert_allclose(fractions[0], [1.0, 0.0, 0.0, 0.0])
