"""Unit tests for the BLOD characterisation (eq. (22)/(24)).

The load-bearing validation here is *analytical moments versus brute-force
sampling*: the closed-form u/v distributions must agree with empirical
sample means/variances computed from per-device chip draws.
"""

import numpy as np
import pytest

from repro.core.blod import BlodModel, characterize_blods
from repro.errors import ConfigurationError
from repro.stats.integration import NormalDist
from repro.stats.quadform import Chi2Match
from repro.variation.correlation import SpatialCorrelationModel
from repro.variation.pca import build_canonical_model
from repro.variation.quadtree import build_quadtree_model
from repro.variation.sampling import ChipSampler
from repro.variation.wafer import WaferPattern


@pytest.fixture(scope="module")
def setup(request):
    small_floorplan = request.getfixturevalue("small_floorplan")
    budget = request.getfixturevalue("budget")
    grid = small_floorplan.make_grid(5)
    correlation = SpatialCorrelationModel(grid=grid, rho_dist=0.5)
    model = build_canonical_model(budget, correlation)
    sampler = ChipSampler(small_floorplan, grid, model)
    blods = characterize_blods(
        small_floorplan, grid, model, sampler.assignments
    )
    return small_floorplan, grid, model, sampler, blods


class TestCharacterizeBlods:
    def test_one_blod_per_block(self, setup):
        floorplan, _grid, _model, _sampler, blods = setup
        assert len(blods) == floorplan.n_blocks
        for block, blod in zip(floorplan.blocks, blods, strict=True):
            assert blod.name == block.name
            assert blod.area == pytest.approx(block.total_oxide_area)
            assert blod.n_devices == block.n_devices

    def test_u_nominal_is_grid_mean(self, setup, budget):
        _fp, _grid, _model, _sampler, blods = setup
        for blod in blods:
            assert blod.u_nominal == pytest.approx(budget.nominal_thickness)

    def test_u_sigma_between_global_and_total(self, setup, budget):
        # The BLOD mean retains the full global component and most of the
        # (block-averaged) spatial component; the independent part washes
        # out by 1/sqrt(m).
        _fp, _grid, _model, _sampler, blods = setup
        for blod in blods:
            assert budget.sigma_global * 0.99 < blod.u_sigma
            assert blod.u_sigma < np.sqrt(
                budget.sigma_global**2 + budget.sigma_spatial**2
            ) * (1.0 + 1e-9)

    def test_v_mean_close_to_residual_variance(self, setup, budget):
        _fp, _grid, _model, _sampler, blods = setup
        for blod in blods:
            assert blod.v_mean() >= budget.sigma_independent**2 * 0.999
            assert blod.v_mean() <= (
                budget.sigma_independent**2 + budget.sigma_spatial**2
            )

    def test_u_dist_type(self, setup):
        _fp, _grid, _model, _sampler, blods = setup
        assert isinstance(blods[0].u_dist(), NormalDist)

    def test_v_chi2_match_type(self, setup):
        _fp, _grid, _model, _sampler, blods = setup
        match = blods[0].v_chi2_match()
        assert isinstance(match, Chi2Match)
        assert match.mean() == pytest.approx(blods[0].v_mean(), rel=1e-9)

    def test_moments_match_brute_force_sampling(self, setup, rng):
        """The headline check: closed-form eq. (22)/(24) vs per-device MC."""
        _fp, _grid, _model, sampler, blods = setup
        emp_means, emp_vars = sampler.sample_block_moments(400, rng)
        for j, blod in enumerate(blods):
            # BLOD mean distribution.
            assert emp_means[:, j].mean() == pytest.approx(
                blod.u_nominal, abs=4.0 * blod.u_sigma / np.sqrt(400)
            )
            assert emp_means[:, j].std(ddof=1) == pytest.approx(
                blod.u_sigma, rel=0.2
            )
            # BLOD variance distribution.
            v_form_mean = blod.v_mean()
            assert emp_vars[:, j].mean() == pytest.approx(v_form_mean, rel=0.05)
            match = blod.v_chi2_match()
            assert emp_vars[:, j].std(ddof=1) == pytest.approx(
                np.sqrt(match.var()), rel=0.3
            )

    def test_u_samples_match_closed_form_sigma(self, setup, rng):
        _fp, _grid, model, _sampler, blods = setup
        z = rng.standard_normal((50000, model.n_factors))
        for blod in blods[:2]:
            u = blod.u_samples(z)
            # u_samples drops the 1/sqrt(m) residual, so compare to the
            # factor part only.
            factor_sigma = np.linalg.norm(blod.u_sensitivities)
            assert u.std() == pytest.approx(factor_sigma, rel=0.02)
            assert u.mean() == pytest.approx(blod.u_nominal, abs=1e-3)

    def test_v_samples_with_and_without_noise(self, setup, rng):
        _fp, _grid, model, _sampler, blods = setup
        z = rng.standard_normal((20000, model.n_factors))
        blod = blods[0]
        deterministic = blod.v_samples(z)
        noisy = blod.v_samples(z, rng=rng)
        assert deterministic.mean() == pytest.approx(blod.v_mean(), rel=0.05)
        # The residual sampling noise widens the distribution.
        assert noisy.std() >= deterministic.std()

    def test_v_nonnegative(self, setup, rng):
        _fp, _grid, model, _sampler, blods = setup
        z = rng.standard_normal((5000, model.n_factors))
        for blod in blods:
            assert np.all(blod.v_samples(z) >= 0.0)


class TestBlodModelValidation:
    def test_rejects_mismatched_matrix(self):
        with pytest.raises(ConfigurationError):
            BlodModel(
                name="x",
                area=10.0,
                n_devices=100,
                u_nominal=2.2,
                u_sensitivities=np.zeros(3),
                sigma_independent=0.01,
                v_factor=np.zeros((2, 4)),
            )

    def test_rejects_single_device(self):
        with pytest.raises(ConfigurationError):
            BlodModel(
                name="x",
                area=1.0,
                n_devices=1,
                u_nominal=2.2,
                u_sensitivities=np.zeros(2),
                sigma_independent=0.01,
                v_factor=np.zeros((1, 2)),
            )

    def test_rejects_zero_area(self):
        with pytest.raises(ConfigurationError):
            BlodModel(
                name="x",
                area=0.0,
                n_devices=100,
                u_nominal=2.2,
                u_sensitivities=np.zeros(2),
                sigma_independent=0.01,
                v_factor=np.zeros((1, 2)),
            )


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize(
    "target",
    ["canonical", "quadtree", "u_nominal", "u_sensitivities", "v_factor"],
)
def test_non_finite_inputs_rejected(target, value, small_floorplan, budget):
    """A non-finite wafer offset or BLOD entry is refused where it enters,
    by a message naming the grid cell or the block."""
    if target in ("canonical", "quadtree"):
        grid = small_floorplan.make_grid(3)
        offsets = np.zeros(grid.n_cells)
        offsets[4] = value
        with pytest.raises(ConfigurationError, match="grid cell 4"):
            if target == "canonical":
                build_canonical_model(
                    budget,
                    SpatialCorrelationModel(grid=grid),
                    mean_offsets=offsets,
                )
            else:
                build_quadtree_model(budget, grid, mean_offsets=offsets)
        return
    fields = {
        "u_nominal": 2.2,
        "u_sensitivities": np.zeros(3),
        "v_factor": np.zeros((2, 3)),
    }
    if target == "u_nominal":
        fields["u_nominal"] = value
    else:
        fields[target][-1] = value
    with pytest.raises(ConfigurationError, match=f"'core7'.*{target}"):
        BlodModel(
            name="core7",
            area=1.0,
            n_devices=100,
            sigma_independent=0.01,
            **fields,
        )


class TestSingleGridBlock:
    """A block fully inside one grid cell: the spatial quadratic form
    vanishes and v is exactly the residual chi-square."""

    @pytest.fixture()
    def single_grid_blod(self, small_floorplan, budget):
        grid = small_floorplan.make_grid(1)  # everything in one cell
        correlation = SpatialCorrelationModel(grid=grid, rho_dist=0.5)
        model = build_canonical_model(budget, correlation)
        return characterize_blods(small_floorplan, grid, model)[0]

    def test_v_factor_vanishes(self, single_grid_blod):
        assert single_grid_blod.v_factor.shape == (
            1,
            single_grid_blod.n_factors,
        )
        np.testing.assert_allclose(single_grid_blod.v_factor, 0.0, atol=1e-18)

    def test_v_chi2_match_is_exact_residual(self, single_grid_blod, budget):
        match = single_grid_blod.v_chi2_match(include_residual_fluctuation=True)
        assert isinstance(match, Chi2Match)
        m = single_grid_blod.n_devices
        # v = lambda_r^2 * chi2(m-1)/(m-1) exactly.
        assert match.dof == pytest.approx(m - 1)
        assert match.scale == pytest.approx(
            budget.sigma_independent**2 / (m - 1)
        )

    def test_paper_match_degenerates_to_point_mass(self, single_grid_blod):
        from repro.stats.integration import PointMass

        match = single_grid_blod.v_chi2_match(include_residual_fluctuation=False)
        assert isinstance(match, PointMass)
        assert match.value == pytest.approx(single_grid_blod.v_offset)

    def test_u_sigma_has_no_spatial_spread_beyond_budget(
        self, single_grid_blod, budget
    ):
        expected = np.sqrt(budget.sigma_global**2 + budget.sigma_spatial**2)
        # Slightly above "expected" because u_sigma keeps the tiny
        # lambda_r/sqrt(m) residual contribution.
        assert single_grid_blod.u_sigma >= expected
        assert single_grid_blod.u_sigma == pytest.approx(expected, rel=1e-3)


class TestWaferPatternBlod:
    def test_deterministic_spread_appears_in_v_offset(
        self, small_floorplan, budget
    ):
        grid = small_floorplan.make_grid(5)
        correlation = SpatialCorrelationModel(grid=grid, rho_dist=0.5)
        pattern = WaferPattern.slanted(slope_x=0.02)
        offsets = pattern.grid_offsets(grid, chip_x=10.0, chip_y=10.0)
        flat = build_canonical_model(budget, correlation)
        tilted = build_canonical_model(budget, correlation, mean_offsets=offsets)
        blods_flat = characterize_blods(small_floorplan, grid, flat)
        blods_tilted = characterize_blods(small_floorplan, grid, tilted)
        assert all(b.v_deterministic == 0.0 for b in blods_flat)
        assert any(b.v_deterministic > 0.0 for b in blods_tilted)
        for bf, bt in zip(blods_flat, blods_tilted, strict=True):
            assert bt.v_offset >= bf.v_offset
