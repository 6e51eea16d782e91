"""Property tests: every factor-derived BLOD quantity equals the dense form.

:class:`~repro.core.blod.BlodModel` keeps block ``j``'s variance form as
the ``r x k`` factor ``F_j`` and reads its traces, chi-square match,
mean, spectrum and samples from ``F_j`` or the ``r x r`` Gram
``F_j F_j'``.  The oracle below forms the dense ``k x k`` matrix
``C_j = kappa * D' (D * f)`` (``D`` the centred sensitivity rows, ``f``
the device fractions, ``kappa = m / (m - 1)``) and its ``eigh``, and
every derived value must agree with it within 1e-12 relative (the
spectrum within 1e-12 of its largest eigenvalue).
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chip.floorplan import Block, Floorplan, Rect
from repro.core.blod import characterize_blods
from repro.stats.integration import PointMass
from repro.variation.pca import CanonicalThicknessModel
from repro.variation.sampling import BlockGridAssignment

_RTOL = 1e-12
_N_GRIDS = 12


def dense_form(
    model: CanonicalThicknessModel, assignment: BlockGridAssignment, m: int
) -> np.ndarray:
    """The dense ``C_j`` of eq. (24), as the characterisation once built it."""
    fractions = assignment.fractions
    sens = model.sensitivities[assignment.grid_indices, :]
    deviations = sens - fractions @ sens
    weighted = deviations * fractions[:, None]
    matrix = (m / (m - 1)) * (deviations.T @ weighted)
    return 0.5 * (matrix + matrix.T)


@st.composite
def blod_cases(draw):
    """A random canonical model, one block's grid assignment and ``m``."""
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    n_factors = draw(st.integers(1, 14))
    n_cells = draw(st.integers(1, 10))
    m = draw(st.integers(2, 1_000_000))
    with_offsets = draw(st.booleans())
    grid_means = np.full(_N_GRIDS, 2.2)
    if with_offsets:
        grid_means = grid_means + rng.normal(0.0, 0.02, _N_GRIDS)
    model = CanonicalThicknessModel(
        grid_means=grid_means,
        sensitivities=rng.normal(0.0, 0.03, (_N_GRIDS, n_factors)),
        sigma_independent=float(rng.uniform(0.005, 0.05)),
    )
    assignment = BlockGridAssignment(
        grid_indices=np.sort(rng.choice(_N_GRIDS, n_cells, replace=False)),
        device_counts=rng.integers(1, 1000, n_cells),
    )
    return model, assignment, m, rng


def _blod(model, assignment, m):
    floorplan = Floorplan(
        width=1.0,
        height=1.0,
        blocks=(
            Block(
                name="b",
                rect=Rect(0.0, 0.0, 1.0, 1.0),
                n_devices=m,
                avg_device_area=1.0,
            ),
        ),
    )
    grid = floorplan.make_grid(_N_GRIDS, 1)
    return characterize_blods(floorplan, grid, model, [assignment])[0]


@settings(max_examples=120, deadline=None)
@given(blod_cases())
def test_factor_path_matches_dense_oracle(case):
    model, assignment, m, rng = case
    blod = _blod(model, assignment, m)
    dense = dense_form(model, assignment, m)
    lambda_sq = model.sigma_independent**2

    trace = float(np.trace(dense))
    trace_sq = float(np.sum(dense * dense))
    got = blod.v_traces(include_residual_fluctuation=False)
    np.testing.assert_allclose(got, (trace, trace_sq), rtol=_RTOL)
    got = blod.v_traces(include_residual_fluctuation=True)
    np.testing.assert_allclose(got[0], trace + lambda_sq, rtol=_RTOL)
    np.testing.assert_allclose(
        got[1], trace_sq + lambda_sq**2 / (m - 1), rtol=_RTOL
    )
    np.testing.assert_allclose(blod.v_mean(), blod.v_offset + trace, rtol=_RTOL)

    # The chi-square match read from the oracle's traces.
    for residual in (False, True):
        match = blod.v_chi2_match(include_residual_fluctuation=residual)
        tr = trace + (lambda_sq if residual else 0.0)
        tr_sq = trace_sq + (lambda_sq**2 / (m - 1) if residual else 0.0)
        if tr_sq <= 0.0:
            assert isinstance(match, PointMass)
            assert match.value == blod.v_offset
            continue
        np.testing.assert_allclose(match.scale, tr_sq / tr, rtol=_RTOL)
        np.testing.assert_allclose(match.dof, tr**2 / tr_sq, rtol=_RTOL)
        assert match.offset == (
            blod.v_deterministic if residual else blod.v_offset
        )

    # The Gram's spectrum is the dense one's nonzero part; both sides
    # keep min(r, k) eigenvalues, the rest of either is zero.
    form = blod.v_quadratic_form()
    want = np.sort(np.linalg.eigh(dense)[0])[::-1]
    got = np.sort(form.eigenvalues)[::-1]
    keep = min(want.size, got.size)
    scale = max(float(want[0]), 1e-300)
    np.testing.assert_allclose(
        got[:keep], want[:keep], rtol=_RTOL, atol=_RTOL * scale
    )
    assert np.all(np.abs(want[keep:]) <= _RTOL * scale)
    assert np.all(np.abs(got[keep:]) <= _RTOL * scale)
    assert form.offset == blod.v_offset

    z = rng.standard_normal((16, model.n_factors))
    quadratic = np.einsum("ni,ij,nj->n", z, dense, z)
    np.testing.assert_allclose(
        blod.v_samples(z),
        blod.v_deterministic + lambda_sq + quadratic,
        rtol=_RTOL,
    )
