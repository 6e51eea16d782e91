"""Reference loops the production kernels are checked against.

Each production kernel has one implementation: vectorised conductance
assembly and overlap rasterisation, the block power vector, the fused
survival kernels of the ensemble analyzers, the on-demand hybrid table
fill and look-up, the batched Imhof rule, and burn-in as a burn-in→field
scenario.  The straightforward per-cell and per-block loops they
replaced live here, outside ``src/``, as the oracles of the equivalence
tests (``tests/core/test_kernels_equivalence.py`` and friends).  They
are written for clarity, not speed.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.linalg import spsolve

from repro.chip.floorplan import Floorplan
from repro.chip.geometry import GridSpec, Rect
from repro.core.closed_form import _EXP_MAX, _EXP_MIN, safe_log_t_ratio
from repro.core.analyzer import ReliabilityAnalyzer
from repro.core.ensemble import (
    BlockReliability,
    StMcAnalyzer,
    _survival_on_grid,
    midpoint_block_rules,
)
from repro.core.hybrid import HybridAnalyzer
from repro.errors import ConfigurationError
from repro.kernels import batched_rule_expectations, pad_rule_tables
from repro.power.activity import ActivityProfile
from repro.power.model import PowerModelParams
from repro.stats.integration import Rule1D, midpoint_rule
from repro.stats.quadform import QuadraticForm
from repro.thermal.grid import PackageModel


def conductance_matrix(grid: GridSpec, package: PackageModel) -> csr_matrix:
    """The thermal conductance matrix, one neighbour pair at a time."""
    g_x, g_y = package.lateral_conductance(grid)
    g_v = package.vertical_conductance(grid)
    nx, ny = grid.nx, grid.ny
    n = grid.n_cells

    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    diag = np.full(n, g_v)

    def couple(i: int, j: int, g: float) -> None:
        rows.extend((i, j))
        cols.extend((j, i))
        vals.extend((-g, -g))
        diag[i] += g
        diag[j] += g

    for row in range(ny):
        for col in range(nx):
            index = row * nx + col
            if col + 1 < nx:
                couple(index, index + 1, g_x)
            if row + 1 < ny:
                couple(index, index + nx, g_y)

    rows.extend(range(n))
    cols.extend(range(n))
    vals.extend(diag)
    return csr_matrix((vals, (rows, cols)), shape=(n, n))


def steady_state(
    grid: GridSpec, cell_power: np.ndarray, package: PackageModel
) -> np.ndarray:
    """Cell temperatures by a direct ``spsolve`` of the oracle matrix."""
    rhs = cell_power + package.vertical_conductance(grid) * (
        package.ambient_temperature
    )
    return np.asarray(spsolve(conductance_matrix(grid, package), rhs))


def overlap_fractions(grid: GridSpec, rect: Rect) -> np.ndarray:
    """Fraction of ``rect`` in each grid cell, one straddled cell at a time."""
    fractions = np.zeros(grid.n_cells)
    col_lo = max(int(rect.x / grid.cell_width), 0)
    col_hi = min(int(np.ceil(rect.x2 / grid.cell_width)), grid.nx)
    row_lo = max(int(rect.y / grid.cell_height), 0)
    row_hi = min(int(np.ceil(rect.y2 / grid.cell_height)), grid.ny)
    for row in range(row_lo, row_hi):
        for col in range(col_lo, col_hi):
            index = row * grid.nx + col
            overlap = grid.cell_rect(index).overlap_area(rect)
            if overlap > 0.0:
                fractions[index] = overlap / rect.area
    return fractions


def block_powers(
    params: PowerModelParams,
    floorplan: Floorplan,
    profile: ActivityProfile,
    block_temperatures: np.ndarray,
) -> dict[str, float]:
    """Per-block powers in watts, one block at a time in Python floats.

    The dynamic-plus-leakage formula of the power model, transcribed per
    block: leakage is infinite once its exponent passes ``ln(DBL_MAX)``.
    The exponential is ``np.exp``, as in production; ``math.exp`` rounds
    differently in the last bit.
    """
    max_exponent = math.log(np.finfo(float).max)
    powers = {}
    for block, temperature in zip(
        floorplan.blocks, block_temperatures.tolist(), strict=True
    ):
        area = block.rect.area
        dynamic = (
            profile.factor(block.name)
            * params.switched_cap_density
            * area
            * params.vdd**2
            * params.frequency
        )
        exponent = params.leak_temp_slope * (temperature - params.leak_temp_ref)
        if exponent > max_exponent:
            leakage = math.inf
        else:
            leakage = params.leak_density_ref * area * float(np.exp(exponent))
        powers[block.name] = dynamic + leakage
    return powers


def _midpoint_rules(block: BlockReliability) -> tuple[Rule1D, Rule1D]:
    """One block's ``(u, v)`` midpoint rules at the analyzers' defaults
    (``l0 = 10``, tail 1e-6, residual fluctuation included), built on
    their own."""
    return (
        midpoint_rule(block.blod.u_dist(), n_points=10, tail=1e-6),
        midpoint_rule(block.blod.v_chi2_match(True), n_points=10, tail=1e-6),
    )


def st_fast_expectations(
    blocks: list[BlockReliability], times: np.ndarray
) -> np.ndarray:
    """``(n_blocks, n_times)`` midpoint-rule expectations, block by block."""
    out = np.empty((len(blocks), times.size))
    for j, block in enumerate(blocks):
        u_rule, v_rule = _midpoint_rules(block)
        survival = _survival_on_grid(
            safe_log_t_ratio(times, block.alpha),
            block.b,
            block.blod.area,
            u_rule.points,
            v_rule.points,
        )
        out[j] = np.einsum("tpq,p,q->t", survival, u_rule.weights, v_rule.weights)
    return out


def st_mc_sample_expectations(
    analyzer: StMcAnalyzer, times: np.ndarray
) -> np.ndarray:
    """``(n_blocks, n_times)`` sample-average expectations, block by block."""
    out = np.empty((len(analyzer.blocks), times.size))
    for j, block in enumerate(analyzer.blocks):
        u, v = analyzer.block_moment_samples(j)
        scaled = block.b * safe_log_t_ratio(times, block.alpha)[:, None]
        finite = np.isfinite(scaled)
        scaled_safe = np.where(finite, scaled, 0.0)
        log_g = scaled_safe * u[None, :] + 0.5 * scaled_safe**2 * v[None, :]
        exponent = np.clip(np.log(block.blod.area) + log_g, _EXP_MIN, _EXP_MAX)
        survival = np.where(finite, np.exp(-np.exp(exponent)), 1.0)
        out[j] = survival.mean(axis=1)
    return out


def burnin_block_failures(
    analyzer: ReliabilityAnalyzer,
    t_use: float,
    t_burnin: float,
    burnin_temperature: float = 125.0,
    burnin_vdd: float = 1.5,
) -> np.ndarray:
    """``(n_blocks,)`` intrinsic failure probabilities after ``t_burnin``
    burn-in hours plus ``t_use`` field hours, one block at a time.

    Burn-in time converts to field time through the block's acceleration
    factor ``alpha_use / alpha_stress`` (cumulative exposure); eq. (17)'s
    closed form then applies at the block's field parameters, on midpoint
    rules built from the analyzer's ``l0`` and ``tail``.  The chip survival
    is ``max(1 - sum(failures), 0)``, summed in block order.
    """
    stress_alpha = analyzer.obd_model.device_params(
        burnin_temperature, burnin_vdd
    ).alpha
    cfg = analyzer.config
    rules = midpoint_block_rules(
        analyzer.blods, cfg.l0, cfg.tail, cfg.include_residual_fluctuation
    )
    failures = np.zeros(len(analyzer.blocks))
    for j, (block, (u_rule, v_rule)) in enumerate(
        zip(analyzer.blocks, rules, strict=True)
    ):
        acceleration = block.alpha / stress_alpha
        effective = t_use + acceleration * t_burnin
        if effective <= 0.0:
            continue
        u = u_rule.points[:, None]
        v = v_rule.points[None, :]
        scaled = block.b * np.log(effective / block.alpha)
        log_g = scaled * u + 0.5 * scaled**2 * v
        exponent = np.exp(
            np.clip(np.log(block.blod.area) + log_g, _EXP_MIN, _EXP_MAX)
        )
        survival = np.exp(-np.clip(exponent, 0.0, -_EXP_MIN))
        failures[j] = 1.0 - float(u_rule.weights @ survival @ v_rule.weights)
    return failures


def hybrid_tables(hybrid: HybridAnalyzer) -> np.ndarray:
    """The full ``(block, ln(t/alpha), b)`` log-failure table, per block.

    Each block's table is one dense ``(alpha, b, u, v)`` tensor evaluation
    of the survival integrand.
    """
    tables = np.empty(
        (len(hybrid.blocks), hybrid.log_t_axis.size, hybrid.b_axis.size)
    )
    scaled = hybrid.log_t_axis[:, None, None, None] * hybrid.b_axis[
        None, :, None, None
    ]
    for j, block in enumerate(hybrid.blocks):
        u_rule, v_rule = _midpoint_rules(block)
        log_g = (
            scaled * u_rule.points[None, None, :, None]
            + 0.5 * scaled**2 * v_rule.points[None, None, None, :]
        )
        exponent = np.clip(np.log(block.blod.area) + log_g, _EXP_MIN, _EXP_MAX)
        survival = np.exp(-np.exp(exponent))
        expectation = np.einsum(
            "abpq,p,q->ab", survival, u_rule.weights, v_rule.weights
        )
        tables[j] = np.log(np.clip(1.0 - expectation, 1e-300, None))
    return tables


def eager_hybrid_tables(hybrid: HybridAnalyzer) -> np.ndarray:
    """Every block's full log-failure table in one fused kernel pass.

    The build every analyzer ran at construction before the table filled
    on demand; a filled column must equal it bit for bit.
    """
    blocks = hybrid.blocks
    rules = [_midpoint_rules(block) for block in blocks]
    u_points, u_weights = pad_rule_tables(
        [u.points for u, _ in rules], [u.weights for u, _ in rules]
    )
    v_points, v_weights = pad_rule_tables(
        [v.points for _, v in rules], [v.weights for _, v in rules]
    )
    log_areas = np.log([block.blod.area for block in blocks])
    scaled = hybrid.log_t_axis[:, None] * hybrid.b_axis[None, :]
    flat = np.broadcast_to(scaled.reshape(1, -1), (len(blocks), scaled.size))
    expectation = batched_rule_expectations(
        flat, log_areas, u_points, u_weights, v_points, v_weights
    )
    failure = np.clip(1.0 - expectation, 1e-300, None)
    return np.log(failure).reshape(
        len(blocks), hybrid.log_t_axis.size, hybrid.b_axis.size
    )


def _interpolate(
    hybrid: HybridAnalyzer, table: np.ndarray, log_t_ratio: np.ndarray, b: float
) -> np.ndarray:
    """Bilinear log-space look-up in one block's table.

    Same range semantics as the production look-up: ``b`` outside its
    axis or a finite ``ln(t/alpha)`` beyond the right edge raises, values
    below the left edge read failure 0.
    """
    log_t_axis, b_axis = hybrid.log_t_axis, hybrid.b_axis
    if not b_axis[0] <= b <= b_axis[-1]:
        raise ConfigurationError(
            f"b = {b} outside the table range "
            f"[{b_axis[0]:.3f}, {b_axis[-1]:.3f}]"
        )
    finite = np.isfinite(log_t_ratio)
    if np.any(log_t_ratio[finite] > log_t_axis[-1]):
        raise ConfigurationError(
            "query time beyond the table's ln(t/alpha) range; rebuild "
            "the table with a wider log_t_ratio_range"
        )
    x = np.clip(log_t_ratio, log_t_axis[0], log_t_axis[-1])
    x = np.where(finite, x, log_t_axis[0])
    ix = np.clip(np.searchsorted(log_t_axis, x) - 1, 0, len(log_t_axis) - 2)
    tx = (x - log_t_axis[ix]) / (log_t_axis[ix + 1] - log_t_axis[ix])
    iy = int(np.clip(np.searchsorted(b_axis, b) - 1, 0, len(b_axis) - 2))
    ty = (b - b_axis[iy]) / (b_axis[iy + 1] - b_axis[iy])
    log_value = (
        table[ix, iy] * (1.0 - tx) * (1.0 - ty)
        + table[ix + 1, iy] * tx * (1.0 - ty)
        + table[ix, iy + 1] * (1.0 - tx) * ty
        + table[ix + 1, iy + 1] * tx * ty
    )
    missed = (log_t_ratio <= log_t_axis[0]) | ~finite
    return np.where(missed, 0.0, np.exp(log_value))


def hybrid_failure_probabilities(
    hybrid: HybridAnalyzer,
    times: np.ndarray,
    alphas: np.ndarray | None = None,
    bs: np.ndarray | None = None,
) -> np.ndarray:
    """``(n_blocks, n_times)`` interpolated failure probabilities, per block.

    Reads the analyzer's fully filled table at the per-block Weibull
    parameters ``alphas`` and ``bs``, the blocks' nominal ones where
    omitted.
    """
    tables = hybrid.tables
    if alphas is None:
        alphas = np.array([block.alpha for block in hybrid.blocks])
    if bs is None:
        bs = np.array([block.b for block in hybrid.blocks])
    out = np.empty((len(hybrid.blocks), times.size))
    with np.errstate(divide="ignore"):
        for j in range(len(hybrid.blocks)):
            log_t_ratio = np.where(
                times > 0.0, np.log(times / float(alphas[j])), -np.inf
            )
            out[j] = _interpolate(hybrid, tables[j], log_t_ratio, float(bs[j]))
    return out


def imhof_sf(form: QuadraticForm, xs: np.ndarray, limit: int = 200) -> np.ndarray:
    """``P(Q > x)`` by per-point adaptive ``quad`` inversion.

    Wraps the adaptive path production keeps as the batched rule's
    fallback, so it can be compared on spectra the batched rule accepts.
    """
    lam, scale = form._imhof_spectrum
    return np.array(
        [
            form._imhof_sf_adaptive(lam, (x - form.offset) / scale, limit)
            for x in np.asarray(xs, dtype=float)
        ]
    )
