"""Hybrid analytical/table-look-up reliability evaluation (Sec. IV-E).

Designers re-evaluate the same design under many setup/application
profiles; each profile changes only the per-block ``(alpha_j, b_j)``. Since
the eq. (28) double integral of block ``j`` depends on time, temperature
and voltage solely through ``ln(t/alpha_j)`` and ``b_j``, a per-block 2-D
table over those two indices is computed once per design and thereafter
any profile is evaluated by bilinear interpolation — the 0.02 s "hybrid"
rows of Table III. All blocks share the same index axes (footnote 5); the
entries differ through ``A_j`` and each block's BLOD marginals.

A lifetime solve reads only the few ``b`` columns its interpolation
stencil touches, so the table is filled one ``b`` column (for every
block) at a time, when a query first reads it; each entry is the value a
full build computes.
"""

from __future__ import annotations

import threading
from typing import Any

import numpy as np

from repro.core.closed_form import _EXP_MAX, _EXP_MIN
from repro.core.ensemble import (
    BlockReliability,
    midpoint_block_rules,
    pad_block_rules,
)
from repro.errors import ConfigurationError
from repro.kernels.config import fast_paths_enabled
from repro.kernels.survival import batched_rule_expectations
from repro.obs import metrics
from repro.obs.trace import is_enabled, span
from repro.stats.integration import midpoint_rule


class HybridAnalyzer:
    """Pre-tabulated per-block expectations with bilinear interpolation.

    Table columns fill on demand (thread-safe; :attr:`tables` fills them
    all).  With fast paths off the whole table is built eagerly, one
    block at a time, as the reference the fill is checked against.

    Parameters
    ----------
    blocks:
        Per-block BLOD + *nominal* Weibull parameters (used only to centre
        the default table ranges; queries may pass any other profile).
    n_alpha, n_b:
        Table resolution along ``ln(t/alpha)`` and ``b`` (paper: 100x100).
    log_t_ratio_range:
        Index range for ``ln(t/alpha)``; the default [-40, -1] covers
        lifetimes from ~1e-18 alpha to 0.37 alpha, far beyond any ppm
        target of interest.
    b_range:
        Index range for the slope coefficient; defaults to +/-30 % around
        the blocks' nominal values (covering any realistic temperature
        profile of the same process).
    l0, tail:
        Integration rule parameters (same midpoint rule as st_fast).
    include_residual_fluctuation:
        See :class:`repro.core.ensemble.StFastAnalyzer`.
    """

    def __init__(
        self,
        blocks: list[BlockReliability],
        n_alpha: int = 100,
        n_b: int = 100,
        log_t_ratio_range: tuple[float, float] | None = None,
        b_range: tuple[float, float] | None = None,
        l0: int = 10,
        tail: float = 1e-6,
        include_residual_fluctuation: bool = True,
    ) -> None:
        if not blocks:
            raise ConfigurationError("need at least one block")
        if n_alpha < 2 or n_b < 2:
            raise ConfigurationError("table needs at least 2 indices per axis")
        if log_t_ratio_range is None:
            log_t_ratio_range = (-40.0, -1.0)
        if b_range is None:
            bs = np.array([block.b for block in blocks])
            b_range = (0.7 * bs.min(), 1.3 * bs.max())
        lo, hi = log_t_ratio_range
        if not lo < hi:
            raise ConfigurationError("log_t_ratio_range must be increasing")
        b_lo, b_hi = b_range
        if not 0.0 < b_lo < b_hi:
            raise ConfigurationError("b_range must be positive and increasing")
        self._init_state(
            blocks, np.linspace(lo, hi, n_alpha), np.linspace(b_lo, b_hi, n_b)
        )
        self._rule_knobs = (l0, tail, include_residual_fluctuation)
        if not fast_paths_enabled():
            with span(
                "hybrid.build_table",
                blocks=len(blocks),
                n_alpha=n_alpha,
                columns=n_b,
            ):
                for j, block in enumerate(self.blocks):
                    self._tables[j] = self._build_block_table(
                        block, l0, tail, include_residual_fluctuation
                    )
                metrics.inc("hybrid.table_entries", self._tables.size)
            self._mark_filled(np.arange(n_b))

    def _init_state(
        self,
        blocks: list[BlockReliability],
        log_t_axis: np.ndarray,
        b_axis: np.ndarray,
    ) -> None:
        """Axes plus an empty table whose b-columns fill on demand."""
        self.blocks = list(blocks)
        self.log_t_axis = log_t_axis
        self.b_axis = b_axis
        self._tables = np.empty((len(self.blocks), log_t_axis.size, b_axis.size))
        self._filled = np.zeros(b_axis.size, dtype=bool)
        # _ready[c]: columns c and c + 1 are both filled, so the bilinear
        # cells with lower b index c can be read without the lock.
        self._ready = np.zeros(b_axis.size - 1, dtype=bool)
        self._lock = threading.Lock()
        self._kernel_inputs: tuple[np.ndarray, ...] | None = None

    def __getstate__(self) -> dict[str, Any]:
        # Locks do not pickle; a copy guards its own fills.
        state = self.__dict__.copy()
        del state["_lock"]
        return state

    def __setstate__(self, state: dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()

    @classmethod
    def from_tables(
        cls,
        blocks: list[BlockReliability],
        log_t_axis: np.ndarray,
        b_axis: np.ndarray,
        tables: np.ndarray,
    ) -> HybridAnalyzer:
        """An analyzer over already tabulated log-failure tables.

        Used to restore archived tables (:mod:`repro.io.tables`); nothing
        is recomputed.  ``tables`` must have shape
        ``(len(blocks), len(log_t_axis), len(b_axis))``.
        """
        analyzer = cls.__new__(cls)
        analyzer._init_state(
            blocks,
            np.array(log_t_axis, dtype=float),
            np.array(b_axis, dtype=float),
        )
        tables = np.asarray(tables, dtype=float)
        if tables.shape != analyzer._tables.shape:
            raise ConfigurationError(
                f"tables have shape {tables.shape}, "
                f"expected {analyzer._tables.shape}"
            )
        analyzer._tables[:] = tables
        analyzer._mark_filled(np.arange(analyzer.b_axis.size))
        return analyzer

    @property
    def tables(self) -> np.ndarray:
        """Read-only ``(block, ln(t/alpha), b)`` log-failure table.

        Reading it fills every b-column that no query has needed yet.
        """
        if not self._filled.all():
            self._fill(np.arange(self.b_axis.size))
        view = self._tables.view()
        view.flags.writeable = False
        return view

    def _mark_filled(self, columns: np.ndarray) -> None:
        filled = self._filled.copy()
        filled[columns] = True
        self._filled = filled
        self._ready = filled[:-1] & filled[1:]

    def _fill(self, columns: np.ndarray) -> None:
        """Tabulate, for every block, the b-columns in ``columns`` not yet filled.

        One fused :func:`batched_rule_expectations` call over the
        ``ln(t/alpha) * b`` products of the missing columns: each entry
        is the same elementwise evaluation a full build performs, so its
        value does not depend on which columns are filled together (every
        table on C1-C6 takes the kernel's separable branch).  Columns are
        written before they are marked ready, so lock-free readers only
        ever gather finished columns.
        """
        with self._lock:
            missing = columns[~self._filled[columns]]
            if missing.size == 0:
                return
            n_blocks, n_alpha, _ = self._tables.shape
            with span(
                "hybrid.build_table",
                blocks=n_blocks,
                n_alpha=n_alpha,
                columns=missing.size,
            ):
                if self._kernel_inputs is None:
                    l0, tail, include_residual_fluctuation = self._rule_knobs
                    tables = pad_block_rules(
                        midpoint_block_rules(
                            [block.blod for block in self.blocks],
                            l0,
                            tail,
                            include_residual_fluctuation,
                        )
                    )
                    log_areas = np.log([block.blod.area for block in self.blocks])
                    self._kernel_inputs = (log_areas, *tables)
                scaled = self.log_t_axis[:, None] * self.b_axis[None, missing]
                flat = np.broadcast_to(
                    scaled.reshape(1, -1), (n_blocks, scaled.size)
                )
                expectation = batched_rule_expectations(
                    flat, *self._kernel_inputs
                )
                failure = np.clip(1.0 - expectation, 1e-300, None)
                self._tables[:, :, missing] = np.log(failure).reshape(
                    n_blocks, n_alpha, missing.size
                )
                metrics.inc(
                    "hybrid.table_entries", n_blocks * n_alpha * missing.size
                )
            self._mark_filled(missing)

    def _build_block_table(
        self,
        block: BlockReliability,
        l0: int,
        tail: float,
        include_residual_fluctuation: bool,
    ) -> np.ndarray:
        """Tabulate ``E[exp(-A_j g)]`` over the (ln(t/alpha), b) axes.

        The table stores the *log* of the block failure probability:
        failure varies as ``exp(beta_chip * ln(t/alpha))`` across the axis,
        so bilinear interpolation in log space is near-exact while raw
        bilinear interpolation would overestimate by the chord-vs-curve gap
        of an exponential (~10-20 % at 100x100 resolution).
        """
        u_rule = midpoint_rule(block.blod.u_dist(), n_points=l0, tail=tail)
        v_rule = midpoint_rule(
            block.blod.v_chi2_match(include_residual_fluctuation),
            n_points=l0,
            tail=tail,
        )
        scaled = self.log_t_axis[:, None, None, None] * self.b_axis[None, :, None, None]
        log_g = (
            scaled * u_rule.points[None, None, :, None]
            + 0.5 * scaled**2 * v_rule.points[None, None, None, :]
        )
        exponent = np.clip(
            np.log(block.blod.area) + log_g, _EXP_MIN, _EXP_MAX
        )
        survival = np.exp(-np.exp(exponent))
        expectation = np.einsum(
            "abpq,p,q->ab", survival, u_rule.weights, v_rule.weights
        )
        failure = np.clip(1.0 - expectation, 1e-300, None)
        return np.log(failure)

    def _interpolate(
        self, table: np.ndarray, log_t_ratio: np.ndarray, b: float
    ) -> np.ndarray:
        """Bilinear interpolation of one block's log-failure table.

        ``log_t_ratio`` below the left edge clamps to failure 0 (times far
        below any tabulated point have negligible failure); values above
        the right edge or ``b`` outside its axis raise, because that means
        the table was built for a different operating envelope.
        """
        if not self.b_axis[0] <= b <= self.b_axis[-1]:
            raise ConfigurationError(
                f"b = {b} outside the table range "
                f"[{self.b_axis[0]:.3f}, {self.b_axis[-1]:.3f}]"
            )
        finite = np.isfinite(log_t_ratio)
        clamped_low = log_t_ratio <= self.log_t_axis[0]
        if np.any(log_t_ratio[finite] > self.log_t_axis[-1]):
            raise ConfigurationError(
                "query time beyond the table's ln(t/alpha) range; rebuild "
                "the table with a wider log_t_ratio_range"
            )
        x = np.clip(log_t_ratio, self.log_t_axis[0], self.log_t_axis[-1])
        x = np.where(finite, x, self.log_t_axis[0])

        ix = np.clip(
            np.searchsorted(self.log_t_axis, x) - 1, 0, len(self.log_t_axis) - 2
        )
        tx = (x - self.log_t_axis[ix]) / (
            self.log_t_axis[ix + 1] - self.log_t_axis[ix]
        )
        iy = int(
            np.clip(np.searchsorted(self.b_axis, b) - 1, 0, len(self.b_axis) - 2)
        )
        ty = (b - self.b_axis[iy]) / (self.b_axis[iy + 1] - self.b_axis[iy])

        f00 = table[ix, iy]
        f10 = table[ix + 1, iy]
        f01 = table[ix, iy + 1]
        f11 = table[ix + 1, iy + 1]
        log_value = (
            f00 * (1.0 - tx) * (1.0 - ty)
            + f10 * tx * (1.0 - ty)
            + f01 * (1.0 - tx) * ty
            + f11 * tx * ty
        )
        missed = clamped_low | ~finite
        if is_enabled():
            # "hits" interpolate from the table; "misses" fall outside it
            # (clamped below the left edge, negligible-failure region).
            n_miss = int(np.count_nonzero(missed))
            metrics.inc("hybrid.lut_hits", int(np.size(missed)) - n_miss)
            metrics.inc("hybrid.lut_misses", n_miss)
        return np.where(missed, 0.0, np.exp(log_value))

    def _interpolate_batched(
        self, log_t_ratios: np.ndarray, bs: np.ndarray
    ) -> np.ndarray:
        """All blocks' bilinear look-ups in one pass.

        Same range semantics as :meth:`_interpolate` — ``b`` outside its
        axis or a finite ``ln(t/alpha)`` beyond the right edge raises,
        values below the left edge clamp to failure 0 — applied across the
        whole ``(block, time)`` query matrix at once.
        """
        if bs.min() < self.b_axis[0] or bs.max() > self.b_axis[-1]:
            outside = (bs < self.b_axis[0]) | (bs > self.b_axis[-1])
            b = float(bs[int(np.argmax(outside))])
            raise ConfigurationError(
                f"b = {b} outside the table range "
                f"[{self.b_axis[0]:.3f}, {self.b_axis[-1]:.3f}]"
            )
        finite = np.isfinite(log_t_ratios)
        clamped_low = log_t_ratios <= self.log_t_axis[0]
        if (log_t_ratios[finite] > self.log_t_axis[-1]).any():
            raise ConfigurationError(
                "query time beyond the table's ln(t/alpha) range; rebuild "
                "the table with a wider log_t_ratio_range"
            )
        x = np.clip(log_t_ratios, self.log_t_axis[0], self.log_t_axis[-1])
        x = np.where(finite, x, self.log_t_axis[0])

        ix = np.clip(
            np.searchsorted(self.log_t_axis, x) - 1, 0, len(self.log_t_axis) - 2
        )
        tx = (x - self.log_t_axis[ix]) / (
            self.log_t_axis[ix + 1] - self.log_t_axis[ix]
        )
        iy = np.clip(
            np.searchsorted(self.b_axis, bs) - 1, 0, len(self.b_axis) - 2
        )
        if not self._ready[iy].all():
            self._fill(np.union1d(iy, iy + 1))
        ty = ((bs - self.b_axis[iy]) / (self.b_axis[iy + 1] - self.b_axis[iy]))[
            :, None
        ]
        rows = np.arange(len(self.blocks))[:, None]
        iy = iy[:, None]

        f00 = self._tables[rows, ix, iy]
        f10 = self._tables[rows, ix + 1, iy]
        f01 = self._tables[rows, ix, iy + 1]
        f11 = self._tables[rows, ix + 1, iy + 1]
        log_value = (
            f00 * (1.0 - tx) * (1.0 - ty)
            + f10 * tx * (1.0 - ty)
            + f01 * (1.0 - tx) * ty
            + f11 * tx * ty
        )
        missed = clamped_low | ~finite
        if is_enabled():
            n_miss = int(np.count_nonzero(missed))
            metrics.inc("hybrid.lut_hits", int(np.size(missed)) - n_miss)
            metrics.inc("hybrid.lut_misses", n_miss)
        return np.where(missed, 0.0, np.exp(log_value))

    def _weibull_override(self, name: str, values: np.ndarray) -> np.ndarray:
        """A per-block ``alpha`` or ``b`` override: finite and positive."""
        values = np.asarray(values, dtype=float)
        if values.shape != (len(self.blocks),):
            raise ConfigurationError("need one (alpha, b) pair per block")
        # NaN fails both comparisons.
        if not (values.min() > 0.0 and values.max() < np.inf):
            bad = int(np.argmin((values > 0.0) & (values < np.inf)))
            raise ConfigurationError(
                f"block {self.blocks[bad].name!r}: {name} must be finite "
                f"and positive, got {values[bad]}"
            )
        return values

    def block_failure_probabilities(
        self,
        times: np.ndarray | float,
        alphas: np.ndarray | None = None,
        bs: np.ndarray | None = None,
    ) -> np.ndarray:
        """``(n_blocks, n_times)`` interpolated block failure probabilities.

        ``alphas``/``bs`` override the per-block Weibull parameters —
        the table-reuse path for a different setup/application profile.
        """
        times = np.atleast_1d(np.asarray(times, dtype=float))
        if (times < 0.0).any():
            raise ConfigurationError("times must be non-negative")
        if alphas is None:
            alphas = np.array([block.alpha for block in self.blocks])
        else:
            alphas = self._weibull_override("alpha", alphas)
        if bs is None:
            bs = np.array([block.b for block in self.blocks])
        else:
            bs = self._weibull_override("b", bs)
        if fast_paths_enabled():
            with np.errstate(divide="ignore"):
                log_t_ratios = np.where(
                    times[None, :] > 0.0,
                    np.log(times[None, :] / alphas[:, None]),
                    -np.inf,
                )
            return self._interpolate_batched(log_t_ratios, bs)
        tables = self.tables
        out = np.empty((len(self.blocks), times.size))
        with np.errstate(divide="ignore"):
            for j in range(len(self.blocks)):
                log_t_ratio = np.where(
                    times > 0.0, np.log(times / alphas[j]), -np.inf
                )
                out[j] = self._interpolate(tables[j], log_t_ratio, float(bs[j]))
        return out

    def reliability(
        self,
        times: np.ndarray | float,
        alphas: np.ndarray | None = None,
        bs: np.ndarray | None = None,
        clip: bool = True,
    ) -> np.ndarray:
        """Ensemble chip reliability via table look-up (eq. (18) combine)."""
        times_arr = np.asarray(times, dtype=float)
        scalar = times_arr.ndim == 0
        failures = self.block_failure_probabilities(times_arr, alphas, bs)
        value = 1.0 - failures.sum(axis=0)
        if clip:
            value = np.clip(value, 0.0, 1.0)
        return float(value[0]) if scalar else value

    def failure_probability(
        self,
        times: np.ndarray | float,
        alphas: np.ndarray | None = None,
        bs: np.ndarray | None = None,
    ) -> np.ndarray:
        """``1 - R_c(t)`` via table look-up."""
        times_arr = np.asarray(times, dtype=float)
        scalar = times_arr.ndim == 0
        value = 1.0 - np.atleast_1d(self.reliability(times_arr, alphas, bs))
        return float(value[0]) if scalar else value
