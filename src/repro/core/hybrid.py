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

A lifetime solve also evaluates one profile about five times.  The part
of a look-up that depends on the profile alone (its checks, its ``b``
stencil and the table entries around it) is kept for the last profile
queried, so the later evaluations redo only the part that depends on
time.
"""

from __future__ import annotations

import threading
from typing import Any, NamedTuple

import numpy as np

from repro.core.closed_form import check_times
from repro.core.ensemble import (
    BlockReliability,
    RuleTables,
    _EnsembleAnalyzerBase,
    block_rule_tables,
)
from repro.errors import ConfigurationError
from repro.kernels.survival import batched_rule_expectations
from repro.obs import metrics
from repro.obs.trace import is_enabled, span


class _ProfileStencil(NamedTuple):
    """The part of a look-up that depends only on the profile ``(alphas, bs)``.

    ``key`` holds the shape and float64 bytes of each override passed
    (``None`` where the nominal values were used, so an override equal
    to them is still checked once).  ``ty`` and
    ``one_minus_ty`` are ``(blocks, 1)`` bilinear weights along ``b``.
    ``corners[j, :, i]`` holds block ``j``'s table entries at
    ``(i, iy)``, ``(i, iy + 1)``, ``(i + 1, iy)`` and ``(i + 1, iy + 1)``
    for every ``ln(t/alpha)`` cell ``i`` and the block's ``b`` cell
    ``iy``, so one gather reads all four corners of a look-up.
    """

    key: tuple[Any, Any]
    ty: np.ndarray
    one_minus_ty: np.ndarray
    corners: np.ndarray


class HybridAnalyzer(_EnsembleAnalyzerBase):
    """Pre-tabulated per-block expectations with bilinear interpolation.

    Table columns fill on demand (thread-safe; :attr:`tables` fills them
    all).  A look-up's profile half (:meth:`_profile_stencil`) is kept
    for the last profile queried; its time half
    (:meth:`_interpolate_batched`) runs on every call.

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
    rule_tables:
        The design's midpoint :class:`~repro.core.ensemble.RuleTables`;
        ``None`` builds them from the knobs above at the first fill.
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
        rule_tables: RuleTables | None = None,
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
        self.rule_tables = rule_tables

    def _init_state(
        self,
        blocks: list[BlockReliability],
        log_t_axis: np.ndarray,
        b_axis: np.ndarray,
    ) -> None:
        """Axes plus an empty table whose b-columns fill on demand."""
        self._set_blocks(blocks)
        self.log_t_axis = log_t_axis
        self.b_axis = b_axis
        self._tables = np.empty((len(self.blocks), log_t_axis.size, b_axis.size))
        self._filled = np.zeros(b_axis.size, dtype=bool)
        # _ready[c]: columns c and c + 1 are both filled, so the bilinear
        # cells with lower b index c can be read without the lock.
        self._ready = np.zeros(b_axis.size - 1, dtype=bool)
        self._lock = threading.Lock()
        self.rule_tables: RuleTables | None = None
        self._rows = np.arange(len(self.blocks))[:, None]
        self._log_t_steps = np.diff(log_t_axis)
        # The last profile's stencil, replaced by one assignment of an
        # immutable entry: a lock-free reader always sees a whole one.
        self._stencil: _ProfileStencil | None = None

    def __getstate__(self) -> dict[str, Any]:
        # Locks do not pickle; a copy guards its own fills and keeps no
        # stencil.
        state = self.__dict__.copy()
        del state["_lock"]
        state["_stencil"] = None
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
                if self.rule_tables is None:
                    l0, tail, include_residual_fluctuation = self._rule_knobs
                    blods = [block.blod for block in self.blocks]
                    self.rule_tables = block_rule_tables(
                        blods, l0, tail, "midpoint", include_residual_fluctuation
                    )
                scaled = self.log_t_axis[:, None] * self.b_axis[None, missing]
                flat = np.broadcast_to(
                    scaled.reshape(1, -1), (n_blocks, scaled.size)
                )
                expectation = batched_rule_expectations(
                    flat, *self.rule_tables.arrays
                )
                failure = np.clip(1.0 - expectation, 1e-300, None)
                self._tables[:, :, missing] = np.log(failure).reshape(
                    n_blocks, n_alpha, missing.size
                )
                metrics.inc(
                    "hybrid.table_entries", n_blocks * n_alpha * missing.size
                )
            self._mark_filled(missing)

    def _profile_stencil(
        self, alphas: np.ndarray | None, bs: np.ndarray | None
    ) -> tuple[np.ndarray, _ProfileStencil]:
        """The alphas to look up with, and the profile half of a look-up.

        ``None`` selects the blocks' nominal values.  The stencil is
        served from a one-entry memo when ``alphas`` and ``bs`` hold the
        same shapes and float64 bytes as the last profile's, so an array
        mutated in place is a new profile.  Otherwise the overrides are
        checked, the ``b`` range is checked, the stencil's columns are
        filled if needed, and the new stencil replaces the memo in one
        assignment (concurrent callers each use the entry they read).
        """
        key_alphas = key_bs = None
        if alphas is None:
            alphas = self._nominal[0]
        else:
            alphas = np.asarray(alphas, dtype=float)
            key_alphas = (alphas.shape, alphas.tobytes())
        if bs is None:
            bs = self._nominal[1]
        else:
            bs = np.asarray(bs, dtype=float)
            key_bs = (bs.shape, bs.tobytes())
        key = (key_alphas, key_bs)
        stencil = self._stencil
        if stencil is not None and stencil.key == key:
            return alphas, stencil

        if key_alphas is not None:
            self._check_override("alpha", alphas)
        if key_bs is not None:
            self._check_override("b", bs)
        if bs.min() < self.b_axis[0] or bs.max() > self.b_axis[-1]:
            outside = (bs < self.b_axis[0]) | (bs > self.b_axis[-1])
            b = float(bs[int(np.argmax(outside))])
            raise ConfigurationError(
                f"b = {b} outside the table range "
                f"[{self.b_axis[0]:.3f}, {self.b_axis[-1]:.3f}]"
            )
        iy = np.minimum(
            np.maximum(self.b_axis.searchsorted(bs) - 1, 0), self.b_axis.size - 2
        )
        if not self._ready[iy].all():
            self._fill(np.union1d(iy, iy + 1))
        ty = ((bs - self.b_axis[iy]) / (self.b_axis[iy + 1] - self.b_axis[iy]))[
            :, None
        ]
        # (blocks, 2, n_alpha): the table columns at iy and iy + 1.
        columns = self._tables[self._rows, :, iy[:, None] + (0, 1)]
        stencil = _ProfileStencil(
            key=key,
            ty=ty,
            one_minus_ty=1.0 - ty,
            corners=np.concatenate(
                (columns[:, :, :-1], columns[:, :, 1:]), axis=1
            ),
        )
        self._stencil = stencil
        return alphas, stencil

    def _interpolate_batched(
        self, log_t_ratios: np.ndarray, stencil: _ProfileStencil
    ) -> np.ndarray:
        """All blocks' bilinear look-ups in one pass: the time half.

        The table stores the *log* of the block failure probability:
        failure varies as ``exp(beta_chip * ln(t/alpha))`` across the
        axis, so bilinear interpolation in log space is near-exact while
        raw bilinear interpolation would overestimate by the chord-vs-curve
        gap of an exponential (~10-20 % at 100x100 resolution).

        ``log_t_ratios`` below the left edge clamp to failure 0 (times far
        below any tabulated point have negligible failure); a finite value
        beyond the right edge raises, as a ``b`` outside its axis does in
        :meth:`_profile_stencil`, because that means the table was built
        for a different operating envelope.
        """
        axis = self.log_t_axis
        lo, hi = axis[0], axis[-1]
        finite = np.isfinite(log_t_ratios)
        clamped_low = log_t_ratios <= lo
        if (log_t_ratios[finite] > hi).any():
            raise ConfigurationError(
                "query time beyond the table's ln(t/alpha) range; rebuild "
                "the table with a wider log_t_ratio_range"
            )
        # np.minimum(np.maximum(...)) is np.clip without its Python wrapper.
        x = np.where(finite, np.minimum(np.maximum(log_t_ratios, lo), hi), lo)
        ix = np.minimum(np.maximum(axis.searchsorted(x) - 1, 0), axis.size - 2)
        tx = (x - axis[ix]) / self._log_t_steps[ix]
        one_minus_tx = 1.0 - tx
        corners = stencil.corners[self._rows, :, ix]
        f00 = corners[..., 0]
        f01 = corners[..., 1]
        f10 = corners[..., 2]
        f11 = corners[..., 3]
        log_value = (
            f00 * one_minus_tx * stencil.one_minus_ty
            + f10 * tx * stencil.one_minus_ty
            + f01 * one_minus_tx * stencil.ty
            + f11 * tx * stencil.ty
        )
        missed = clamped_low | ~finite
        if is_enabled():
            # "hits" interpolate from the table; "misses" fall outside it
            # (clamped below the left edge, negligible-failure region).
            n_miss = int(np.count_nonzero(missed))
            metrics.inc("hybrid.lut_hits", int(np.size(missed)) - n_miss)
            metrics.inc("hybrid.lut_misses", n_miss)
        return np.where(missed, 0.0, np.exp(log_value))

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
        check_times(times)
        alphas, stencil = self._profile_stencil(alphas, bs)
        times = times[None, :]
        with np.errstate(divide="ignore"):
            log_t_ratios = np.where(
                times > 0.0, np.log(times / alphas[:, None]), -np.inf
            )
        return self._interpolate_batched(log_t_ratios, stencil)
