"""Top-level facade: full-chip OBD reliability analysis of a design.

:class:`ReliabilityAnalyzer` wires the whole flow of Fig. 9 together:

1. thermal profile (HotSpotLite, unless block temperatures are given),
2. spatial-correlation grid + PCA canonical thickness model,
3. closed-form BLOD characterisation per block (eq. (22)/(24)),
4. one of the evaluation methods:

   - ``st_fast``   — marginal-product statistical analysis (Sec. IV-D),
   - ``st_mc``     — numerical joint PDF from PC samples (Sec. IV-C),
   - ``hybrid``    — table look-up with bilinear interpolation (Sec. IV-E),
   - ``temp_unaware`` — statistical thickness, worst-case temperature,
   - ``guard``     — traditional guard-band corner (eq. (33)-(34)),
   - ``mc``        — Monte-Carlo reference over sample chips.

Steps 2-3 live in a temperature-free :class:`DesignModel`; step 1 gives
the operating point, and :meth:`ReliabilityAnalyzer.at` moves it.
"""

from __future__ import annotations

import threading
from collections.abc import Callable
from dataclasses import dataclass, replace
from typing import Any, Generic, TypeVar, overload

import numpy as np

from repro.chip.floorplan import Floorplan
from repro.core.blod import characterize_blods
from repro.core.ensemble import (
    BlockReliability,
    RuleTables,
    StFastAnalyzer,
    StMcAnalyzer,
    block_rule_tables,
    draw_sample_cloud,
)
from repro.core.guardband import GuardBandAnalyzer
from repro.core.hybrid import HybridAnalyzer
from repro.core.lifetime import ppm_to_reliability, solve_lifetime
from repro.core.montecarlo import MonteCarloEngine, ReliabilityCurve
from repro.core.obd_model import OBDModel
from repro.errors import ConfigurationError
from repro.exec.backends import ExecBackend, shared_backend
from repro.exec.sharding import DEFAULT_SHARD_SIZE
from repro.obs import metrics
from repro.obs.logging import get_logger
from repro.obs.trace import span
from repro.thermal.hotspot import (
    HotSpotLite,
    ThermalResult,
    uniform_temperature_result,
)
from repro.variation.components import VariationBudget
from repro.variation.correlation import SpatialCorrelationModel
from repro.variation.pca import build_canonical_model
from repro.variation.sampling import ChipSampler

#: Evaluation methods accepted by :meth:`ReliabilityAnalyzer.reliability`.
METHODS = ("st_fast", "st_mc", "hybrid", "temp_unaware", "guard", "mc")

logger = get_logger("core.analyzer")

_T = TypeVar("_T")


class _built_once(Generic[_T]):
    """``functools.cached_property``, built once per instance under its lock.

    ``cached_property`` takes no lock from Python 3.12 on, so two threads
    sharing a design could both build one part; up to 3.11 it holds one
    lock per class attribute, so one design's rule build would block every
    other design's.  Here each instance builds under its own re-entrant
    ``_build_lock`` (one part may read another).
    """

    def __init__(self, build: Callable[[Any], _T]) -> None:
        self.build = build
        self.name = build.__name__
        self.__doc__ = build.__doc__

    @overload
    def __get__(self, instance: None, owner: type) -> _built_once[_T]: ...

    @overload
    def __get__(self, instance: object, owner: type) -> _T: ...

    def __get__(self, instance: Any, owner: type) -> _T | _built_once[_T]:
        if instance is None:
            return self
        with instance._build_lock:
            built = instance.__dict__
            if self.name not in built:
                built[self.name] = self.build(instance)
            value: _T = built[self.name]
            return value


class _SharedParts:
    """The lock behind :class:`_built_once` parts; a pickled copy gets a fresh one."""

    def __init__(self) -> None:
        self._build_lock = threading.RLock()

    def __getstate__(self) -> dict[str, Any]:
        state = self.__dict__.copy()
        del state["_build_lock"]
        return state

    def __setstate__(self, state: dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._build_lock = threading.RLock()


@dataclass(frozen=True)
class AnalysisConfig:
    """Knobs of the analysis flow (defaults follow the paper's setup).

    Parameters
    ----------
    grid_size:
        Spatial-correlation grid resolution per axis (paper: 25x25).
    rho_dist:
        Correlation distance relative to the chip dimension (paper: 0.5).
    kernel:
        Spatial correlation kernel (paper: exponential decay [38]).
    correlation_model:
        ``"grid"`` (paper default: grid covariance + PCA) or
        ``"quadtree"`` (the [24] alternative; ``rho_dist``/``kernel`` are
        then unused).
    quadtree_levels:
        Tree depth for the quad-tree correlation model.
    pca_energy:
        Variance fraction retained by the PCA truncation.
    max_factors:
        Optional hard cap on spatial principal components.
    l0:
        Integration sub-domains per dimension (paper: 10).
    tail:
        Tail mass excluded per side of each integration bracket.
    integration_rule:
        ``"midpoint"`` (paper) or ``"gauss"``.
    vdd:
        Operating supply voltage; ``None`` uses the OBD model reference.
    st_mc_samples:
        Principal-component draws for the st_mc analyzer.
    st_mc_estimator:
        ``"samples"`` or ``"histogram"`` (see :class:`StMcAnalyzer`).
    seed:
        Seed for the stochastic analyzers (st_mc); MC references take
        their own seeds per call.
    hybrid_n_alpha, hybrid_n_b:
        Look-up table resolution (paper: 100x100).
    mc_device_mode:
        ``"binned"`` or ``"exact"`` device handling for MC references.
    mc_chunk_size:
        Chips per submitted MC task (scheduling granularity — never
        affects results).
    mc_shard_size:
        Chips/samples per seed shard for the MC and st_mc engines.  Part
        of the deterministic stream definition (see
        :mod:`repro.exec.sharding`).
    exec_backend:
        Execution backend name (``serial``/``thread``/``process``);
        ``None`` defers to ``REPRO_EXEC_BACKEND``/``REPRO_JOBS``.
    exec_jobs:
        Worker count for parallel backends; ``None`` defers to
        ``REPRO_JOBS`` (or the CPU count).
    include_residual_fluctuation:
        Keep the residual sampling fluctuation in the BLOD-variance
        surrogate.
    """

    grid_size: int = 25
    rho_dist: float = 0.5
    kernel: str = "exponential"
    correlation_model: str = "grid"
    quadtree_levels: int = 3
    pca_energy: float = 0.9999
    max_factors: int | None = None
    l0: int = 10
    tail: float = 1e-6
    integration_rule: str = "midpoint"
    vdd: float | None = None
    st_mc_samples: int = 20000
    st_mc_estimator: str = "samples"
    seed: int = 2024
    hybrid_n_alpha: int = 100
    hybrid_n_b: int = 100
    mc_device_mode: str = "binned"
    mc_chunk_size: int = 100
    mc_shard_size: int = DEFAULT_SHARD_SIZE
    exec_backend: str | None = None
    exec_jobs: int | None = None
    include_residual_fluctuation: bool = True


class DesignModel(_SharedParts):
    """The temperature-free half of an analysis, shared by every operating point.

    Grid, canonical model, sampler and BLODs are built on construction;
    the rule tables, the st_mc sample cloud and the execution backend on
    first use, once, however many threads share the model.
    """

    def __init__(
        self,
        floorplan: Floorplan,
        budget: VariationBudget,
        config: AnalysisConfig,
        mean_offsets: np.ndarray | None = None,
    ) -> None:
        super().__init__()
        self.floorplan = floorplan
        self.budget = budget
        self.config = config
        self.mean_offsets = mean_offsets
        self.grid = floorplan.make_grid(config.grid_size)
        with span("pca", model=config.correlation_model) as pca_span:
            if config.correlation_model == "grid":
                self.correlation = SpatialCorrelationModel(
                    grid=self.grid, rho_dist=config.rho_dist, kernel=config.kernel
                )
                self.canonical = build_canonical_model(
                    budget,
                    self.correlation,
                    energy=config.pca_energy,
                    max_factors=config.max_factors,
                    mean_offsets=mean_offsets,
                )
            elif config.correlation_model == "quadtree":
                from repro.variation.quadtree import build_quadtree_model

                self.correlation = None
                self.canonical = build_quadtree_model(
                    budget,
                    self.grid,
                    levels=config.quadtree_levels,
                    mean_offsets=mean_offsets,
                )
            else:
                raise ConfigurationError(
                    f"unknown correlation model {config.correlation_model!r}; "
                    "expected 'grid' or 'quadtree'"
                )
            metrics.inc("pca.factors", self.canonical.n_factors)
            pca_span.set(factors=self.canonical.n_factors)

        with span("blod", blocks=floorplan.n_blocks):
            self.sampler = ChipSampler(floorplan, self.grid, self.canonical)
            self.blods = characterize_blods(
                floorplan,
                self.grid,
                self.canonical,
                self.sampler.assignments,
            )

    def _rule_tables(self, rule: str) -> RuleTables:
        cfg = self.config
        return block_rule_tables(
            self.blods, cfg.l0, cfg.tail, rule, cfg.include_residual_fluctuation
        )

    @_built_once
    def st_fast_tables(self) -> RuleTables:
        """st_fast's rule tables under the configured integration rule."""
        return self._rule_tables(self.config.integration_rule)

    @_built_once
    def midpoint_tables(self) -> RuleTables:
        """The hybrid's midpoint tables: st_fast's under the midpoint rule."""
        if self.config.integration_rule == "midpoint":
            return self.st_fast_tables
        return self._rule_tables("midpoint")

    @_built_once
    def sample_cloud(self) -> tuple[np.ndarray, np.ndarray]:
        """The st_mc sample cloud, drawn once per design."""
        cfg = self.config
        return draw_sample_cloud(
            self.blods, cfg.st_mc_samples, cfg.seed,
            backend=self.exec_backend, shard_size=cfg.mc_shard_size,
        )

    @_built_once
    def exec_backend(self) -> ExecBackend:
        """The execution backend shared by the sampled engines.

        It is the process's one backend for the configured setting, so
        designs never hold worker pools of their own.
        """
        cfg = self.config
        return shared_backend(cfg.exec_backend, cfg.exec_jobs)


class _OperatingPoint(_SharedParts):
    """A :class:`DesignModel` at one operating point: block temperatures and vdd.

    They give every block's Weibull :attr:`alphas` and :attr:`bs`, where
    every method evaluates the design model.  The method analyzers are
    built on first use, once, however many threads share the point.
    """

    def __init__(
        self,
        design: DesignModel,
        obd_model: OBDModel,
        config: AnalysisConfig,
        block_temperatures: np.ndarray,
        thermal: ThermalResult | None = None,
    ) -> None:
        """Bind ``design`` at one operating point: the step every point ends with."""
        super().__init__()
        self.design = design
        self.floorplan = design.floorplan
        self.budget = design.budget
        self.grid = design.grid
        self.correlation = design.correlation
        self.canonical = design.canonical
        self.sampler = design.sampler
        self.blods = design.blods
        self.obd_model = obd_model
        self.config = config
        self.thermal = thermal
        self.block_temperatures = np.asarray(block_temperatures, dtype=float)
        if self.block_temperatures.shape != (design.floorplan.n_blocks,):
            raise ConfigurationError(
                f"expected {design.floorplan.n_blocks} block temperatures, "
                f"got shape {self.block_temperatures.shape}"
            )
        params = obd_model.block_params(self.block_temperatures, config.vdd)
        self.blocks = [
            BlockReliability(blod=blod, alpha=p.alpha, b=p.b)
            for blod, p in zip(design.blods, params, strict=True)
        ]
        self.alphas = np.array([p.alpha for p in params])
        self.bs = np.array([p.b for p in params])

    def at(
        self, block_temperatures: np.ndarray, vdd: float | None = None
    ) -> ReliabilityAnalyzer:
        """This design at other block temperatures (celsius) and ``vdd``.

        ``vdd=None`` keeps this analyzer's.  The result shares :attr:`design`
        (rule tables, sample cloud): nothing temperature-free is rebuilt.
        """
        config = self.config if vdd is None else replace(self.config, vdd=vdd)
        return operating_point(
            self.design, self.obd_model, config, block_temperatures
        )

    # ------------------------------------------------------------------
    # Lazily constructed per-method analyzers
    # ------------------------------------------------------------------

    @_built_once
    def st_fast(self) -> StFastAnalyzer:
        """The marginal-product statistical analyzer."""
        return StFastAnalyzer(
            self.blocks, rule_tables=self.design.st_fast_tables
        )

    @_built_once
    def st_mc(self) -> StMcAnalyzer:
        """The numerical-joint-PDF statistical analyzer."""
        cfg = self.config
        return StMcAnalyzer(
            self.blocks,
            estimator=cfg.st_mc_estimator,
            bins=cfg.l0,
            cloud=self.design.sample_cloud,
        )

    @_built_once
    def hybrid(self) -> HybridAnalyzer:
        """The table-look-up analyzer (``b`` axis centred on this point)."""
        cfg = self.config
        return HybridAnalyzer(
            self.blocks,
            n_alpha=cfg.hybrid_n_alpha,
            n_b=cfg.hybrid_n_b,
            rule_tables=self.design.midpoint_tables,
        )

    @_built_once
    def worst_case(self) -> tuple[np.ndarray, np.ndarray]:
        """temp_unaware's ``(alphas, bs)``: the hottest block's pair on every block.

        The hottest block has the smallest ``alpha`` (the first on ties).
        Both arrays are read-only.
        """
        hottest = int(np.argmin(self.alphas))
        pair = (
            np.full(self.alphas.size, self.alphas[hottest]),
            np.full(self.bs.size, self.bs[hottest]),
        )
        for values in pair:
            values.setflags(write=False)
        return pair

    @_built_once
    def temp_unaware(self) -> StFastAnalyzer:
        """Fig. 10's worst-case-temperature analysis: st_fast at :attr:`worst_case`."""
        alpha, b = (float(values[0]) for values in self.worst_case)
        return StFastAnalyzer(
            [replace(block, alpha=alpha, b=b) for block in self.blocks],
            rule_tables=self.design.st_fast_tables,
        )

    @_built_once
    def guard(self) -> GuardBandAnalyzer:
        """The traditional guard-band baseline."""
        worst_temp = float(np.max(self.block_temperatures))
        params = self.obd_model.device_params(worst_temp, self.config.vdd)
        return GuardBandAnalyzer(
            total_area=self.floorplan.total_oxide_area,
            alpha_worst=params.alpha,
            b_worst=params.b,
            x_min=self.budget.minimum_thickness,
        )

    @property
    def exec_backend(self) -> ExecBackend:
        """The execution backend shared by the sampled engines."""
        return self.design.exec_backend

    @_built_once
    def mc_engine(self) -> MonteCarloEngine:
        """The Monte-Carlo reference engine."""
        cfg = self.config
        return MonteCarloEngine(
            self.sampler,
            self.blocks,
            device_mode=cfg.mc_device_mode,
            chunk_size=cfg.mc_chunk_size,
            shard_size=cfg.mc_shard_size,
            backend=self.exec_backend,
        )

    # ------------------------------------------------------------------
    # Unified evaluation API
    # ------------------------------------------------------------------

    def reliability(
        self,
        times: np.ndarray | float,
        method: str = "st_fast",
        mc_chips: int = 500,
        mc_seed: int = 0,
    ) -> np.ndarray | float:
        """Ensemble chip reliability ``R_c(t)`` by the chosen method."""
        times_arr = np.asarray(times, dtype=float)
        scalar = times_arr.ndim == 0
        if method not in METHODS:
            raise ConfigurationError(
                f"unknown method {method!r}; expected one of {METHODS}"
            )
        with span("analyzer.reliability", method=method):
            with span(method, times=int(np.atleast_1d(times_arr).size)):
                if method == "mc":
                    curve = self.mc_reliability_curve(
                        np.atleast_1d(times_arr), n_chips=mc_chips, seed=mc_seed
                    )
                    value = curve.reliability
                else:  # the method property of the same name
                    engine = getattr(self, method)
                    value = np.atleast_1d(engine.reliability(times_arr))
        return float(value[0]) if scalar else value

    def lifetime(
        self,
        ppm: float,
        method: str = "st_fast",
    ) -> float:
        """Lifetime (hours) at an n-faults-per-million criterion.

        For the MC reference use :meth:`mc_lifetime`, which controls its
        own sample size.
        """
        if method == "mc":
            raise ConfigurationError("use mc_lifetime for the MC reference")
        with span("analyzer.lifetime", method=method, ppm=ppm):
            if method == "guard":
                return self.guard.lifetime(ppm_to_reliability(ppm))
            # Seed the bracketing with the analytic guard-band estimate,
            # which is within ~2x of every statistical method's answer.
            guess = self.guard.lifetime(ppm_to_reliability(ppm))
            return solve_lifetime(
                lambda t: float(self.reliability(t, method=method)),
                ppm_to_reliability(ppm),
                t_guess=guess,
            )

    def mc_reliability_curve(
        self,
        times: np.ndarray,
        n_chips: int = 1000,
        seed: int = 0,
        checkpoint_path: str | None = None,
        cancel_check: Callable[[], bool] | None = None,
    ) -> ReliabilityCurve:
        """Monte-Carlo reference reliability curve.

        The seed roots a deterministic shard plan (stable across
        backends, worker counts and chunk sizes), so passing a
        ``checkpoint_path`` lets a killed run resume to the same curve.
        ``cancel_check`` cooperatively interrupts the run between shard
        groups (:class:`~repro.errors.ExecutionInterrupted`), flushing
        the checkpoint first.
        """
        return self.mc_engine.reliability_curve(
            np.asarray(times, dtype=float),
            n_chips,
            np.random.SeedSequence(seed),
            checkpoint_path=checkpoint_path,
            cancel_check=cancel_check,
        )

    def mc_time_grid(
        self,
        ppm: float,
        span_decades: float = 1.2,
        n_times: int = 33,
    ) -> np.ndarray:
        """The log-time grid :meth:`mc_lifetime` samples the MC curve on.

        Centred at the (closed-form, millisecond) st_fast lifetime
        estimate.  Exposed separately so a fleet coordinator can compute
        the grid locally and ship the explicit times to workers — JSON
        round-trips float64 exactly, so the remote curve lands on
        bit-identical abscissae.
        """
        center = self.lifetime(ppm, method="st_fast")
        return np.logspace(
            np.log10(center) - span_decades / 2.0,
            np.log10(center) + span_decades / 2.0,
            n_times,
        )

    def mc_shard_payloads(
        self,
        times: np.ndarray,
        n_chips: int = 1000,
        seed: int = 0,
        shard_indices: list[int] | tuple[int, ...] | None = None,
        checkpoint_path: str | None = None,
        cancel_check: Callable[[], bool] | None = None,
    ) -> dict[int, dict[str, np.ndarray]]:
        """Partial MC sums for a subset of the deterministic shard plan.

        The worker-side primitive of :mod:`repro.fleet`: evaluates only
        ``shard_indices`` out of the plan for ``(seed, n_chips)``, using
        the exact per-shard streams a serial run would (see
        :meth:`MonteCarloEngine.shard_payloads`).
        """
        return self.mc_engine.shard_payloads(
            np.asarray(times, dtype=float),
            n_chips,
            np.random.SeedSequence(seed),
            shard_indices=shard_indices,
            checkpoint_path=checkpoint_path,
            cancel_check=cancel_check,
        )

    def mc_lifetime(
        self,
        ppm: float,
        n_chips: int = 1000,
        seed: int = 0,
        span_decades: float = 1.2,
        n_times: int = 33,
        checkpoint_path: str | None = None,
        cancel_check: Callable[[], bool] | None = None,
    ) -> float:
        """Lifetime at a ppm criterion from the Monte-Carlo reference.

        Samples the MC curve on a log-time window centred at the st_fast
        estimate, then solves on the interpolated curve.  The optional
        ``checkpoint_path``/``cancel_check`` pair makes long runs
        resumable and cooperatively interruptible (see
        :meth:`mc_reliability_curve`) — the hooks the service layer uses
        for graceful shutdown.
        """
        from repro.core.lifetime import lifetime_from_curve

        times = self.mc_time_grid(
            ppm, span_decades=span_decades, n_times=n_times
        )
        curve = self.mc_reliability_curve(
            times,
            n_chips=n_chips,
            seed=seed,
            checkpoint_path=checkpoint_path,
            cancel_check=cancel_check,
        )
        return lifetime_from_curve(
            curve.times, curve.reliability, ppm_to_reliability(ppm)
        )

    def mc_failure_times(
        self, n_chips: int = 10000, seed: int = 0
    ) -> np.ndarray:
        """Failure-time samples for the Fig. 10 style comparison."""
        return self.mc_engine.failure_times(
            n_chips, np.random.SeedSequence(seed)
        )

    # ------------------------------------------------------------------
    # Introspection helpers
    # ------------------------------------------------------------------

    def summary(self) -> dict:
        """A human-readable description of the prepared analysis."""
        return {
            "design": {
                "blocks": self.floorplan.n_blocks,
                "devices": self.floorplan.n_devices,
                "total_oxide_area": self.floorplan.total_oxide_area,
            },
            "temperatures_c": {
                name: round(float(t), 2)
                for name, t in zip(
                    self.floorplan.block_names,
                    self.block_temperatures,
                    strict=True,
                )
            },
            "variation": {
                "nominal_nm": self.budget.nominal_thickness,
                "sigma_total_nm": self.budget.sigma_total,
                "rho_dist": self.config.rho_dist,
                "grid": f"{self.config.grid_size}x{self.config.grid_size}",
                "pca_factors": self.canonical.n_factors,
            },
        }


class ReliabilityAnalyzer(_OperatingPoint):
    """Process-variation and temperature-aware full-chip OBD analysis.

    Builds the :class:`DesignModel` of ``floorplan`` at the design's own
    operating point; :meth:`at` moves the point and keeps the model.

    Parameters
    ----------
    floorplan:
        The design: temperature-uniform blocks with device populations.
    budget:
        Thickness-variation budget; defaults to the paper's Table II.
    obd_model:
        Device-level OBD model; defaults to the calibrated
        :class:`OBDModel`.
    config:
        Flow configuration; defaults to the paper's setup.
    block_temperatures:
        Optional explicit per-block temperatures (celsius, floorplan
        order). When omitted, a thermal analysis is run on the floorplan's
        block powers; if the floorplan carries no power at all, every
        block is placed at the OBD model's reference temperature.
    thermal_model:
        Thermal analyzer used when temperatures are not given.
    mean_offsets:
        Optional per-grid-cell deterministic thickness offsets (nm) — a
        wafer-level systematic pattern, typically from
        :meth:`repro.variation.wafer.WaferPattern.grid_offsets`.
    """

    def __init__(
        self,
        floorplan: Floorplan,
        budget: VariationBudget | None = None,
        obd_model: OBDModel | None = None,
        config: AnalysisConfig | None = None,
        block_temperatures: np.ndarray | None = None,
        thermal_model: HotSpotLite | None = None,
        mean_offsets: np.ndarray | None = None,
    ) -> None:
        budget = budget if budget is not None else VariationBudget.table2()
        obd_model = obd_model if obd_model is not None else OBDModel()
        config = config if config is not None else AnalysisConfig()

        with span(
            "analyzer.setup",
            blocks=floorplan.n_blocks,
            devices=floorplan.n_devices,
        ):
            with span("thermal"):
                thermal = None
                if block_temperatures is None:
                    thermal = own_thermal(floorplan, obd_model, thermal_model)
                    block_temperatures = thermal.block_temperatures
            design = DesignModel(floorplan, budget, config, mean_offsets)
            super().__init__(
                design, obd_model, config, block_temperatures, thermal
            )
        logger.debug(
            "prepared analyzer: %d blocks, %d devices, %d PCA factors",
            floorplan.n_blocks,
            floorplan.n_devices,
            self.canonical.n_factors,
        )


def own_thermal(
    floorplan: Floorplan,
    obd_model: OBDModel,
    thermal_model: HotSpotLite | None = None,
) -> ThermalResult:
    """The design's own operating point: its block powers' thermal solution.

    A floorplan that carries no power at all puts every block at the OBD
    model's reference temperature.
    """
    if floorplan.total_power > 0.0:
        return (thermal_model or HotSpotLite()).analyze(floorplan)
    return uniform_temperature_result(floorplan, obd_model.t_ref)


def operating_point(
    design: DesignModel,
    obd_model: OBDModel,
    config: AnalysisConfig,
    block_temperatures: np.ndarray,
    thermal: ThermalResult | None = None,
) -> ReliabilityAnalyzer:
    """An analyzer of ``design`` at one operating point, built without the constructor.

    It shares everything temperature-free with every other point of
    ``design``: nothing is rebuilt.
    """
    point = ReliabilityAnalyzer.__new__(ReliabilityAnalyzer)
    _OperatingPoint.__init__(
        point, design, obd_model, config, block_temperatures, thermal
    )
    return point


def build_analyzer(
    floorplan: Floorplan,
    grid_size: int = 25,
    rho_dist: float = 0.5,
    vdd: float | None = None,
    exec_jobs: int | None = None,
    setup: tuple[VariationBudget, OBDModel, AnalysisConfig] | None = None,
) -> ReliabilityAnalyzer:
    """The analyzer a CLI command or a service job asks for.

    A ``setup`` (budget, OBD model, config) brings its own config in place
    of ``grid_size``/``rho_dist``; ``vdd`` and ``exec_jobs`` override it.
    The analyzer is the design's own operating point, served from the
    process-wide design store (:mod:`repro.core.store`).
    """
    from repro.core.store import stored_analyzer

    budget: VariationBudget | None = None
    obd_model: OBDModel | None = None
    if setup is None:
        config = AnalysisConfig(grid_size=grid_size, rho_dist=rho_dist)
    else:
        budget, obd_model, config = setup
    if vdd is not None:
        config = replace(config, vdd=vdd)
    if exec_jobs is not None:
        config = replace(config, exec_jobs=exec_jobs)
    return stored_analyzer(floorplan, budget, obd_model, config)
