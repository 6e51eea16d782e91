"""Scenario evaluation: phase schedules x mechanisms -> one lifetime.

:class:`ScenarioAnalyzer` sits on top of a prepared
:class:`~repro.core.analyzer.ReliabilityAnalyzer` (which owns the
floorplan, the BLOD characterisation and the thermal reference point) and
evaluates a :class:`~repro.scenario.schedule.Scenario` against it:

1. Each phase's stress resolves to per-block temperatures — explicit
   values, a power-map re-solve through the thermal layer (the LU factor
   cache makes phase ``p > 1`` a back-substitution, same grid + package),
   or the design's own operating point.
2. Every mechanism in the scenario maps each phase's stress onto
   per-block ``(alpha, b)`` pairs; the (mechanism x block) entries share
   the host's BLODs — process variation does not change with the
   workload — and race in one first-order weakest-link sum (eq. (18)).
3. Phases compose by cumulative-exposure effective-time accumulation
   (:mod:`repro.scenario.effective`):

   - a single ordered phase evaluates the entries *directly* (their true
     ``(alpha, b)``), so an OBD-only steady scenario is bit-identical to
     the paper's single-condition analysis;
   - a residency mixture collapses exactly to one equivalent condition
     (harmonic-mean ``alpha``, mean-slope ``b``);
   - an ordered multi-phase schedule accumulates per-entry dose
     ``s_e(t) = sum_p min(d_p, ...) / alpha_{e,p}`` piecewise-linearly
     and evaluates the entries at unit characteristic life in dose
     coordinates, with the final (open-ended) phase's slope as the
     common Weibull slope — the b-slope approximation documented in
     ``docs/scenarios.md``.
"""

from __future__ import annotations

import numpy as np

from repro.core.analyzer import ReliabilityAnalyzer
from repro.core.ensemble import BlockReliability, StFastAnalyzer
from repro.core.lifetime import ppm_to_reliability, solve_lifetime
from repro.errors import ConfigurationError
from repro.kernels.config import fast_paths_enabled
from repro.kernels.survival import batched_rule_expectations
from repro.mechanisms import (
    FailureMechanism,
    MechanismContext,
    StressCondition,
    get_mechanism,
)
from repro.obs import metrics
from repro.obs.trace import span
from repro.scenario.effective import collapse_to_st_fast, phase_dose_shares
from repro.scenario.schedule import Scenario
from repro.thermal.hotspot import HotSpotLite

__all__ = ["ScenarioAnalyzer", "scenario_analyzer"]

#: Per-mechanism entry counters (static names; the dynamic part routes
#: through this literal dict, with a shared bucket for plugin mechanisms).
_MECHANISM_BLOCK_COUNTERS = {
    "obd": "mechanism.obd.blocks",
    "nbti": "mechanism.nbti.blocks",
    "em": "mechanism.em.blocks",
}
_PLUGIN_BLOCK_COUNTER = "mechanism.plugin.blocks"


class ScenarioAnalyzer:
    """Chip reliability and lifetime under a piecewise stress scenario.

    Parameters
    ----------
    host:
        The prepared single-condition analysis providing floorplan,
        BLODs, OBD calibration and the default operating point.
    scenario:
        The phase schedule and mechanism set to evaluate.
    thermal_model:
        Thermal analyzer for power-map phases (default
        :class:`HotSpotLite` with the same defaults the host used).
    """

    def __init__(
        self,
        host: ReliabilityAnalyzer,
        scenario: Scenario,
        thermal_model: HotSpotLite | None = None,
    ) -> None:
        self.host = host
        self.scenario = scenario
        self._thermal_model = (
            thermal_model if thermal_model is not None else HotSpotLite()
        )
        self._context = MechanismContext(
            obd_model=host.obd_model,
            nominal_thickness_nm=host.budget.nominal_thickness,
        )
        self._mechanisms: list[FailureMechanism] = [
            get_mechanism(name) for name in scenario.mechanisms
        ]
        n_blocks = host.floorplan.n_blocks
        with span(
            "scenario.analyze",
            phases=scenario.n_phases,
            mechanisms=len(self._mechanisms),
            composition=scenario.composition,
        ):
            metrics.inc("scenario.runs")
            metrics.inc("scenario.phases", scenario.n_phases)
            self.phase_temperatures = [
                self._resolve_phase_temperatures(phase)
                for phase in scenario.phases
            ]
            #: entry e <-> (mechanism index, block index), mechanisms in
            #: scenario order, blocks in floorplan order.
            self.entries = [
                (mechanism.name, j)
                for mechanism in self._mechanisms
                for j in range(n_blocks)
            ]
            n_entries = len(self.entries)
            self._alphas = np.empty((scenario.n_phases, n_entries))
            self._bs = np.empty((scenario.n_phases, n_entries))
            for p, phase in enumerate(scenario.phases):
                stress = StressCondition(
                    temperatures_c=self.phase_temperatures[p],
                    vdd=(
                        phase.vdd
                        if phase.vdd is not None
                        else host.config.vdd
                    ),
                )
                column = 0
                for mechanism in self._mechanisms:
                    params = mechanism.block_params(self._context, stress)
                    if len(params) != n_blocks:
                        raise ConfigurationError(
                            f"mechanism {mechanism.name!r} returned "
                            f"{len(params)} block parameters, expected "
                            f"{n_blocks}"
                        )
                    for prm in params:
                        self._alphas[p, column] = prm.alpha
                        self._bs[p, column] = prm.b
                        column += 1
            for mechanism in self._mechanisms:
                metrics.inc(
                    _MECHANISM_BLOCK_COUNTERS.get(
                        mechanism.name, _PLUGIN_BLOCK_COUNTER
                    ),
                    n_blocks,
                )
            self._entry_blods = [
                host.blods[j] for _, j in self.entries
            ]
            # Instances are immutable after construction (safe to share
            # across service worker threads): _build_engine returns the
            # evaluation state rather than mutating it in place.
            (
                self._mode,
                self._engine,
                self._rates,
                self._starts,
                self._base_doses,
                self._b_eff,
            ) = self._build_engine()

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------

    def _resolve_phase_temperatures(self, phase: object) -> np.ndarray:
        """Per-block temperatures of one phase (celsius)."""
        host = self.host
        n_blocks = host.floorplan.n_blocks
        explicit = phase.temperatures_for(n_blocks)  # type: ignore[attr-defined]
        if explicit is not None:
            return explicit
        scale = phase.power_scale  # type: ignore[attr-defined]
        if scale is not None:
            if host.floorplan.total_power <= 0.0:
                raise ConfigurationError(
                    f"phase {phase.name!r} scales block powers, but the "  # type: ignore[attr-defined]
                    "design carries no power to scale"
                )
            scaled = np.array(
                [block.power * float(scale) for block in host.floorplan.blocks]
            )
            # Same geometry, grid + package as every other phase of this
            # design: the steady-state solve reuses the cached block→mesh
            # map and LU factor, so each additional phase costs one
            # back-substitution.
            metrics.inc("scenario.thermal_solves")
            return self._thermal_model.analyze(
                host.floorplan, block_powers=scaled
            ).block_temperatures
        return host.block_temperatures

    def _build_engine(
        self,
    ) -> tuple[
        str,
        StFastAnalyzer,
        np.ndarray | None,
        np.ndarray | None,
        np.ndarray | None,
        np.ndarray | None,
    ]:
        """Pick the evaluation path the composition law calls for.

        Returns ``(mode, engine, rates, starts, base_doses, b_eff)``;
        the dose-path arrays are ``None`` for the direct and residency
        modes.
        """
        cfg = self.host.config
        scenario = self.scenario
        if scenario.composition == "ordered" and scenario.n_phases == 1:
            # Single steady condition: evaluate the entries at their true
            # (alpha, b).  This is the exact same computation (and, for
            # the OBD-only case, the same floats) as the host's st_fast
            # path — no effective-age round trip to perturb the bits.
            blocks = [
                BlockReliability(
                    blod=blod, alpha=float(a), b=float(b)
                )
                for blod, a, b in zip(
                    self._entry_blods,
                    self._alphas[0],
                    self._bs[0],
                    strict=True,
                )
            ]
            engine = StFastAnalyzer(
                blocks,
                l0=cfg.l0,
                tail=cfg.tail,
                rule=cfg.integration_rule,
                include_residual_fluctuation=cfg.include_residual_fluctuation,
            )
            return "direct", engine, None, None, None, None
        if scenario.composition == "residency":
            template = [
                BlockReliability(blod=blod, alpha=float(a), b=float(b))
                for blod, a, b in zip(
                    self._entry_blods,
                    self._alphas[0],
                    self._bs[0],
                    strict=True,
                )
            ]
            _, engine = collapse_to_st_fast(
                template,
                scenario.fractions,
                self._alphas,
                self._bs,
                l0=cfg.l0,
                tail=cfg.tail,
                rule=cfg.integration_rule,
                include_residual_fluctuation=cfg.include_residual_fluctuation,
            )
            return "residency", engine, None, None, None, None
        # Ordered multi-phase: dose coordinates.  Each entry ages at rate
        # 1/alpha_{e,p}; the accumulated dose is piecewise linear in t and
        # the entry is evaluated at unit characteristic life with the
        # final (open-ended) phase's slope as the common Weibull slope.
        durations = scenario.finite_durations
        rates = 1.0 / self._alphas.T  # (n_entries, n_phases)
        starts = np.concatenate(([0.0], np.cumsum(durations)))
        base_doses = np.concatenate(
            (
                np.zeros((rates.shape[0], 1)),
                np.cumsum(durations[None, :] * rates[:, :-1], axis=1),
            ),
            axis=1,
        )
        b_eff = self._bs[-1].copy()
        engine = StFastAnalyzer(
            [
                BlockReliability(blod=blod, alpha=1.0, b=float(b))
                for blod, b in zip(
                    self._entry_blods, b_eff, strict=True
                )
            ],
            l0=cfg.l0,
            tail=cfg.tail,
            rule=cfg.integration_rule,
            include_residual_fluctuation=cfg.include_residual_fluctuation,
        )
        return "dose", engine, rates, starts, base_doses, b_eff

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------

    def _doses(self, times: np.ndarray) -> np.ndarray:
        """``(n_entries, n_times)`` accumulated dose at each time."""
        segments = np.searchsorted(self._starts[1:], times, side="right")
        return (
            self._base_doses[:, segments]
            + (times[None, :] - self._starts[segments][None, :])
            * self._rates[:, segments]
        )

    def _entry_expectations(self, doses: np.ndarray) -> np.ndarray:
        """Per-entry survival expectations at per-entry dose times.

        The dose path's analogue of ``StFastAnalyzer.reliability``: the
        entries live at unit characteristic life, so the scaled profile
        is ``b_e * ln(s_e(t))`` with per-entry abscissae — one fused
        kernel dispatch when the fast paths apply, the per-entry
        reference loop otherwise.
        """
        engine = self._engine
        if fast_paths_enabled():
            with np.errstate(divide="ignore"):
                scaled = self._b_eff[:, None] * np.where(
                    doses > 0.0, np.log(doses), -np.inf
                )
            fused = batched_rule_expectations(
                scaled,
                engine._log_areas,
                engine._u_points,
                engine._u_weights,
                engine._v_points,
                engine._v_weights,
            )
            if fused is not None:
                metrics.inc(
                    "integration.subdomain_evals",
                    doses.shape[1] * engine._rule_nodes,
                )
                return fused
        out = np.empty(doses.shape)
        for j in range(doses.shape[0]):
            out[j] = engine.block_expectation(j, doses[j])
        return out

    def entry_failure_probabilities(
        self, times: np.ndarray | float
    ) -> np.ndarray:
        """``(n_entries, n_times)`` per (mechanism, block) failure probs."""
        times_arr = np.atleast_1d(np.asarray(times, dtype=float))
        if np.any(times_arr < 0.0):
            raise ConfigurationError("times must be non-negative")
        if self._mode == "dose":
            return 1.0 - self._entry_expectations(self._doses(times_arr))
        return self._engine.block_failure_probabilities(times_arr)

    def reliability(
        self, times: np.ndarray | float, clip: bool = True
    ) -> np.ndarray | float:
        """Ensemble chip reliability under the scenario (eq. (28))."""
        times_arr = np.asarray(times, dtype=float)
        scalar = times_arr.ndim == 0
        if self._mode != "dose":
            value = np.atleast_1d(
                self._engine.reliability(times_arr, clip=clip)
            )
            return float(value[0]) if scalar else value
        failures = self.entry_failure_probabilities(
            np.atleast_1d(times_arr)
        )
        value = 1.0 - failures.sum(axis=0)
        if clip:
            value = np.clip(value, 0.0, 1.0)
        return float(value[0]) if scalar else value

    def failure_probability(
        self, times: np.ndarray | float
    ) -> np.ndarray | float:
        """``1 - R(t)`` under the scenario."""
        times_arr = np.asarray(times, dtype=float)
        scalar = times_arr.ndim == 0
        value = 1.0 - np.atleast_1d(self.reliability(times_arr))
        return float(value[0]) if scalar else value

    def lifetime(self, ppm: float) -> float:
        """Scenario lifetime (hours) at an n-per-million criterion.

        Seeded, like the host's, with the analytic guard-band estimate;
        for a single-phase OBD-only scenario the solve walks the exact
        float sequence of ``host.lifetime(ppm, method="st_fast")``.
        """
        target = ppm_to_reliability(ppm)
        with span(
            "scenario.lifetime", ppm=ppm, phases=self.scenario.n_phases
        ):
            guess = self.host.guard.lifetime(target)
            return solve_lifetime(
                lambda t: float(self.reliability(t)),
                target,
                t_guess=guess,
            )

    # ------------------------------------------------------------------
    # attribution
    # ------------------------------------------------------------------

    def mechanism_damage(self, time_hours: float) -> dict[str, float]:
        """Each mechanism's share of the chip failure probability.

        Evaluated at ``time_hours`` (typically the solved lifetime): the
        first-order chip failure probability is the plain sum of entry
        failure probabilities, so the shares decompose exactly.
        """
        failures = self.entry_failure_probabilities(float(time_hours))[:, 0]
        totals = {name: 0.0 for name in self.scenario.mechanisms}
        for (name, _), value in zip(self.entries, failures, strict=True):
            totals[name] += float(value)
        grand = sum(totals.values())
        if grand <= 0.0:
            return {name: 0.0 for name in totals}
        return {name: value / grand for name, value in totals.items()}

    def phase_damage(self, time_hours: float) -> dict[str, float]:
        """Each phase's share of the accumulated dose (entry-averaged).

        For residency scenarios this is the mission model's
        :func:`phase_dose_shares` averaged over entries; for ordered
        scenarios, each phase's slice of the piecewise dose at
        ``time_hours``.  A single-phase scenario attributes everything
        to its one phase.
        """
        names = [phase.name for phase in self.scenario.phases]
        if self.scenario.composition == "residency":
            shares = phase_dose_shares(
                self.scenario.fractions, self._alphas
            ).mean(axis=1)
            return dict(
                zip(names, (float(s) for s in shares), strict=True)
            )
        if self.scenario.n_phases == 1:
            return {names[0]: 1.0}
        t = float(time_hours)
        times = np.array([t])
        total = self._doses(times)[:, 0]
        starts = self._starts
        durations = np.diff(
            np.concatenate((starts, [max(t, float(starts[-1]))]))
        )
        elapsed = np.clip(
            np.minimum(durations, t - starts), 0.0, None
        )
        per_phase = elapsed[None, :] * self._rates  # (n_entries, n_phases)
        with np.errstate(invalid="ignore", divide="ignore"):
            shares = np.where(
                total[:, None] > 0.0,
                per_phase / total[:, None],
                0.0,
            ).mean(axis=0)
        return dict(zip(names, (float(s) for s in shares), strict=True))


def scenario_analyzer(
    analyzer: ReliabilityAnalyzer,
    scenario: Scenario,
    thermal_model: HotSpotLite | None = None,
) -> ScenarioAnalyzer:
    """Build a scenario analyzer on top of a prepared design analysis."""
    return ScenarioAnalyzer(analyzer, scenario, thermal_model=thermal_model)
