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
   (:mod:`repro.scenario.effective`), and every composition evaluates
   the host's st_fast rule tables, tiled once per mechanism, through one
   fused kernel profile:

   - a single ordered phase evaluates the entries *directly* (their true
     ``(alpha, b)``), so an OBD-only steady scenario is bit-identical to
     the paper's single-condition analysis;
   - a residency mixture (a mission profile) collapses to one
     equivalent condition (harmonic-mean ``alpha``, mean-slope ``b``);
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
from repro.core.closed_form import check_times
from repro.core.lifetime import ppm_to_reliability, solve_lifetime
from repro.errors import ConfigurationError
from repro.mechanisms import (
    FailureMechanism,
    MechanismContext,
    StressCondition,
    get_mechanism,
)
from repro.obs import metrics
from repro.obs.trace import span
from repro.scenario.effective import effective_block_params, phase_dose_shares
from repro.scenario.schedule import Scenario
from repro.thermal.hotspot import HotSpotLite

__all__ = ["ScenarioAnalyzer"]

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
            #: ``(n_phases, n_entries)`` Weibull ``(alpha, b)`` of every
            #: entry in every phase (read-only once built).
            self.alphas = np.empty((scenario.n_phases, n_entries))
            self.bs = np.empty((scenario.n_phases, n_entries))
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
                        self.alphas[p, column] = prm.alpha
                        self.bs[p, column] = prm.b
                        column += 1
            self.alphas.setflags(write=False)
            self.bs.setflags(write=False)
            for mechanism in self._mechanisms:
                metrics.inc(
                    _MECHANISM_BLOCK_COUNTERS.get(
                        mechanism.name, _PLUGIN_BLOCK_COUNTER
                    ),
                    n_blocks,
                )
            # Entries are mechanism-major, so the host's tables tiled once
            # per mechanism are every entry's tables.
            self._tables = host.design.st_fast_tables.tile(
                len(self._mechanisms)
            )
            # Instances are immutable after construction (safe to share
            # across service worker threads): _composition returns the
            # evaluation state rather than mutating it in place.
            (
                self._alpha_eff,
                self._b_eff,
                self._rates,
                self._starts,
                self._base_doses,
            ) = self._composition()

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

    def _composition(
        self,
    ) -> tuple[
        np.ndarray | None,
        np.ndarray,
        np.ndarray | None,
        np.ndarray | None,
        np.ndarray | None,
    ]:
        """``(alpha_eff, b_eff, rates, starts, base_doses)`` of the composition law.

        The direct and residency modes leave the dose arrays ``None``; the
        dose mode has no ``alpha_eff`` (unit characteristic life).
        """
        for name, values in (("alpha", self.alphas), ("b", self.bs)):
            bad = ~((values > 0.0) & (values < np.inf))  # NaN is bad too
            if bad.any():
                p, e = np.argwhere(bad)[0]
                mechanism, j = self.entries[e]
                block = self.host.floorplan.block_names[j]
                raise ConfigurationError(
                    f"mechanism {mechanism!r}, block {block!r}: {name} must "
                    f"be finite and positive, got {values[p, e]}"
                )
        scenario = self.scenario
        if scenario.composition == "ordered" and scenario.n_phases == 1:
            # Single steady condition: evaluate the entries at their true
            # (alpha, b).  This is the exact same computation (and, for
            # the OBD-only case, the same floats) as the host's st_fast
            # path — no effective-age round trip to perturb the bits.
            return self.alphas[0], self.bs[0], None, None, None
        if scenario.composition == "residency":
            alpha_eff, b_eff = effective_block_params(
                scenario.fractions, self.alphas, self.bs
            )
            return alpha_eff, b_eff, None, None, None
        # Ordered multi-phase: dose coordinates.  Each entry ages at rate
        # 1/alpha_{e,p}; the accumulated dose is piecewise linear in t and
        # the entry is evaluated at unit characteristic life with the
        # final (open-ended) phase's slope as the common Weibull slope.
        durations = scenario.finite_durations
        rates = 1.0 / self.alphas.T  # (n_entries, n_phases)
        starts = np.concatenate(([0.0], np.cumsum(durations)))
        base_doses = np.concatenate(
            (
                np.zeros((rates.shape[0], 1)),
                np.cumsum(durations[None, :] * rates[:, :-1], axis=1),
            ),
            axis=1,
        )
        return None, self.bs[-1].copy(), rates, starts, base_doses

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

    def entry_failure_probabilities(
        self, times: np.ndarray | float
    ) -> np.ndarray:
        """``(n_entries, n_times)`` per (mechanism, block) failure probs.

        One kernel profile: ``b_e ln(t / alpha_e)``, or ``b_e ln(s_e(t))``
        at each entry's accumulated dose in the dose mode.
        """
        times_arr = np.atleast_1d(np.asarray(times, dtype=float))
        check_times(times_arr)
        if self._alpha_eff is None:
            abscissae = self._doses(times_arr)
        else:
            abscissae = times_arr[None, :] / self._alpha_eff[:, None]
        with np.errstate(divide="ignore"):
            scaled = self._b_eff[:, None] * np.where(
                abscissae > 0.0, np.log(abscissae), -np.inf
            )
        return 1.0 - self._tables.expectations(scaled)

    def reliability(
        self, times: np.ndarray | float, clip: bool = True
    ) -> np.ndarray | float:
        """Ensemble chip reliability under the scenario (eq. (28))."""
        times_arr = np.asarray(times, dtype=float)
        scalar = times_arr.ndim == 0
        failures = self.entry_failure_probabilities(times_arr)
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

        For residency scenarios this is :func:`phase_dose_shares` of
        :attr:`alphas`, averaged over entries; for ordered
        scenarios, each phase's slice of the piecewise dose at
        ``time_hours``.  A single-phase scenario attributes everything
        to its one phase.
        """
        names = [phase.name for phase in self.scenario.phases]
        if self.scenario.composition == "residency":
            shares = phase_dose_shares(
                self.scenario.fractions, self.alphas
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
