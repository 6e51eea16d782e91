"""Mission profiles: reliability under time-varying operating conditions.

The DATE 2010 title is reliability *management*: chips do not sit at one
operating point for ten years — they cycle through workloads, voltages and
thermal states. This module extends the analysis to a mission profile,
i.e. a set of operating phases with time fractions.

Damage model: the **cumulative-exposure** (effective-age) law. Oxide
defects accumulate at a per-condition rate; breakdown statistics depend on
the accumulated dose (Sec. III's defect-generation picture), so time spent
in phase ``p`` advances a device's effective age at the speed ratio
``alpha_ref / alpha_p``. For a block whose phases share the Weibull slope
coefficient, the mixture collapses *exactly* to a single equivalent
condition:

    1 / alpha_eff_j = sum_p  w_p / alpha_{j,p}

(the time-fraction-weighted harmonic mean). The slope coefficient ``b``
varies only weakly with temperature (|db/b| ~ 1-2 % across realistic
profiles), so the per-block effective slope is the time-weighted mean —
the one approximation of this module, quantified in the tests.

With effective ``(alpha_eff, b_eff)`` per block the whole closed-form
machinery of the paper applies unchanged: a mission analysis is the
design's st_fast evaluated at the effective vectors, one st_fast
evaluation on the design's own rule tables.

The effective-age math itself lives in :mod:`repro.scenario.effective`
(one home, shared with the ordered-phase scenario engine);
:func:`effective_block_params` is re-exported here for compatibility.
This module is now a thin residency-composition adapter over it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.analyzer import ReliabilityAnalyzer
from repro.core.ensemble import (
    BlockReliability,
    RuleTables,
    StFastAnalyzer,
    block_rule_tables,
)
from repro.core.lifetime import ppm_to_reliability, solve_lifetime
from repro.errors import ConfigurationError
from repro.scenario.effective import (  # noqa: F401  (re-export)
    effective_block_params,
    phase_dose_shares,
)

#: Tolerance for the phase time fractions summing to one.
_FRACTION_TOL = 1e-9


@dataclass(frozen=True)
class OperatingPhase:
    """One operating condition and the fraction of lifetime spent in it.

    Parameters
    ----------
    name:
        Phase label (e.g. ``"idle"``, ``"turbo"``).
    fraction:
        Fraction of total operating time spent in this phase.
    block_temperatures:
        Per-block temperatures in celsius (floorplan order), or a single
        float applied to every block.
    vdd:
        Supply voltage during the phase; ``None`` uses the OBD model's
        reference voltage.
    """

    name: str
    fraction: float
    block_temperatures: np.ndarray | float
    vdd: float | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("phase name must be non-empty")
        if not 0.0 < self.fraction <= 1.0:
            raise ConfigurationError(
                f"phase {self.name!r} fraction must be in (0, 1], "
                f"got {self.fraction}"
            )

    def temperatures_for(self, n_blocks: int) -> np.ndarray:
        """Per-block temperature vector for a design with ``n_blocks``."""
        temps = np.asarray(self.block_temperatures, dtype=float)
        if temps.ndim == 0:
            return np.full(n_blocks, float(temps))
        if temps.shape != (n_blocks,):
            raise ConfigurationError(
                f"phase {self.name!r}: expected {n_blocks} block "
                f"temperatures, got shape {temps.shape}"
            )
        return temps


@dataclass(frozen=True)
class MissionProfile:
    """A set of operating phases whose time fractions sum to one."""

    phases: tuple[OperatingPhase, ...]

    def __post_init__(self) -> None:
        if not self.phases:
            raise ConfigurationError("mission profile needs at least one phase")
        names = [phase.name for phase in self.phases]
        if len(set(names)) != len(names):
            raise ConfigurationError("phase names must be unique")
        total = sum(phase.fraction for phase in self.phases)
        if abs(total - 1.0) > _FRACTION_TOL:
            raise ConfigurationError(
                f"phase fractions must sum to 1, got {total}"
            )

    @property
    def n_phases(self) -> int:
        """Number of operating phases."""
        return len(self.phases)

    @property
    def fractions(self) -> np.ndarray:
        """Phase time fractions as an array."""
        return np.array([phase.fraction for phase in self.phases])


class MissionAnalyzer:
    """Ensemble reliability under a mission profile (cumulative exposure).

    st_fast at the per-block effective ``(alpha_eff, b_eff)``, on the
    design's ``rule_tables`` (``None``: midpoint tables from ``l0``/``tail``);
    also reports each phase's share of the accumulated damage.
    """

    def __init__(
        self,
        blocks: list[BlockReliability],
        profile: MissionProfile,
        alphas: np.ndarray,
        bs: np.ndarray,
        l0: int = 10,
        tail: float = 1e-6,
        include_residual_fluctuation: bool = True,
        rule_tables: RuleTables | None = None,
    ) -> None:
        self.profile = profile
        self.alphas = np.asarray(alphas, dtype=float)
        self.bs = np.asarray(bs, dtype=float)
        if self.alphas.ndim != 2 or self.alphas.shape[1] != len(blocks):
            raise ConfigurationError(
                f"alphas must be (n_phases, {len(blocks)}), "
                f"got {self.alphas.shape}"
            )
        self.alpha_eff, self.b_eff = effective_block_params(
            profile.fractions, self.alphas, self.bs
        )
        self._analyzer = StFastAnalyzer(
            blocks, l0, tail,
            include_residual_fluctuation=include_residual_fluctuation,
            rule_tables=rule_tables,
        )

    def reliability(
        self, times: np.ndarray | float, clip: bool = True
    ) -> np.ndarray | float:
        """Ensemble chip reliability under the mission profile."""
        return self._analyzer.reliability(
            times, self.alpha_eff, self.b_eff, clip=clip
        )

    def failure_probability(self, times: np.ndarray | float) -> np.ndarray | float:
        """``1 - R(t)`` under the mission profile."""
        return self._analyzer.failure_probability(
            times, self.alpha_eff, self.b_eff
        )

    def lifetime(self, ppm: float, t_guess: float = 1e5) -> float:
        """Mission lifetime at an n-per-million criterion."""
        return solve_lifetime(
            lambda t: float(self.reliability(t)),
            ppm_to_reliability(ppm),
            t_guess=t_guess,
        )

    def phase_damage_shares(self) -> np.ndarray:
        """``(n_phases, n_blocks)`` share of each block's damage per phase.

        Under cumulative exposure the dose rate of phase ``p`` in block
        ``j`` is ``w_p / alpha_{j,p}``; shares are normalized per block.
        A reliability manager uses this to see *which phase is aging which
        block*.
        """
        return phase_dose_shares(self.profile.fractions, self.alphas)


def mission_analyzer(
    analyzer: ReliabilityAnalyzer,
    profile: MissionProfile,
    l0: int | None = None,
) -> MissionAnalyzer:
    """Build a mission analyzer on top of a prepared design analysis.

    Each phase's per-block ``(alpha, b)`` comes from the design's OBD
    model at the phase's temperatures and voltage; the BLODs (process
    variation) are shared across phases — thickness does not change with
    the workload.  The mission reads the design's st_fast rule tables; an
    ``l0`` other than the design's builds its own, under the same rule.
    """
    n_blocks = analyzer.floorplan.n_blocks
    alphas = np.empty((profile.n_phases, n_blocks))
    bs = np.empty((profile.n_phases, n_blocks))
    for p, phase in enumerate(profile.phases):
        temps = phase.temperatures_for(n_blocks)
        params = analyzer.obd_model.block_params(temps, phase.vdd)
        alphas[p] = [prm.alpha for prm in params]
        bs[p] = [prm.b for prm in params]
    cfg = analyzer.config
    rule_tables = analyzer.design.st_fast_tables
    if l0 is not None and l0 != cfg.l0:
        rule_tables = block_rule_tables(
            analyzer.blods, l0, cfg.tail, cfg.integration_rule,
            cfg.include_residual_fluctuation,
        )
    return MissionAnalyzer(
        blocks=analyzer.blocks,
        profile=profile,
        alphas=alphas,
        bs=bs,
        rule_tables=rule_tables,
    )
