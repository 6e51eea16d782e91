"""Piecewise stress scenarios over the lifetime analysis.

- :mod:`repro.scenario.schedule` — the :class:`Scenario` /
  :class:`StressPhase` document model (JSON round-trippable).
- :mod:`repro.scenario.effective` — the cumulative-exposure
  effective-age math.
- :mod:`repro.scenario.engine` — :class:`ScenarioAnalyzer`, evaluating a
  scenario against a prepared design analysis.

A mission profile is a ``residency`` scenario, and burn-in
(:mod:`repro.core.burnin`) is the ordered burn-in→field shape.
"""

from repro.scenario.effective import effective_block_params, phase_dose_shares
from repro.scenario.engine import ScenarioAnalyzer
from repro.scenario.schedule import Scenario, StressPhase

__all__ = [
    "Scenario",
    "ScenarioAnalyzer",
    "StressPhase",
    "effective_block_params",
    "phase_dose_shares",
]
