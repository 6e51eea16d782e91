"""Piecewise stress scenarios over the lifetime analysis.

- :mod:`repro.scenario.schedule` — the :class:`Scenario` /
  :class:`StressPhase` document model (JSON round-trippable).
- :mod:`repro.scenario.effective` — the cumulative-exposure
  effective-age math shared with :mod:`repro.core.mission`.
- :mod:`repro.scenario.engine` — :class:`ScenarioAnalyzer`, evaluating a
  scenario against a prepared design analysis.
"""

from repro.scenario.effective import effective_block_params, phase_dose_shares
from repro.scenario.engine import ScenarioAnalyzer, scenario_analyzer
from repro.scenario.schedule import Scenario, StressPhase

__all__ = [
    "Scenario",
    "ScenarioAnalyzer",
    "StressPhase",
    "effective_block_params",
    "phase_dose_shares",
    "scenario_analyzer",
]
