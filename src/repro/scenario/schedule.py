"""Scenario schedule model: piecewise stress intervals over a lifetime.

A :class:`Scenario` is an ordered sequence of :class:`StressPhase`
intervals — burn-in then field, a DVFS residency ramp — plus the set of
failure mechanisms racing under it.  Two composition laws:

``ordered`` (default)
    Phases happen in sequence.  Every phase except the last carries an
    absolute ``duration_hours``; the final phase is open-ended (the
    condition the chip lives in until failure).  Damage composes by
    cumulative-exposure dose accumulation across the interval boundaries
    (see :mod:`repro.scenario.engine`).

``residency``
    Unordered time fractions, a mission profile: every phase carries a
    ``fraction`` and the fractions sum to one.  The mixture collapses to
    a single equivalent condition.

Each phase names its stress one of three ways: explicit block
temperature(s) (``temperature_c``), a power-map scale factor
(``power_scale``, re-solved through the thermal layer), or neither (the
design's own operating point).  ``vdd`` optionally overrides the supply
voltage for the phase.

Scenario documents are JSON-round-trippable: :meth:`Scenario.from_dict`
validates and :meth:`Scenario.as_dict` emits the canonical form the
service fingerprints — the full phase schedule and mechanism set fold
into the content address.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.errors import ConfigurationError
from repro.mechanisms import mechanism_names

__all__ = ["Scenario", "StressPhase"]

#: Tolerance for residency fractions summing to one.
_FRACTION_TOL = 1e-9

#: Composition laws a scenario can declare.
_COMPOSITIONS = ("ordered", "residency")

_PHASE_KEYS = {
    "name",
    "duration_hours",
    "fraction",
    "temperature_c",
    "power_scale",
    "vdd",
}


def _check_finite_positive(value: float, label: str) -> float:
    if (
        not isinstance(value, (int, float))
        or isinstance(value, bool)
        or not math.isfinite(value)
        or value <= 0.0
    ):
        raise ConfigurationError(
            f"{label} must be a finite positive number, got {value!r}"
        )
    return float(value)


@dataclass(frozen=True)
class StressPhase:
    """One stress interval of a scenario.

    Parameters
    ----------
    name:
        Phase label (e.g. ``"burnin"``, ``"field"``), unique per scenario.
    duration_hours:
        Interval length in hours (ordered scenarios; the final phase
        leaves it ``None`` — it holds until failure).
    fraction:
        Time fraction in (0, 1] (residency scenarios only).
    temperature_c:
        Explicit block temperature(s) in celsius: a single float applied
        to every block, or one value per block (floorplan order).
    power_scale:
        Scale factor on the design's block powers; the phase temperature
        field is re-solved through the thermal layer (the LU factor is
        reused across phases — same grid, many power maps).
    vdd:
        Supply voltage during the phase; ``None`` keeps the analysis
        default.
    """

    name: str
    duration_hours: float | None = None
    fraction: float | None = None
    temperature_c: float | tuple[float, ...] | None = None
    power_scale: float | None = None
    vdd: float | None = None

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise ConfigurationError("phase name must be a non-empty string")
        if self.duration_hours is not None:
            _check_finite_positive(
                self.duration_hours,
                f"phase {self.name!r} duration_hours",
            )
        if self.fraction is not None:
            _check_finite_positive(
                self.fraction, f"phase {self.name!r} fraction"
            )
            if self.fraction > 1.0:
                raise ConfigurationError(
                    f"phase {self.name!r} fraction must be in (0, 1], "
                    f"got {self.fraction}"
                )
        if self.temperature_c is not None and self.power_scale is not None:
            raise ConfigurationError(
                f"phase {self.name!r}: give 'temperature_c' or "
                "'power_scale', not both"
            )
        if self.power_scale is not None:
            _check_finite_positive(
                self.power_scale, f"phase {self.name!r} power_scale"
            )
        if self.vdd is not None:
            _check_finite_positive(self.vdd, f"phase {self.name!r} vdd")
        if self.temperature_c is not None:
            object.__setattr__(
                self, "temperature_c", self._canonical_temperature()
            )

    def _canonical_temperature(self) -> float | tuple[float, ...]:
        """Validate and normalise ``temperature_c`` to float or tuple."""
        raw = self.temperature_c
        if isinstance(raw, (int, float)) and not isinstance(raw, bool):
            if not math.isfinite(raw):
                raise ConfigurationError(
                    f"phase {self.name!r} temperature must be finite"
                )
            return float(raw)
        if isinstance(raw, (list, tuple, np.ndarray)):
            values = []
            for item in np.asarray(raw, dtype=float).ravel():
                if not math.isfinite(item):
                    raise ConfigurationError(
                        f"phase {self.name!r} temperatures must be finite"
                    )
                values.append(float(item))
            if not values:
                raise ConfigurationError(
                    f"phase {self.name!r} temperature list must be non-empty"
                )
            return tuple(values)
        raise ConfigurationError(
            f"phase {self.name!r} temperature_c must be a number or a "
            f"list of numbers, got {raw!r}"
        )

    def temperatures_for(self, n_blocks: int) -> np.ndarray | None:
        """Per-block temperature vector, or ``None`` when not explicit."""
        if self.temperature_c is None:
            return None
        if isinstance(self.temperature_c, tuple):
            temps = np.asarray(self.temperature_c, dtype=float)
            if temps.shape != (n_blocks,):
                raise ConfigurationError(
                    f"phase {self.name!r}: expected {n_blocks} block "
                    f"temperatures, got {temps.size}"
                )
            return temps
        return np.full(n_blocks, float(self.temperature_c))

    def as_dict(self) -> dict[str, Any]:
        """Canonical JSON form (all keys present, stable order)."""
        temperature: float | list[float] | None
        if isinstance(self.temperature_c, tuple):
            temperature = list(self.temperature_c)
        else:
            temperature = self.temperature_c
        return {
            "name": self.name,
            "duration_hours": self.duration_hours,
            "fraction": self.fraction,
            "temperature_c": temperature,
            "power_scale": self.power_scale,
            "vdd": self.vdd,
        }

    @classmethod
    def from_dict(cls, data: Any) -> StressPhase:
        """Validate one raw phase document."""
        if not isinstance(data, dict):
            raise ConfigurationError(
                f"each phase must be a JSON object, got {data!r}"
            )
        unknown = sorted(set(data) - _PHASE_KEYS)
        if unknown:
            raise ConfigurationError(
                f"unknown phase field(s): {', '.join(unknown)}"
            )
        return cls(
            name=data.get("name", ""),
            duration_hours=data.get("duration_hours"),
            fraction=data.get("fraction"),
            temperature_c=data.get("temperature_c"),
            power_scale=data.get("power_scale"),
            vdd=data.get("vdd"),
        )


@dataclass(frozen=True)
class Scenario:
    """A phase schedule plus the mechanism set racing under it."""

    phases: tuple[StressPhase, ...]
    mechanisms: tuple[str, ...] = ("obd",)
    composition: str = "ordered"

    def __post_init__(self) -> None:
        if self.composition not in _COMPOSITIONS:
            raise ConfigurationError(
                f"unknown composition {self.composition!r}; expected one "
                f"of {_COMPOSITIONS}"
            )
        if not self.phases:
            raise ConfigurationError("scenario needs at least one phase")
        names = [phase.name for phase in self.phases]
        if len(set(names)) != len(names):
            raise ConfigurationError("phase names must be unique")
        if not self.mechanisms:
            raise ConfigurationError(
                "scenario needs at least one mechanism"
            )
        if len(set(self.mechanisms)) != len(self.mechanisms):
            raise ConfigurationError("mechanism names must be unique")
        known = set(mechanism_names())
        for name in self.mechanisms:
            if name not in known:
                raise ConfigurationError(
                    f"unknown mechanism {name!r}; registered: "
                    f"{', '.join(sorted(known))}"
                )
        if self.composition == "ordered":
            for phase in self.phases[:-1]:
                if phase.duration_hours is None:
                    raise ConfigurationError(
                        f"ordered phase {phase.name!r} needs "
                        "'duration_hours' (only the final phase is "
                        "open-ended)"
                    )
            if self.phases[-1].duration_hours is not None:
                raise ConfigurationError(
                    f"the final ordered phase {self.phases[-1].name!r} "
                    "must omit 'duration_hours' (it holds until failure)"
                )
            for phase in self.phases:
                if phase.fraction is not None:
                    raise ConfigurationError(
                        f"phase {phase.name!r}: 'fraction' applies to "
                        "residency scenarios only"
                    )
        else:  # residency
            total = 0.0
            for phase in self.phases:
                if phase.fraction is None:
                    raise ConfigurationError(
                        f"residency phase {phase.name!r} needs 'fraction'"
                    )
                if phase.duration_hours is not None:
                    raise ConfigurationError(
                        f"phase {phase.name!r}: 'duration_hours' applies "
                        "to ordered scenarios only"
                    )
                total += phase.fraction
            if abs(total - 1.0) > _FRACTION_TOL:
                raise ConfigurationError(
                    f"residency fractions must sum to 1, got {total}"
                )

    @property
    def n_phases(self) -> int:
        """Number of phases in the schedule."""
        return len(self.phases)

    @property
    def finite_durations(self) -> np.ndarray:
        """``(n_phases - 1,)`` durations of the closed ordered intervals."""
        if self.composition != "ordered":
            raise ConfigurationError(
                "finite_durations applies to ordered scenarios"
            )
        return np.array(
            [float(phase.duration_hours) for phase in self.phases[:-1]]
        )

    @property
    def fractions(self) -> np.ndarray:
        """``(n_phases,)`` residency time fractions."""
        if self.composition != "residency":
            raise ConfigurationError(
                "fractions applies to residency scenarios"
            )
        return np.array([float(phase.fraction) for phase in self.phases])

    def as_dict(self) -> dict[str, Any]:
        """Canonical JSON document; ``from_dict`` of it round-trips."""
        return {
            "composition": self.composition,
            "mechanisms": list(self.mechanisms),
            "phases": [phase.as_dict() for phase in self.phases],
        }

    @classmethod
    def from_dict(cls, data: Any) -> Scenario:
        """Validate a raw scenario document."""
        if not isinstance(data, dict):
            raise ConfigurationError(
                f"scenario must be a JSON object, got {data!r}"
            )
        unknown = sorted(set(data) - {"composition", "mechanisms", "phases"})
        if unknown:
            raise ConfigurationError(
                f"unknown scenario field(s): {', '.join(unknown)}"
            )
        phases_raw = data.get("phases")
        if not isinstance(phases_raw, list) or not phases_raw:
            raise ConfigurationError(
                "scenario field 'phases' must be a non-empty list"
            )
        mechanisms_raw = data.get("mechanisms", ["obd"])
        if isinstance(mechanisms_raw, str):
            mechanisms_raw = [mechanisms_raw]
        if not isinstance(mechanisms_raw, list) or not all(
            isinstance(m, str) for m in mechanisms_raw
        ):
            raise ConfigurationError(
                "scenario field 'mechanisms' must be a list of names"
            )
        return cls(
            phases=tuple(
                StressPhase.from_dict(phase) for phase in phases_raw
            ),
            mechanisms=tuple(mechanisms_raw),
            composition=data.get("composition", "ordered"),
        )
