"""Canonical JSON payload builders shared by the CLI and the service.

``repro lifetime/curve/report --json`` and the HTTP job API
(:mod:`repro.service`) must return **byte-identical** documents for the
same design and parameters, so the payloads are built here, in one place,
and both front ends serialise them with :func:`dump_payload`.

Every envelope carries two provenance fields:

``version``
    The library version (:data:`repro.__version__`, sourced from package
    metadata) that produced the document.
``schema_version``
    :data:`PAYLOAD_SCHEMA_VERSION`, bumped on any breaking change to a
    payload layout, so service clients can detect format drift without
    parsing version strings.
"""

from __future__ import annotations

import json
from collections.abc import Callable
from typing import TYPE_CHECKING, Any

import numpy as np

from repro import obs
from repro.errors import ConfigurationError
from repro.units import hours_to_years

if TYPE_CHECKING:
    from repro.core.analyzer import ReliabilityAnalyzer

__all__ = [
    "PAYLOAD_SCHEMA_VERSION",
    "curve_payload",
    "dump_payload",
    "execution_info",
    "lifetime_payload",
    "mc_shards_payload",
    "report_payload",
    "scenario_payload",
    "stamp_envelope",
]

#: Bump on any breaking change to a payload layout (key renames/removals).
PAYLOAD_SCHEMA_VERSION = 1


def stamp_envelope(payload: dict[str, Any]) -> dict[str, Any]:
    """Add the ``version``/``schema_version`` provenance fields in place.

    Existing values are preserved, so builders that already stamped a
    payload pass through unchanged.
    """
    from repro import __version__

    payload.setdefault("schema_version", PAYLOAD_SCHEMA_VERSION)
    payload.setdefault("version", __version__)
    return payload


def dump_payload(payload: dict[str, Any]) -> str:
    """The one serialisation both the CLI and the service use."""
    return json.dumps(payload, indent=2)


def execution_info(analyzer: ReliabilityAnalyzer) -> dict[str, Any]:
    """The backend/worker summary embedded in analysis payloads."""
    backend = analyzer.exec_backend
    return {
        "backend": backend.name,
        "jobs": backend.jobs,
    }


def lifetime_payload(
    analyzer: ReliabilityAnalyzer,
    ppm: float,
    methods: tuple[str, ...] | list[str],
    mc_chips: int = 500,
    seed: int = 0,
    checkpoint_path: str | None = None,
    cancel_check: Callable[[], bool] | None = None,
    mc_lifetime_fn: Callable[[], float] | None = None,
) -> dict[str, Any]:
    """The ``repro lifetime`` document: hours and years per method.

    ``checkpoint_path``/``cancel_check`` apply to the MC reference method
    only (the closed-form methods finish in milliseconds); they let the
    service checkpoint long MC jobs and interrupt them cooperatively.

    ``mc_lifetime_fn`` substitutes the MC evaluation itself — the fleet
    coordinator passes a closure that reduces remotely-computed shard
    payloads.  Because the substituted value is bit-identical to the
    in-process one, the resulting document is byte-identical too; every
    other field is still built here, in the one shared place.
    """
    results = {}
    for method in methods:
        if method == "mc":
            if mc_lifetime_fn is not None:
                value = mc_lifetime_fn()
            else:
                value = analyzer.mc_lifetime(
                    ppm,
                    n_chips=mc_chips,
                    seed=seed,
                    checkpoint_path=checkpoint_path,
                    cancel_check=cancel_check,
                )
        else:
            value = analyzer.lifetime(ppm, method=method)
        results[method] = value
    return stamp_envelope(
        {
            "ppm": ppm,
            "lifetime_hours": results,
            "lifetime_years": {
                m: hours_to_years(v) for m, v in results.items()
            },
            "execution": execution_info(analyzer),
        }
    )


def mc_shards_payload(
    analyzer: ReliabilityAnalyzer,
    times: list[float] | np.ndarray,
    shards: tuple[int, ...] | list[int],
    mc_chips: int = 500,
    seed: int = 0,
    checkpoint_path: str | None = None,
    cancel_check: Callable[[], bool] | None = None,
) -> dict[str, Any]:
    """The worker-side ``mc_shards`` job document for :mod:`repro.fleet`.

    Evaluates only the listed shard indices out of the deterministic plan
    for ``(seed, mc_chips)`` and ships the per-shard partial sums as JSON
    lists — Python's float serialisation round-trips float64 exactly, so
    the coordinator's merged reduction stays bit-identical to a serial
    run.
    """
    times_arr = np.asarray(times, dtype=float)
    payload_map = analyzer.mc_shard_payloads(
        times_arr,
        n_chips=mc_chips,
        seed=seed,
        shard_indices=list(shards),
        checkpoint_path=checkpoint_path,
        cancel_check=cancel_check,
    )
    return stamp_envelope(
        {
            "n_chips": mc_chips,
            "seed": seed,
            "shard_size": analyzer.mc_engine.shard_size,
            "times_hours": times_arr.tolist(),
            "shards": {
                str(index): {
                    "total": np.asarray(payload["total"]).tolist(),
                    "total_sq": np.asarray(payload["total_sq"]).tolist(),
                    "n_valid": int(np.asarray(payload["n_valid"])),
                    "n_bad": int(np.asarray(payload["n_bad"])),
                }
                for index, payload in sorted(payload_map.items())
            },
            "execution": execution_info(analyzer),
        }
    )


def scenario_payload(
    analyzer: ReliabilityAnalyzer,
    scenario: Any,
    ppm: float,
) -> dict[str, Any]:
    """The ``repro scenario run`` document: lifetime under a schedule.

    Layout mirrors :func:`lifetime_payload` (``st_fast`` is the one
    method scenarios evaluate) with one extra ``scenario`` key between
    ``lifetime_years`` and ``execution`` carrying the canonical phase
    schedule, the resolved per-phase block temperatures and the
    per-mechanism / per-phase damage attribution.  A single steady-phase
    OBD-only scenario therefore reduces to the ``repro lifetime`` payload
    byte-for-byte once the ``scenario`` key is dropped.
    """
    from repro.scenario.engine import ScenarioAnalyzer

    evaluation = ScenarioAnalyzer(analyzer, scenario)
    lifetime = evaluation.lifetime(ppm)
    return stamp_envelope(
        {
            "ppm": ppm,
            "lifetime_hours": {"st_fast": lifetime},
            "lifetime_years": {"st_fast": hours_to_years(lifetime)},
            "scenario": {
                **scenario.as_dict(),
                "phase_temperatures_c": [
                    temps.tolist()
                    for temps in evaluation.phase_temperatures
                ],
                "mechanism_damage": evaluation.mechanism_damage(lifetime),
                "phase_damage": evaluation.phase_damage(lifetime),
            },
            "execution": execution_info(analyzer),
        }
    )


def curve_payload(
    analyzer: ReliabilityAnalyzer,
    method: str,
    t_min: float,
    t_max: float,
    points: int = 20,
) -> dict[str, Any]:
    """The ``repro curve`` document: reliability over a log-time range.

    The range must be finite with ``0 < t_min < t_max`` and hold at least
    two points; NaN fails every comparison below.
    """
    if not 0.0 < t_min < np.inf:
        raise ConfigurationError(f"t_min must be finite and positive, got {t_min}")
    if not t_min < t_max < np.inf:
        raise ConfigurationError(
            f"t_max must be finite and above t_min, got {t_max}"
        )
    if points < 2:
        raise ConfigurationError(f"points must be >= 2, got {points}")
    times = np.logspace(np.log10(t_min), np.log10(t_max), points)
    reliability = np.atleast_1d(analyzer.reliability(times, method=method))
    return stamp_envelope(
        {
            "method": method,
            "times_hours": times.tolist(),
            "reliability": reliability.tolist(),
            "execution": execution_info(analyzer),
        }
    )


def report_payload(
    analyzer_factory: Callable[[], ReliabilityAnalyzer],
) -> dict[str, Any]:
    """The ``repro report`` document: the one-page text design report.

    Takes a zero-argument factory rather than a built analyzer: the
    report carries a stage-timing appendix, so observability must be on
    *before* the analyzer's thermal/PCA/BLOD setup runs (unless the
    caller already owns the observability state).
    """
    from repro.report import design_report

    owns_obs = not obs.is_enabled()
    if owns_obs:
        obs.reset()
        obs.enable()
    try:
        analyzer = analyzer_factory()
        text = design_report(analyzer)
        execution = execution_info(analyzer)
        text = (
            f"{text}\n\n{obs.timing_summary()}\n"
            f"execution backend: {execution['backend']} "
            f"(jobs={execution['jobs']})"
        )
    finally:
        if owns_obs:
            obs.disable()
            obs.reset()
    return stamp_envelope({"report": text, "execution": execution})
