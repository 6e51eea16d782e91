"""Batch sweep runner: benchmarks x temperatures x methods in one shot.

A :class:`SweepSpec` names the paper's benchmark designs, an optional list
of uniform operating temperatures, and the evaluation methods to compare;
:func:`run_batch` evaluates every cell of the cross product, serves
repeated cells from the content-addressed result cache, and emits one
consolidated report (JSON document + aligned text table).

This module is imported lazily by the CLI so that the rest of
:mod:`repro.exec` stays importable from :mod:`repro.core` without a cycle.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass
from typing import Any

import numpy as np

from repro.chip.benchmarks import BENCHMARK_DEVICE_COUNTS, make_benchmark
from repro.chip.floorplan import Floorplan
from repro.core.analyzer import METHODS, AnalysisConfig, ReliabilityAnalyzer
from repro.core.ensemble import StFastAnalyzer, sweep_reliabilities
from repro.core.lifetime import ppm_to_reliability, solve_lifetime
from repro.core.store import stored_analyzer
from repro.errors import ConfigurationError
from repro.exec.backends import ExecBackend
from repro.exec.cache import ResultCache, fingerprint
from repro.obs import metrics
from repro.obs.logging import get_logger
from repro.obs.trace import span
from repro.payloads import stamp_envelope
from repro.units import hours_to_years

__all__ = ["SweepSpec", "batch_table", "run_batch"]

logger = get_logger("exec.batch")


@dataclass(frozen=True)
class SweepSpec:
    """One batch sweep: designs x temperatures x methods.

    Parameters
    ----------
    designs:
        Benchmark design names (``C1`` ... ``C6``).
    methods:
        Evaluation methods from :data:`repro.core.analyzer.METHODS`.
    temperatures_c:
        Uniform block temperatures to sweep; empty means "use each
        design's own thermal profile" (one cell per design x method).
    ppm:
        Failure criterion for the lifetime solves.
    grid_size:
        Spatial-correlation grid resolution.
    mc_chips, seed:
        Monte-Carlo reference sample count and seed (``method="mc"``).
    scenario:
        Optional scenario document (:mod:`repro.scenario`); every cell is
        then evaluated under the phase schedule instead of the steady
        operating point (``st_fast`` cells only).  The canonicalised
        schedule folds into each cell's fingerprint.
    """

    designs: tuple[str, ...]
    methods: tuple[str, ...]
    temperatures_c: tuple[float, ...] = ()
    ppm: float = 10.0
    grid_size: int = 25
    mc_chips: int = 500
    seed: int = 0
    scenario: dict[str, Any] | None = None

    def __post_init__(self) -> None:
        if not self.designs:
            raise ConfigurationError("sweep needs at least one design")
        if not self.methods:
            raise ConfigurationError("sweep needs at least one method")
        if self.scenario is not None:
            from repro.scenario.schedule import Scenario

            object.__setattr__(
                self,
                "scenario",
                Scenario.from_dict(self.scenario).as_dict(),
            )
            if any(method != "st_fast" for method in self.methods):
                raise ConfigurationError(
                    "scenario sweeps evaluate the st_fast method only"
                )
        for design in self.designs:
            if design not in BENCHMARK_DEVICE_COUNTS:
                raise ConfigurationError(
                    f"unknown design {design!r}; expected one of "
                    f"{', '.join(sorted(BENCHMARK_DEVICE_COUNTS))}"
                )
        for method in self.methods:
            if method not in METHODS:
                raise ConfigurationError(
                    f"unknown method {method!r}; expected one of {METHODS}"
                )
        if self.ppm <= 0.0:
            raise ConfigurationError(f"ppm must be positive, got {self.ppm}")

    def cells(self) -> list[dict[str, Any]]:
        """The sweep's cells in deterministic report order."""
        temps: tuple[float | None, ...] = self.temperatures_c or (None,)
        return [
            {"design": design, "temperature_c": temp, "method": method}
            for design in self.designs
            for temp in temps
            for method in self.methods
        ]


@dataclass
class _CellResult:
    design: str
    temperature_c: float | None
    method: str
    lifetime_hours: float
    cached: bool
    elapsed_s: float

    def as_dict(self) -> dict[str, Any]:
        return {
            "design": self.design,
            "temperature_c": self.temperature_c,
            "method": self.method,
            "lifetime_hours": self.lifetime_hours,
            "lifetime_years": hours_to_years(self.lifetime_hours),
            "cached": self.cached,
            "elapsed_s": self.elapsed_s,
        }


def _cell_key(spec: SweepSpec, cell: dict[str, Any]) -> str:
    """Content-address of one cell: spec knobs + cell coordinates."""
    document = {
        "kind": "batch.lifetime",
        "cell": cell,
        "ppm": spec.ppm,
        "grid_size": spec.grid_size,
        "mc_chips": spec.mc_chips,
        "seed": spec.seed,
    }
    if spec.scenario is not None:
        # Folded only when present, so steady-sweep fingerprints (and the
        # cache entries behind them) predate-and-survive this field.
        document["scenario"] = spec.scenario
    return fingerprint(document)


# Methods whose reliability evaluation is the design's one StFastAnalyzer at
# a per-temperature (alphas, bs) profile, so a temperature axis can share a
# single fused kernel dispatch per bracketing rung.
_FUSABLE_METHODS = frozenset({"st_fast", "temp_unaware"})


def _fused_group_lifetimes(
    analyzer: StFastAnalyzer,
    profiles: list[tuple[np.ndarray, np.ndarray]],
    guesses: list[float],
    ppm: float,
    method: str,
) -> list[float] | None:
    """Solve one design/method's lifetimes across a temperature axis fused.

    ``profiles`` holds each temperature's ``(alphas, bs)`` and ``guesses``
    its guard-band seed.  Replays :func:`repro.core.lifetime.solve_lifetime`'s
    geometric bracketing ladder lock-step for every temperature, evaluating
    each rung's candidate times for all still-unbracketed temperatures
    through one :func:`sweep_reliabilities` kernel call and memoizing the
    ``t -> R(t)`` pairs.  The per-temperature :func:`solve_lifetime` then
    re-walks its ladder entirely from the memo (bitwise-identical floats,
    since the rung times are produced by the same sequence of operations)
    and only Brent's interior probes fall through to the ordinary
    per-point evaluation — so the returned lifetimes are bit-identical to
    the unfused path.  ``None`` means the kernel declined the first rung.
    """
    target = ppm_to_reliability(ppm)
    memos: list[dict[float, float]] = [{} for _ in profiles]

    def evaluate(indices: list[int], log_ts: list[float]) -> bool:
        """One fused rung: memoize R(exp(log_t)) for each active temp."""
        times = [float(np.exp(log_t)) for log_t in log_ts]
        values = sweep_reliabilities(
            analyzer, [profiles[i] for i in indices], times
        )
        if values is None:
            return False
        for i, t, value in zip(indices, times, values, strict=True):
            memos[i][t] = float(value[0])
        return True

    # Lock-step replica of solve_lifetime's bracket expansion.  Stopping
    # early (kernel declined, or max_expansions exhausted) is safe: the
    # memo simply ends and solve_lifetime continues per-point from there.
    step = np.log(4.0)
    los = [float(np.log(guess)) for guess in guesses]
    his = list(los)
    if not evaluate(list(range(len(profiles))), los):
        return None
    climbing: list[tuple[int, bool]] = []
    for i in range(len(profiles)):
        value = memos[i][float(np.exp(los[i]))] - target
        if value != 0.0:  # reprolint: disable=RPL005 (mirrors solve_lifetime's exact-root check)
            climbing.append((i, value > 0.0))
    for _ in range(80):  # solve_lifetime's max_expansions default
        if not climbing:
            break
        log_ts = []
        for i, upward in climbing:
            if upward:
                his[i] = his[i] + step
                log_ts.append(his[i])
            else:
                los[i] = los[i] - step
                log_ts.append(los[i])
        if not evaluate([i for i, _ in climbing], log_ts):
            break
        still: list[tuple[int, bool]] = []
        for (i, upward), log_t in zip(climbing, log_ts, strict=True):
            value = memos[i][float(np.exp(log_t))] - target
            if upward and value > 0.0:
                los[i] = his[i]
                still.append((i, upward))
            elif not upward and value < 0.0:
                his[i] = los[i]
                still.append((i, upward))
        climbing = still

    lifetimes: list[float] = []
    for (alphas, bs), guess, memo in zip(profiles, guesses, memos, strict=True):
        def reliability_fn(
            t: float,
            _memo: dict[float, float] = memo,
            _alphas: np.ndarray = alphas,
            _bs: np.ndarray = bs,
        ) -> float:
            hit = _memo.get(t)
            if hit is not None:
                return hit
            return float(analyzer.reliability(t, _alphas, _bs))

        with span("analyzer.lifetime", method=method, ppm=ppm):
            lifetimes.append(
                solve_lifetime(reliability_fn, target, t_guess=guess)
            )
    metrics.inc("exec.batch.fused_cells", len(lifetimes))
    return lifetimes


def run_batch(
    spec: SweepSpec,
    backend: ExecBackend | None = None,
    cache: ResultCache | None = None,
    use_cache: bool = True,
) -> dict[str, Any]:
    """Evaluate every sweep cell; returns the consolidated report document.

    Cells whose fingerprint is already in the cache are served from it
    (``exec.cache.hit``); fresh results are stored on the way out.  The MC
    reference method runs through ``backend`` when one is given.

    Each design's model comes from the process-wide design store
    (:mod:`repro.core.store`), so a later sweep of the same design builds
    none of it; every temperature is an operating point on it, and a
    design's own profile is its stored own point.  The temperature axis of
    ``st_fast`` / ``temp_unaware`` cells is evaluated through one fused
    kernel dispatch per design and bracketing rung (bit-identical results;
    see :func:`_fused_group_lifetimes`); other methods fall back
    transparently to per-cell evaluation.
    """
    if use_cache and cache is None:
        cache = ResultCache()
    config = AnalysisConfig(
        grid_size=spec.grid_size,
        exec_backend=backend.name if backend else None,
        exec_jobs=backend.jobs if backend else None,
    )
    floorplans: dict[str, Floorplan] = {}
    points: dict[tuple[str, float | None], ReliabilityAnalyzer] = {}

    def analyzer_at(design: str, temperature_c: float | None) -> ReliabilityAnalyzer:
        """The design's analyzer at one uniform temperature (``None``: its own)."""
        key = (design, temperature_c)
        if key not in points:
            if design not in floorplans:
                floorplans[design] = make_benchmark(design)
            floorplan = floorplans[design]
            temps = None
            if temperature_c is not None:
                temps = np.full(floorplan.n_blocks, float(temperature_c))
            points[key] = stored_analyzer(
                floorplan, config=config, block_temperatures=temps
            )
        return points[key]

    results: list[_CellResult] = []
    fused: dict[tuple[str, float | None, str], float] = {}
    fused_attempted: set[tuple[str, str]] = set()
    fused_cells = 0
    started = time.perf_counter()
    with span(
        "exec.batch",
        cells=len(spec.cells()),
        designs=len(spec.designs),
        methods=len(spec.methods),
    ):
        for cell in spec.cells():
            cell_started = time.perf_counter()
            key = _cell_key(spec, cell)
            cached = None
            if use_cache and cache is not None:
                cached = cache.get(key)
            if cached is not None:
                lifetime = float(cached["lifetime_hours"][()])
                results.append(
                    _CellResult(
                        design=cell["design"],
                        temperature_c=cell["temperature_c"],
                        method=cell["method"],
                        lifetime_hours=lifetime,
                        cached=True,
                        elapsed_s=time.perf_counter() - cell_started,
                    )
                )
                continue
            coords = (cell["design"], cell["temperature_c"], cell["method"])
            group = (cell["design"], cell["method"])
            if (
                spec.scenario is None
                and cell["method"] in _FUSABLE_METHODS
                and len(spec.temperatures_c) > 1
                and group not in fused_attempted
            ):
                fused_attempted.add(group)
                # Fuse only the temps this sweep will actually compute:
                # peek at cache entry paths (no counter side effects; the
                # authoritative, counted get already ran or will run).
                missing = [
                    temp
                    for temp in spec.temperatures_c
                    if cache is None
                    or not use_cache
                    or not cache.path_for(
                        _cell_key(spec, dict(cell, temperature_c=temp))
                    ).exists()
                ]
                if len(missing) > 1:
                    group_points = [
                        analyzer_at(cell["design"], temp) for temp in missing
                    ]
                    target = ppm_to_reliability(spec.ppm)
                    solved = _fused_group_lifetimes(
                        group_points[0].st_fast,
                        [
                            (point.alphas, point.bs)
                            if cell["method"] == "st_fast"
                            else point.worst_case
                            for point in group_points
                        ],
                        [point.guard.lifetime(target) for point in group_points],
                        spec.ppm,
                        cell["method"],
                    )
                    if solved is not None:
                        fused.update(
                            {
                                (cell["design"], temp, cell["method"]): value
                                for temp, value in zip(
                                    missing, solved, strict=True
                                )
                            }
                        )
            analyzer = analyzer_at(cell["design"], cell["temperature_c"])
            fused_value = fused.pop(coords, None)
            if fused_value is not None:
                lifetime = fused_value
                fused_cells += 1
            elif spec.scenario is not None:
                from repro.scenario import Scenario, ScenarioAnalyzer

                lifetime = ScenarioAnalyzer(
                    analyzer, Scenario.from_dict(spec.scenario)
                ).lifetime(spec.ppm)
            elif cell["method"] == "mc":
                lifetime = analyzer.mc_lifetime(
                    spec.ppm, n_chips=spec.mc_chips, seed=spec.seed
                )
            else:
                lifetime = analyzer.lifetime(spec.ppm, method=cell["method"])
            if use_cache and cache is not None:
                cache.put(
                    key,
                    {"lifetime_hours": np.asarray(lifetime)},
                    meta={"cell": cell, "ppm": spec.ppm},
                )
            metrics.inc("exec.batch.cells")
            results.append(
                _CellResult(
                    design=cell["design"],
                    temperature_c=cell["temperature_c"],
                    method=cell["method"],
                    lifetime_hours=lifetime,
                    cached=False,
                    elapsed_s=time.perf_counter() - cell_started,
                )
            )
    hits = sum(1 for r in results if r.cached)
    logger.info(
        "batch sweep: %d cells, %d from cache, %.2fs",
        len(results),
        hits,
        time.perf_counter() - started,
    )
    return stamp_envelope({
        "spec": asdict(spec),
        "execution": {
            "backend": backend.name if backend is not None else "serial",
            "jobs": backend.jobs if backend is not None else 1,
            "cache": use_cache,
            "fused_cells": fused_cells,
        },
        "cells": [r.as_dict() for r in results],
        "totals": {
            "cells": len(results),
            "cache_hits": hits,
            "elapsed_s": time.perf_counter() - started,
        },
    })


def batch_table(report: dict[str, Any]) -> str:
    """Render a :func:`run_batch` report as an aligned text table."""
    header = ["design", "temp_c", "method", "lifetime_h", "years", "cache"]
    rows = []
    for cell in report["cells"]:
        temp = cell["temperature_c"]
        rows.append(
            [
                cell["design"],
                "-" if temp is None else f"{temp:.1f}",
                cell["method"],
                f"{cell['lifetime_hours']:.4e}",
                f"{cell['lifetime_years']:.1f}",
                "hit" if cell["cached"] else "miss",
            ]
        )
    widths = [
        max(len(header[i]), *(len(row[i]) for row in rows)) if rows else len(header[i])
        for i in range(len(header))
    ]
    fmt = "  ".join(f"{{:>{w}}}" for w in widths)
    lines = [fmt.format(*header), "  ".join("-" * w for w in widths)]
    lines.extend(fmt.format(*row) for row in rows)
    totals = report["totals"]
    lines.append(
        f"{totals['cells']} cells, {totals['cache_hits']} served from "
        f"cache, {totals['elapsed_s']:.2f}s"
    )
    return "\n".join(lines)
