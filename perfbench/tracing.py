"""Outside-in span recording around the program's public layer calls.

:func:`install` patches each public function or method named in
:data:`TARGETS` with a wrapper that records one span per call: name,
start, end, parent span (the innermost span open on the same thread) and
request id.  Methods are patched on their class; functions are patched on
every loaded ``repro`` module attribute bound to them, because several
are imported by name.  Spans stay in memory until :meth:`Recorder.dump`.

Nothing here changes what the wrapped code computes: wrappers pass
arguments and results through untouched, except that ``solve_lifetime``'s
callable and ``run_sharded``'s shard task are wrapped the same way so
their evaluations are counted and timed.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from collections.abc import Callable
from typing import Any

#: Modules imported before patching, so every by-name import of a
#: wrapped function already exists when :func:`install` walks them.
PRELOAD = (
    "repro",
    "repro.cli",
    "repro.payloads",
    "repro.power.loop",
    "repro.chip.geometry",
    "repro.chip.floorplan",
    "repro.thermal.hotspot",
    "repro.thermal.factor_cache",
    "repro.variation.pca",
    "repro.core.blod",
    "repro.core.analyzer",
    "repro.core.ensemble",
    "repro.core.hybrid",
    "repro.core.lifetime",
    "repro.core.montecarlo",
    "repro.exec.runner",
    "repro.exec.checkpoint",
    "repro.exec.cache",
    "repro.exec.batch",
    "repro.kernels.artifacts",
    "repro.scenario.engine",
    "repro.service",
    "repro.service.app",
    "repro.service.jobs",
    "repro.service.requests",
    "repro.fleet",
    "repro.fleet.client",
    "repro.fleet.transport",
    "repro.fleet.coordinator",
)


class Recorder:
    """In-memory span store shared by every wrapper in one process."""

    def __init__(self) -> None:
        self.spans: list[tuple[Any, ...]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._trace_id: Callable[[], str | None] = lambda: None
        self.request: str | None = None

    def set_request(self, request_id: str | None) -> None:
        """Label spans opened from now on, on any thread, with ``request_id``.

        Closed-loop clients have one request in flight, so the label is
        process-wide: helper threads a call starts (the fleet dispatchers)
        inherit it.  Unlabelled spans fall back to the obs trace id, which
        the service sets per job from the ``X-Trace-Id`` header.
        """
        self.request = request_id

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _request(self) -> str | None:
        return self.request if self.request is not None else self._trace_id()

    def wrap(
        self,
        name: str | Callable[[tuple[Any, ...]], str],
        fn: Callable[..., Any],
        before: Callable[[tuple, dict], Any] | None = None,
        after: Callable[[tuple, dict, Any, Any], dict | None] | None = None,
    ) -> Callable[..., Any]:
        """``fn`` wrapped to record a span per call.

        ``before(args, kwargs)`` may return ``(args, kwargs, token)`` to
        substitute arguments; ``after(args, kwargs, result, token)``
        returns span attributes and runs after the span closed.
        """
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            token = None
            if before is not None:
                args, kwargs, token = before(args, kwargs)
            label = name(args) if callable(name) else name
            stack = recorder._stack()
            span_id = next(recorder._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            t0 = time.monotonic()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stack.pop()
                recorder.spans.append(
                    (span_id, parent, label, t0, time.monotonic(),
                     recorder._request(), threading.get_ident(), {"error": True})
                )
                raise
            t1 = time.monotonic()
            stack.pop()
            attrs = after(args, kwargs, result, token) if after else None
            recorder.spans.append(
                (span_id, parent, label, t0, t1, recorder._request(),
                 threading.get_ident(), attrs)
            )
            return result

        return wrapper

    def span_dicts(self, t0: float = -1e300, t1: float = 1e300) -> list[dict]:
        """Recorded spans that start and end inside ``[t0, t1]``."""
        keys = ("id", "parent", "name", "t0", "t1", "request", "thread", "attrs")
        return [
            dict(zip(keys, span, strict=True))
            for span in list(self.spans)
            if span[3] >= t0 and span[4] <= t1
        ]

    def dump(self, path: str) -> None:
        """Write every span as JSON (called at process exit)."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.span_dicts(), handle)


# ----------------------------------------------------------------------
# span attributes
# ----------------------------------------------------------------------


def _iterations(args: tuple, kwargs: dict, result: Any, token: Any) -> dict:
    return {"iterations": int(result.iterations)}


def _factor_cache_before(args: tuple, kwargs: dict) -> tuple:
    from repro.thermal.factor_cache import factor_cache_stats

    return args, kwargs, factor_cache_stats()


def _factor_cache_after(args: tuple, kwargs: dict, result: Any, token: Any) -> dict:
    from repro.thermal.factor_cache import factor_cache_stats

    now = factor_cache_stats()
    return {
        "fc_hits": now["hits"] - token["hits"],
        "fc_misses": now["misses"] - token["misses"],
    }


def _cache_name(kind: str) -> Callable[[tuple], str]:
    def name(args: tuple) -> str:
        from repro.kernels.artifacts import ArtifactCache

        layer = "artifacts" if isinstance(args[0], ArtifactCache) else "exec.cache"
        return f"{layer}.{kind}"

    return name


def _hit(args: tuple, kwargs: dict, result: Any, token: Any) -> dict:
    return {"hit": result is not None}


def _bytes_written(args: tuple, kwargs: dict, result: Any, token: Any) -> dict:
    try:
        return {"bytes": result.stat().st_size}
    except (AttributeError, OSError):
        return {"bytes": 0}


def _dump_bytes(args: tuple, kwargs: dict, result: Any, token: Any) -> dict:
    return {"bytes": len(result)}


def _batch_report(args: tuple, kwargs: dict, result: Any, token: Any) -> dict:
    totals = result.get("totals", {})
    return {
        "cells": totals.get("cells", 0),
        "cache_hits": totals.get("cache_hits", 0),
        "fused_cells": result.get("execution", {}).get("fused_cells", 0),
    }


def _fleet_stats(args: tuple, kwargs: dict, result: Any, token: Any) -> dict:
    stats = dict(getattr(args[0], "last_run_stats", {}) or {})
    return {
        key: stats.get(key, 0)
        for key in ("groups", "groups_completed", "groups_reassigned",
                    "shared_cache_hits")
    }


def _http_exchange(args: tuple, kwargs: dict, result: Any, token: Any) -> dict:
    """Kind of job-API exchange, plus completion lag on a done status."""
    method, url = args[1], args[2]
    path = url.split("://", 1)[-1].partition("/")[2]
    parts = path.split("/")
    if method == "POST":
        kind = "submit"
    elif len(parts) == 3 and parts[:2] == ["v1", "jobs"]:
        kind = "status"
    else:
        kind = parts[-1] if parts else "other"
    attrs: dict[str, Any] = {"kind": kind}
    if kind in ("submit", "status") and getattr(result, "status", 0) in (200, 201):
        try:
            doc = result.json()
        except ValueError:
            return attrs
        if doc.get("state") == "done" and doc.get("finished_s") is not None:
            attrs["lag_s"] = time.time() - doc["finished_s"]
            if doc.get("started_s") is not None:
                attrs["run_s"] = doc["finished_s"] - doc["started_s"]
                attrs["wait_s"] = doc["started_s"] - doc["created_s"]
    return attrs


class _Counted:
    """A callable wrapper counting its evaluations."""

    def __init__(self, fn: Callable[..., Any]) -> None:
        self.fn = fn
        self.calls = 0

    def __call__(self, *args: Any, **kwargs: Any) -> Any:
        self.calls += 1
        return self.fn(*args, **kwargs)


def _count_callable(args: tuple, kwargs: dict) -> tuple:
    if "reliability_fn" in kwargs:
        counted = _Counted(kwargs["reliability_fn"])
        return args, dict(kwargs, reliability_fn=counted), counted
    counted = _Counted(args[0])
    return (counted, *args[1:]), kwargs, counted


def _evals(args: tuple, kwargs: dict, result: Any, token: Any) -> dict:
    return {"evals": token.calls}


# ----------------------------------------------------------------------
# installation
# ----------------------------------------------------------------------


def _patch_function(original: Callable, wrapper: Callable) -> None:
    """Rebind ``original`` to ``wrapper`` on every loaded repro module."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, wrapper)


def install(recorder: Recorder) -> None:
    """Patch every target in :data:`TARGETS` to record into ``recorder``."""
    for module_name in PRELOAD:
        importlib.import_module(module_name)
    from repro.obs.propagate import current_trace_id

    recorder._trace_id = current_trace_id
    for module_name, owner, attr, name, before, after in TARGETS:
        module = sys.modules[module_name]
        if owner is None:
            original = getattr(module, attr)
            wrapper = recorder.wrap(name, original, before, after)
            _patch_function(original, wrapper)
        else:
            cls = getattr(module, owner)
            original = getattr(cls, attr)
            setattr(cls, attr, recorder.wrap(name, original, before, after))
    _wrap_shard_tasks(recorder)


def _wrap_shard_tasks(recorder: Recorder) -> None:
    """Time ``run_sharded`` and each shard task it is handed."""
    module = sys.modules["repro.exec.runner"]
    original = module.run_sharded

    def before(args: tuple, kwargs: dict) -> tuple:
        if "task" in kwargs:
            task = kwargs["task"]
            return args, dict(kwargs, task=recorder.wrap("montecarlo.shard", task)), None
        task = recorder.wrap("montecarlo.shard", args[1])
        return (args[0], task, *args[2:]), kwargs, None

    wrapper = recorder.wrap("exec.run_sharded", original, before)
    _patch_function(original, wrapper)


#: ``(module, class or None, attribute, span name, before, after)``.
TARGETS: tuple[tuple[Any, ...], ...] = (
    ("repro.power.loop", None, "solve_power_thermal", "power.solve", None, _iterations),
    ("repro.chip.geometry", "GridSpec", "overlap_fractions", "chip.overlap_fractions", None, None),
    ("repro.chip.floorplan", "Floorplan", "with_powers", "chip.with_powers", None, None),
    ("repro.thermal.hotspot", "HotSpotLite", "analyze", "thermal.analyze",
     _factor_cache_before, _factor_cache_after),
    ("repro.variation.pca", None, "build_canonical_model", "variation.canonical", None, None),
    ("repro.core.blod", None, "characterize_blods", "blod.characterize", None, None),
    ("repro.core.analyzer", "ReliabilityAnalyzer", "__init__", "analyzer.setup", None, None),
    ("repro.exec.cache", "ResultCache", "get", _cache_name("get"), None, _hit),
    ("repro.exec.cache", "ResultCache", "put", _cache_name("put"), None, _bytes_written),
    ("repro.core.ensemble", "StFastAnalyzer", "__init__", "ensemble.build", None, None),
    ("repro.core.ensemble", "StFastAnalyzer", "reliability", "ensemble.reliability", None, None),
    ("repro.core.ensemble", None, "sweep_reliabilities", "ensemble.sweep", None, None),
    ("repro.core.hybrid", "HybridAnalyzer", "__init__", "hybrid.build", None, None),
    ("repro.core.hybrid", "HybridAnalyzer", "reliability", "hybrid.query", None, None),
    ("repro.core.lifetime", None, "solve_lifetime", "lifetime.solve", _count_callable, _evals),
    ("repro.exec.checkpoint", "Checkpoint", "flush", "exec.checkpoint.flush", None, None),
    ("repro.exec.batch", None, "run_batch", "batch.run", None, _batch_report),
    ("repro.scenario.engine", "ScenarioAnalyzer", "__init__", "scenario.build", None, None),
    ("repro.scenario.engine", "ScenarioAnalyzer", "lifetime", "scenario.lifetime", None, None),
    ("repro.payloads", None, "lifetime_payload", "payloads.build", None, None),
    ("repro.payloads", None, "curve_payload", "payloads.build", None, None),
    ("repro.payloads", None, "scenario_payload", "payloads.build", None, None),
    ("repro.payloads", None, "mc_shards_payload", "payloads.build", None, None),
    ("repro.payloads", None, "report_payload", "payloads.build", None, None),
    ("repro.payloads", None, "dump_payload", "payloads.dump", None, _dump_bytes),
    ("repro.service.app", "ReliabilityService", "handle", "service.handle", None, None),
    ("repro.fleet.coordinator", "FleetCoordinator", "run", "fleet.run", None, _fleet_stats),
    ("repro.fleet.transport", "HttpTransport", "run_shard_group", "fleet.group", None, None),
    ("repro.fleet.client", "HttpClient", "request", "fleet.http", None, _http_exchange),
    ("repro.fleet.client", "BackoffPolicy", "delay_s", "fleet.retry", None, None),
)
