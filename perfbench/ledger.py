"""Per-layer metrics: folded span self times plus per-request counts.

:data:`LAYER_METRICS` is the list ``BENCHMARK.json`` names under
``per_layer``; :func:`layer_metrics` computes every one of them from the
spans of all processes of one traced window.  ``*.calls`` and counts are
means per completed request, ``*.self_ms`` mean self time per request.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any

from stats import fold_self_times, percentile

#: ``(name, unit, better)`` of every per-layer metric, in report order.
LAYER_METRICS: tuple[tuple[str, str, str], ...] = (
    ("power.solve.self_ms", "ms", "lower"),
    ("power.iterations", "count", "lower"),
    ("chip.overlap_fractions.calls", "count", "lower"),
    ("chip.overlap_fractions.self_ms", "ms", "lower"),
    ("chip.with_powers.self_ms", "ms", "lower"),
    ("thermal.analyze.calls", "count", "lower"),
    ("thermal.analyze.self_ms", "ms", "lower"),
    ("thermal.factor_cache.hit_ratio", "ratio", "higher"),
    ("variation.canonical.self_ms", "ms", "lower"),
    ("blod.characterize.self_ms", "ms", "lower"),
    ("analyzer.setup.calls", "count", "lower"),
    ("analyzer.setup.self_ms", "ms", "lower"),
    ("artifacts.get.calls", "count", "lower"),
    ("artifacts.get.self_ms", "ms", "lower"),
    ("artifacts.hit_ratio", "ratio", "higher"),
    ("artifacts.put.calls", "count", "lower"),
    ("artifacts.put.self_ms", "ms", "lower"),
    ("artifacts.bytes_written", "bytes", "lower"),
    ("ensemble.build.self_ms", "ms", "lower"),
    ("ensemble.reliability.calls", "count", "lower"),
    ("ensemble.reliability.self_ms", "ms", "lower"),
    ("ensemble.sweep.self_ms", "ms", "lower"),
    ("hybrid.build.calls", "count", "lower"),
    ("hybrid.build.self_ms", "ms", "lower"),
    ("hybrid.query.calls", "count", "lower"),
    ("hybrid.query.self_ms", "ms", "lower"),
    ("lifetime.solve.calls", "count", "lower"),
    ("lifetime.evals_per_solve", "count", "lower"),
    ("lifetime.solve.self_ms", "ms", "lower"),
    ("montecarlo.shard.calls", "count", "lower"),
    ("montecarlo.shard.self_ms", "ms", "lower"),
    ("exec.run_sharded.self_ms", "ms", "lower"),
    ("exec.checkpoint.flush.calls", "count", "lower"),
    ("exec.checkpoint.flush.self_ms", "ms", "lower"),
    ("exec.cache.get.calls", "count", "lower"),
    ("exec.cache.get.self_ms", "ms", "lower"),
    ("exec.cache.hit_ratio", "ratio", "higher"),
    ("exec.cache.put.calls", "count", "lower"),
    ("exec.cache.put.self_ms", "ms", "lower"),
    ("exec.cache.bytes_written", "bytes", "lower"),
    ("batch.cells", "count", "higher"),
    ("batch.cache_hit_share", "ratio", "higher"),
    ("batch.fused_cell_share", "ratio", "higher"),
    ("batch.run.self_ms", "ms", "lower"),
    ("scenario.build.self_ms", "ms", "lower"),
    ("scenario.lifetime.self_ms", "ms", "lower"),
    ("payloads.build.self_ms", "ms", "lower"),
    ("payloads.dump.self_ms", "ms", "lower"),
    ("payloads.bytes", "bytes", "lower"),
    ("service.submit_ms_p50", "ms", "lower"),
    ("service.status_ms_p50", "ms", "lower"),
    ("service.queue_wait_ms_p50", "ms", "lower"),
    ("service.queue_wait_ms_p90", "ms", "lower"),
    ("service.run_ms_p50", "ms", "lower"),
    ("service.handle.self_ms", "ms", "lower"),
    ("service.cache_served_share", "ratio", "higher"),
    ("service.coalesced_share", "ratio", "higher"),
    ("service.rejected_share", "ratio", "lower"),
    ("fleet.groups", "count", "lower"),
    ("fleet.group_ms_p50", "ms", "lower"),
    ("fleet.polls_per_group", "count", "lower"),
    ("fleet.completion_lag_ms_p50", "ms", "lower"),
    ("fleet.worker_busy_share", "ratio", "higher"),
    ("fleet.shared_cache_hit_share", "ratio", "higher"),
    ("fleet.groups_reassigned", "count", "lower"),
    ("fleet.retries", "count", "lower"),
    ("bench.sender_lag_ms_p90", "ms", "lower"),
    ("bench.trace_overhead", "ratio", "lower"),
)

#: Counts that repeat exactly for a fixed seed (in-process workloads and
#: mc_fleet); two traced runs of one seed must agree on them.
EXACT_COUNTS = (
    "power.iterations",
    "chip.overlap_fractions.calls",
    "lifetime.evals_per_solve",
    "analyzer.setup.calls",
    "hybrid.build.calls",
    "batch.fused_cell_share",
    "artifacts.hit_ratio",
    "fleet.groups",
    "montecarlo.shard.calls",
)

#: Span names reported as ``<name>.calls`` and ``<name>.self_ms`` (only
#: the ones listed in LAYER_METRICS are kept).
_SPAN_NAMES = (
    "power.solve", "chip.overlap_fractions", "chip.with_powers",
    "thermal.analyze", "variation.canonical", "blod.characterize",
    "analyzer.setup", "artifacts.get", "artifacts.put", "ensemble.build",
    "ensemble.reliability", "ensemble.sweep", "hybrid.build", "hybrid.query",
    "lifetime.solve", "montecarlo.shard", "exec.run_sharded",
    "exec.checkpoint.flush", "exec.cache.get", "exec.cache.put", "batch.run",
    "scenario.build", "scenario.lifetime", "payloads.build", "payloads.dump",
    "service.handle",
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _p(values: list[float], q: float) -> float:
    return percentile(values, q) if values else 0.0


def layer_metrics(
    spans_by_process: list[list[dict[str, Any]]],
    requests: int,
    extra: dict[str, Any],
) -> dict[str, float]:
    """Every per-layer metric except ``bench.trace_overhead``.

    ``spans_by_process`` holds one span list per process (span ids are
    per process); ``requests`` is the number of completed requests in the
    window; ``extra`` carries what the load generator measured itself
    (``service`` stats, ``workers``, ``wall_s``).
    """
    n = max(requests, 1)
    folded: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0.0, "self_s": 0.0}
    )
    by_name: dict[str, list[dict[str, Any]]] = defaultdict(list)
    for spans in spans_by_process:
        for name, entry in fold_self_times(spans).items():
            for key, value in entry.items():
                folded[name][key] += value
        for span in spans:
            by_name[span["name"]].append(span)

    def attr_sum(name: str, key: str) -> float:
        return float(sum((s["attrs"] or {}).get(key, 0) for s in by_name[name]))

    out: dict[str, float] = {}
    for name in _SPAN_NAMES:
        out[f"{name}.calls"] = folded[name]["calls"] / n
        out[f"{name}.self_ms"] = 1e3 * folded[name]["self_s"] / n

    out["power.iterations"] = attr_sum("power.solve", "iterations") / n
    fc_hits = attr_sum("thermal.analyze", "fc_hits")
    out["thermal.factor_cache.hit_ratio"] = _ratio(
        fc_hits, fc_hits + attr_sum("thermal.analyze", "fc_misses")
    )
    for layer in ("artifacts", "exec.cache"):
        gets = by_name[f"{layer}.get"]
        hits = sum(1 for s in gets if (s["attrs"] or {}).get("hit"))
        out[f"{layer}.hit_ratio"] = _ratio(hits, len(gets))
        out[f"{layer}.bytes_written"] = attr_sum(f"{layer}.put", "bytes") / n
    out["lifetime.evals_per_solve"] = _ratio(
        attr_sum("lifetime.solve", "evals"), len(by_name["lifetime.solve"])
    )
    cells = attr_sum("batch.run", "cells")
    out["batch.cells"] = cells / n
    out["batch.cache_hit_share"] = _ratio(attr_sum("batch.run", "cache_hits"), cells)
    out["batch.fused_cell_share"] = _ratio(attr_sum("batch.run", "fused_cells"), cells)
    out["payloads.bytes"] = attr_sum("payloads.dump", "bytes") / n

    service = dict(extra.get("service") or {})
    http = by_name["fleet.http"]
    submits = [s["t1"] - s["t0"] for s in http if s["attrs"]["kind"] == "submit"]
    statuses = [s for s in http if s["attrs"]["kind"] == "status"]
    done = [s["attrs"] for s in http if "run_s" in (s["attrs"] or {})]
    if http and not service:
        waits = [a["wait_s"] for a in done]
        service = {
            "submit_ms_p50": 1e3 * _p(submits, 50),
            "status_ms_p50": 1e3 * _p([s["t1"] - s["t0"] for s in statuses], 50),
            "queue_wait_ms_p50": 1e3 * _p(waits, 50),
            "queue_wait_ms_p90": 1e3 * _p(waits, 90),
            "run_ms_p50": 1e3 * _p([a["run_s"] for a in done], 50),
        }
    for key in ("submit_ms_p50", "status_ms_p50", "queue_wait_ms_p50",
                "queue_wait_ms_p90", "run_ms_p50", "cache_served_share",
                "coalesced_share", "rejected_share"):
        out[f"service.{key}"] = float(service.get(key, 0.0))

    groups = by_name["fleet.group"]
    out["fleet.groups"] = attr_sum("fleet.run", "groups_completed") / n
    out["fleet.group_ms_p50"] = 1e3 * _p([s["t1"] - s["t0"] for s in groups], 50)
    out["fleet.polls_per_group"] = _ratio(
        sum(1 for s in statuses if s["parent"] is not None), len(groups)
    )
    out["fleet.completion_lag_ms_p50"] = 1e3 * _p(
        [a["lag_s"] for a in done], 50
    )
    out["fleet.worker_busy_share"] = _ratio(
        sum(a["run_s"] for a in done),
        extra.get("workers", 0) * extra.get("wall_s", 0.0),
    )
    out["fleet.shared_cache_hit_share"] = _ratio(
        attr_sum("fleet.run", "shared_cache_hits"), attr_sum("fleet.run", "groups")
    )
    out["fleet.groups_reassigned"] = attr_sum("fleet.run", "groups_reassigned") / n
    out["fleet.retries"] = len(by_name["fleet.retry"]) / n
    out["bench.sender_lag_ms_p90"] = float(service.get("sender_lag_ms_p90", 0.0))

    names = {name for name, _, _ in LAYER_METRICS}
    return {name: out[name] for name in names if name in out}


def layer_table(spans_by_process: list[list[dict[str, Any]]], requests: int) -> str:
    """Self time per span name, largest first, as an aligned text table."""
    n = max(requests, 1)
    folded: dict[str, list[float]] = defaultdict(lambda: [0.0, 0.0])
    for spans in spans_by_process:
        for name, entry in fold_self_times(spans).items():
            folded[name][0] += entry["calls"]
            folded[name][1] += entry["self_s"]
    total = sum(self_s for _, self_s in folded.values()) or 1.0
    lines = [f"{'span':<26} {'calls/req':>10} {'self ms/req':>12} {'share':>7}"]
    for name, (calls, self_s) in sorted(folded.items(), key=lambda kv: -kv[1][1]):
        lines.append(
            f"{name:<26} {calls / n:>10.2f} {1e3 * self_s / n:>12.3f} "
            f"{100 * self_s / total:>6.1f}%"
        )
    return "\n".join(lines)
