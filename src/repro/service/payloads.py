"""Service-side JSON envelopes: job status, errors, and /metrics text.

Result payloads themselves come from :mod:`repro.payloads` (shared with
the CLI so the bytes match); this module renders everything *around*
them — the job-status document, the structured error envelope every
non-2xx response carries, and the Prometheus text exposition of the
:mod:`repro.obs` metric registry.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Any

from repro import obs
from repro.kernels.artifacts import get_artifact_cache
from repro.payloads import stamp_envelope
from repro.thermal.factor_cache import factor_cache_stats, mesh_map_stats

if TYPE_CHECKING:
    from repro.service.jobs import Job, JobManager

__all__ = ["error_envelope", "job_envelope", "render_metrics_text"]

#: Per-tier cache hit-ratio gauges derived from the tier counter families
#: (static names; the dynamic part routes through this literal dict).
_TIER_HIT_RATIO_GAUGES = {
    "exec.cache.local.hit_ratio": {
        "hit": "exec.cache.local.hit",
        "miss": "exec.cache.local.miss",
    },
    "exec.cache.shared.hit_ratio": {
        "hit": "exec.cache.shared.hit",
        "miss": "exec.cache.shared.miss",
    },
    "kernels.artifacts.hit_ratio": {
        "hit": "kernels.artifacts.hit",
        "miss": "kernels.artifacts.miss",
    },
}

#: Per-tier on-disk entry-count gauges, keyed by the cache's tier label.
_TIER_ENTRY_GAUGES = {
    "local": "exec.cache.local.disk_entries",
    "shared": "exec.cache.shared.disk_entries",
}


def job_envelope(
    job: Job, progress: dict[str, int] | None = None
) -> dict[str, Any]:
    """The ``GET /v1/jobs/{id}`` document for one job."""
    doc: dict[str, Any] = {
        "id": job.id,
        "state": job.state,
        "kind": job.request.kind,
        "key": job.key,
        "cached": job.cached,
        "created_s": job.created_s,
        "started_s": job.started_s,
        "finished_s": job.finished_s,
        "trace_id": job.trace_id,
        "links": {
            "self": f"/v1/jobs/{job.id}",
            "result": f"/v1/jobs/{job.id}/result",
            "trace": f"/v1/jobs/{job.id}/trace",
        },
    }
    if progress is not None:
        doc["progress"] = progress
    if job.error is not None:
        doc["error"] = job.error
    return stamp_envelope(doc)


def error_envelope(code: str, message: str) -> dict[str, Any]:
    """The structured error document every non-2xx response carries."""
    return stamp_envelope({"error": {"code": code, "message": message}})


def _prometheus_name(name: str) -> str:
    """Map a dotted obs metric name onto the Prometheus charset."""
    return "repro_" + name.replace(".", "_").replace("-", "_")


def _format_value(value: float) -> str:
    """A sample value per the exposition format (incl. non-finite forms)."""
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    return f"{value:g}"


def _escape_label_value(value: str) -> str:
    """Escape a label value per the exposition format."""
    return (
        value.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")
    )


def _family_header(metric: str, kind: str, source: str) -> list[str]:
    return [
        f"# HELP {metric} repro.obs {kind} {_escape_help(source)}",
        f"# TYPE {metric} {kind}",
    ]


def _escape_help(text: str) -> str:
    """Escape HELP text per the exposition format."""
    return text.replace("\\", r"\\").replace("\n", r"\n")


def _cache_health_gauges(manager: JobManager | None) -> dict[str, float]:
    """Hot-path cache health, derived at render time.

    Hit ratios come from the always-current obs counters; the on-disk
    entry count is sampled from the manager's :class:`ResultCache` (a
    cheap directory walk).
    """
    gauges: dict[str, float] = {}
    hits = obs.get_counter("exec.cache.hit")
    misses = obs.get_counter("exec.cache.miss")
    if hits + misses > 0:
        gauges["exec.cache.hit_ratio"] = hits / (hits + misses)
    for tier_gauge, counters in _TIER_HIT_RATIO_GAUGES.items():
        tier_hits = obs.get_counter(counters["hit"])
        tier_misses = obs.get_counter(counters["miss"])
        if tier_hits + tier_misses > 0:
            gauges[tier_gauge] = tier_hits / (tier_hits + tier_misses)
    for prefix, cache_stats in (
        ("thermal.factor_cache", factor_cache_stats()),
        ("thermal.mesh_map", mesh_map_stats()),
    ):
        gauges[f"{prefix}.entries"] = float(cache_stats["entries"])
        lookups = cache_stats["hits"] + cache_stats["misses"]
        if lookups > 0:
            gauges[f"{prefix}.hit_ratio"] = cache_stats["hits"] / lookups
    if manager is not None and manager.cache is not None:
        try:
            entries = float(manager.cache.stats().entries)
        except OSError:  # pragma: no cover - racing cache eviction
            pass
        else:
            gauges["exec.cache.disk_entries"] = entries
            tier_gauge = _TIER_ENTRY_GAUGES.get(manager.cache.tier)
            if tier_gauge is not None:
                gauges[tier_gauge] = entries
    artifacts = get_artifact_cache()
    if artifacts is not None:
        try:
            stats = artifacts.stats()
        except OSError:  # pragma: no cover - racing cache eviction
            pass
        else:
            gauges["kernels.artifacts.disk_entries"] = float(stats.entries)
            gauges["kernels.artifacts.disk_bytes"] = float(stats.total_bytes)
    return gauges


def render_metrics_text(manager: JobManager | None = None) -> str:
    """The ``GET /metrics`` body: Prometheus text exposition format.

    Every :mod:`repro.obs` counter, gauge and histogram is exported with
    a ``repro_`` prefix and dots mapped to underscores, each family
    preceded by its ``HELP``/``TYPE`` lines.  Histograms render the full
    cumulative ``_bucket{le="..."}`` series plus ``_sum``/``_count``.
    Live queue depth, worker occupancy and cache health are sampled from
    ``manager`` at render time so they are fresh even between job
    transitions; non-finite values render as ``+Inf``/``-Inf``/``NaN``
    per the exposition format.
    """
    snapshot = obs.metrics_snapshot()
    gauges = dict(snapshot["gauges"])
    if manager is not None:
        gauges["service.jobs.queued"] = float(manager.queue_depth())
        gauges["service.jobs.running"] = float(manager.running_count())
        gauges["service.accepting"] = 1.0 if manager.accepting else 0.0
    gauges.update(_cache_health_gauges(manager))
    lines: list[str] = []
    for name in sorted(snapshot["counters"]):
        metric = _prometheus_name(name) + "_total"
        lines.extend(_family_header(metric, "counter", name))
        lines.append(f"{metric} {_format_value(snapshot['counters'][name])}")
    for name in sorted(gauges):
        metric = _prometheus_name(name)
        lines.extend(_family_header(metric, "gauge", name))
        lines.append(f"{metric} {_format_value(gauges[name])}")
    for name in sorted(snapshot["histograms"]):
        hist = snapshot["histograms"][name]
        metric = _prometheus_name(name)
        lines.extend(_family_header(metric, "histogram", name))
        cumulative = 0
        for bound, bucket in zip(
            hist["buckets"], hist["counts"], strict=False
        ):
            cumulative += bucket
            label = _escape_label_value(_format_value(bound))
            lines.append(f'{metric}_bucket{{le="{label}"}} {cumulative}')
        lines.append(f'{metric}_bucket{{le="+Inf"}} {hist["count"]}')
        lines.append(f"{metric}_sum {_format_value(hist['sum'])}")
        lines.append(f"{metric}_count {hist['count']}")
    return "\n".join(lines) + "\n"
