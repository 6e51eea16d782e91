"""Prometheus exposition of the obs registry: format lint, escaping, health."""

from __future__ import annotations

import math
import re

import numpy as np
import pytest

from repro import obs
from repro.exec.cache import ResultCache
from repro.service import JobManager
from repro.service.payloads import (
    _escape_label_value,
    _format_value,
    render_metrics_text,
)
from repro.thermal import factor_cache

_NAME = r"[a-zA-Z_:][a-zA-Z0-9_:]*"
_SAMPLE = re.compile(
    rf"^({_NAME})(\{{[^}}]*\}})? (NaN|[+-]Inf|[-+0-9.eE]+)$"
)
_HELP = re.compile(rf"^# HELP ({_NAME}) .+$")
_TYPE = re.compile(rf"^# TYPE ({_NAME}) (counter|gauge|histogram)$")


def _base_family(name: str) -> str:
    for suffix in ("_bucket", "_total", "_sum", "_count"):
        if name.endswith(suffix):
            return name[: -len(suffix)]
    return name


def lint_exposition(text: str) -> dict[str, str]:
    """A small Prometheus text-format linter; returns {family: type}.

    Checks the invariants promtool's lint enforces: every sample parses,
    every family has HELP and TYPE lines *before* its samples, counter
    families end in ``_total``, and histogram bucket series are cumulative
    with a ``+Inf`` bucket equal to ``_count``.
    """
    assert text.endswith("\n"), "exposition must end with a newline"
    families: dict[str, str] = {}
    helped: set[str] = set()
    buckets: dict[str, list[tuple[str, float]]] = {}
    counts: dict[str, float] = {}
    for line in text.splitlines():
        if line.startswith("# HELP "):
            match = _HELP.match(line)
            assert match, f"bad HELP line: {line!r}"
            helped.add(match.group(1))
            continue
        if line.startswith("# TYPE "):
            match = _TYPE.match(line)
            assert match, f"bad TYPE line: {line!r}"
            families[match.group(1)] = match.group(2)
            continue
        assert not line.startswith("#"), f"unknown comment: {line!r}"
        match = _SAMPLE.match(line)
        assert match, f"unparseable sample: {line!r}"
        name, labels, value = match.groups()
        # Counters declare their TYPE under the full `_total` name
        # (classic text format); histograms declare the base family.
        family = name if name in families else _base_family(name)
        if families.get(family) == "histogram":
            if name.endswith("_bucket"):
                assert labels and 'le="' in labels, f"bucket sans le: {line!r}"
                le = labels.split('le="', 1)[1].split('"', 1)[0]
                buckets.setdefault(family, []).append((le, float(value)))
            elif name.endswith("_count"):
                counts[family] = float(value)
        else:
            assert family in families, f"sample before TYPE: {line!r}"
            if families[family] == "counter":
                assert name.endswith("_total"), f"counter sans _total: {name}"
    for family, series in buckets.items():
        values = [v for _, v in series]
        assert values == sorted(values), f"{family} buckets not cumulative"
        assert series[-1][0] == "+Inf", f"{family} missing +Inf bucket"
        assert series[-1][1] == counts[family], (
            f"{family} +Inf bucket != _count"
        )
    for family, kind in families.items():
        assert family in helped, f"family {family} has TYPE but no HELP"
    return families


@pytest.fixture(autouse=True)
def _fresh_factor_cache():
    factor_cache.clear_factor_cache(reset_stats=True)
    yield
    factor_cache.clear_factor_cache(reset_stats=True)
    # Tests here obs.enable() freely; don't leak the switch to other modules.
    obs.disable()


class TestExpositionFormat:
    def test_full_rendering_passes_lint(self):
        obs.enable()
        obs.inc("service.requests", 3)
        obs.gauge("service.jobs.running", 1)
        obs.observe("service.latency.jobs_submit", 0.004)
        obs.observe("service.latency.jobs_submit", 0.25)
        obs.observe("exec.shard.seconds", 1.5)
        families = lint_exposition(render_metrics_text())
        assert families["repro_service_requests_total"] == "counter"
        assert families["repro_service_jobs_running"] == "gauge"
        assert families["repro_service_latency_jobs_submit"] == "histogram"
        assert families["repro_exec_shard_seconds"] == "histogram"

    def test_histogram_series_shape(self):
        obs.enable()
        obs.observe("lat", 0.5, buckets=(1.0, 10.0))
        obs.observe("lat", 5.0, buckets=(1.0, 10.0))
        obs.observe("lat", 50.0, buckets=(1.0, 10.0))
        text = render_metrics_text()
        assert 'repro_lat_bucket{le="1"} 1' in text
        assert 'repro_lat_bucket{le="10"} 2' in text
        assert 'repro_lat_bucket{le="+Inf"} 3' in text
        assert "repro_lat_sum 55.5" in text
        assert "repro_lat_count 3" in text
        lint_exposition(text)

    def test_every_family_has_help_and_type(self):
        obs.enable()
        obs.inc("a.counter")
        obs.gauge("b.gauge", 2.0)
        obs.observe("c.hist", 0.1)
        text = render_metrics_text()
        for family in ("repro_a_counter_total", "repro_b_gauge", "repro_c_hist"):
            assert f"# HELP {family} " in text
            assert f"# TYPE {family} " in text

    def test_non_finite_gauge_values_render(self):
        obs.enable()
        obs.gauge("weird.nan", float("nan"))
        obs.gauge("weird.posinf", float("inf"))
        obs.gauge("weird.neginf", float("-inf"))
        text = render_metrics_text()
        assert "repro_weird_nan NaN" in text
        assert "repro_weird_posinf +Inf" in text
        assert "repro_weird_neginf -Inf" in text
        lint_exposition(text)

    def test_format_value_forms(self):
        assert _format_value(math.nan) == "NaN"
        assert _format_value(math.inf) == "+Inf"
        assert _format_value(-math.inf) == "-Inf"
        assert _format_value(0.25) == "0.25"

    def test_label_value_escaping(self):
        assert _escape_label_value('a"b') == r"a\"b"
        assert _escape_label_value("a\\b") == r"a\\b"
        assert _escape_label_value("a\nb") == r"a\nb"

    def test_empty_registry_renders_trailing_newline(self):
        text = render_metrics_text()
        assert text.endswith("\n")


class TestCacheHealthGauges:
    def test_exec_cache_hit_ratio_from_counters(self):
        obs.enable()
        obs.inc("exec.cache.hit", 3)
        obs.inc("exec.cache.miss", 1)
        text = render_metrics_text()
        assert "repro_exec_cache_hit_ratio 0.75" in text

    def test_hit_ratio_absent_without_lookups(self):
        obs.enable()
        text = render_metrics_text()
        assert "repro_exec_cache_hit_ratio" not in text

    def test_factor_cache_entries_and_ratio(self):
        from scipy.sparse import identity

        from repro.chip.geometry import GridSpec
        from repro.thermal.grid import PackageModel

        obs.enable()
        grid = GridSpec(nx=2, ny=2, width=2.0, height=2.0)
        package = PackageModel()

        def build():
            return identity(4, format="csr")

        factor_cache.cached_factorization(grid, package, build)
        factor_cache.cached_factorization(grid, package, build)  # hit
        text = render_metrics_text()
        assert "repro_thermal_factor_cache_entries 1" in text
        assert "repro_thermal_factor_cache_hit_ratio 0.5" in text
        lint_exposition(text)

    def test_mesh_map_entries_and_ratio(self, tiny_floorplan):
        from repro.thermal.hotspot import HotSpotLite

        obs.enable()
        text = render_metrics_text()
        assert "repro_thermal_mesh_map_entries 0" in text
        assert "repro_thermal_mesh_map_hit_ratio" not in text
        hotspot = HotSpotLite(mesh_resolution=8)
        for _ in range(4):  # one miss, then three hits on the same geometry
            hotspot.analyze(tiny_floorplan)
        text = render_metrics_text()
        assert "repro_thermal_mesh_map_entries 1" in text
        assert "repro_thermal_mesh_map_hit_ratio 0.75" in text
        families = lint_exposition(text)
        assert families["repro_thermal_mesh_map_entries"] == "gauge"
        assert families["repro_thermal_mesh_map_hit_ratio"] == "gauge"

    def test_disk_entry_count_from_manager_cache(self, tmp_path, gated):
        obs.enable()
        cache = ResultCache(tmp_path / "cache")
        cache.put("deadbeef" * 8, {"x": np.arange(3)})
        manager = JobManager(workers=1, max_queue=2, compute=gated, cache=cache)
        try:
            text = render_metrics_text(manager)
            assert "repro_exec_cache_disk_entries 1" in text
            lint_exposition(text)
        finally:
            gated.release.set()

    def test_per_tier_hit_ratios_from_tier_counters(self):
        obs.enable()
        obs.inc("exec.cache.local.hit", 3)
        obs.inc("exec.cache.local.miss", 1)
        obs.inc("exec.cache.shared.hit", 9)
        obs.inc("exec.cache.shared.miss", 1)
        text = render_metrics_text()
        assert "repro_exec_cache_local_hit_ratio 0.75" in text
        assert "repro_exec_cache_shared_hit_ratio 0.9" in text
        lint_exposition(text)

    def test_tier_ratio_absent_without_tier_lookups(self):
        obs.enable()
        obs.inc("exec.cache.local.hit", 2)
        text = render_metrics_text()
        assert "repro_exec_cache_local_hit_ratio 1" in text
        assert "repro_exec_cache_shared_hit_ratio" not in text

    def test_tier_disk_entry_gauge_from_manager_cache(self, tmp_path, gated):
        obs.enable()
        cache = ResultCache(tmp_path / "shared", tier="shared")
        cache.put("deadbeef" * 8, {"x": np.arange(3)})
        manager = JobManager(workers=1, max_queue=2, compute=gated, cache=cache)
        try:
            text = render_metrics_text(manager)
            assert "repro_exec_cache_shared_disk_entries 1" in text
            lint_exposition(text)
        finally:
            gated.release.set()
