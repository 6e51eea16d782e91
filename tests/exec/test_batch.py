"""Unit tests for the batch sweep runner."""

from dataclasses import replace

import numpy as np
import pytest

from repro import obs
from repro.errors import ConfigurationError
from repro.exec import ResultCache, SerialBackend
from repro.exec.batch import SweepSpec, batch_table, run_batch

SPEC = SweepSpec(designs=("C1",), methods=("st_fast", "guard"), grid_size=6)


@pytest.fixture()
def cache(tmp_path):
    return ResultCache(tmp_path / "cache")


class TestSweepSpec:
    def test_cells_cross_product_order(self):
        spec = SweepSpec(
            designs=("C1", "C2"),
            methods=("st_fast",),
            temperatures_c=(60.0, 80.0),
        )
        cells = spec.cells()
        assert len(cells) == 4
        assert cells[0] == {
            "design": "C1",
            "temperature_c": 60.0,
            "method": "st_fast",
        }

    def test_no_temps_means_own_profile(self):
        assert SPEC.cells()[0]["temperature_c"] is None

    @pytest.mark.parametrize(
        "kwargs,match",
        [
            ({"designs": (), "methods": ("st_fast",)}, "design"),
            ({"designs": ("C1",), "methods": ()}, "method"),
            ({"designs": ("C9",), "methods": ("st_fast",)}, "unknown design"),
            ({"designs": ("C1",), "methods": ("magic",)}, "unknown method"),
            (
                {"designs": ("C1",), "methods": ("st_fast",), "ppm": 0.0},
                "ppm",
            ),
        ],
    )
    def test_validation(self, kwargs, match):
        with pytest.raises(ConfigurationError, match=match):
            SweepSpec(**kwargs)


class TestRunBatch:
    def test_second_run_served_from_cache(self, cache):
        first = run_batch(SPEC, backend=SerialBackend(), cache=cache)
        assert first["totals"]["cache_hits"] == 0
        with obs.enabled():
            second = run_batch(SPEC, backend=SerialBackend(), cache=cache)
            hits = obs.get_counter("exec.cache.hit")
            misses = obs.get_counter("exec.cache.miss")
        n_cells = second["totals"]["cells"]
        assert second["totals"]["cache_hits"] == n_cells
        # The acceptance bar: >= 90 % of cells come from the cache.
        assert hits / (hits + misses) >= 0.9
        for a, b in zip(first["cells"], second["cells"], strict=True):
            assert a["lifetime_hours"] == b["lifetime_hours"]
            assert b["cached"]

    def test_no_cache_bypasses(self, cache):
        run_batch(SPEC, backend=SerialBackend(), cache=cache)
        report = run_batch(
            SPEC, backend=SerialBackend(), cache=cache, use_cache=False
        )
        assert report["totals"]["cache_hits"] == 0

    def test_report_shape(self, cache):
        report = run_batch(SPEC, backend=SerialBackend(), cache=cache)
        assert report["spec"]["designs"] == ("C1",)
        assert report["execution"]["backend"] == "serial"
        assert report["execution"]["jobs"] == 1
        for cell in report["cells"]:
            assert cell["lifetime_hours"] > 0.0
            assert np.isfinite(cell["lifetime_years"])

    def test_uniform_temperature_changes_lifetime(self, cache):
        hot = SweepSpec(
            designs=("C1",),
            methods=("st_fast",),
            temperatures_c=(100.0,),
            grid_size=6,
        )
        cool = SweepSpec(
            designs=("C1",),
            methods=("st_fast",),
            temperatures_c=(40.0,),
            grid_size=6,
        )
        hot_life = run_batch(hot, cache=cache)["cells"][0]["lifetime_hours"]
        cool_life = run_batch(cool, cache=cache)["cells"][0]["lifetime_hours"]
        assert cool_life > hot_life


class TestBatchTable:
    def test_renders_rows_and_totals(self, cache):
        report = run_batch(SPEC, backend=SerialBackend(), cache=cache)
        text = batch_table(report)
        assert "st_fast" in text and "guard" in text
        assert "miss" in text
        assert "2 cells, 0 served from cache" in text
        hit_text = batch_table(
            run_batch(SPEC, backend=SerialBackend(), cache=cache)
        )
        assert "hit" in hit_text


FUSED_SPEC = SweepSpec(
    designs=("C1",),
    methods=("st_fast", "temp_unaware"),
    temperatures_c=(40.0, 70.0, 100.0),
    grid_size=6,
)


def cell_lifetimes(report: dict) -> dict[tuple, float]:
    """``(design, temperature, method) -> lifetime`` of a batch report."""
    return {
        (cell["design"], cell["temperature_c"], cell["method"]): cell[
            "lifetime_hours"
        ]
        for cell in report["cells"]
    }


def single_temperature_lifetimes(spec: SweepSpec) -> dict[tuple, float]:
    """Each cell's lifetime from its own one-temperature sweep.

    A sweep over one temperature never fuses, so this is the per-cell
    evaluation the fused axis must reproduce.
    """
    lifetimes = {}
    for temp in spec.temperatures_c:
        report = run_batch(
            replace(spec, temperatures_c=(temp,)), use_cache=False
        )
        assert report["execution"]["fused_cells"] == 0
        lifetimes.update(cell_lifetimes(report))
    return lifetimes


class TestFusion:
    def test_fused_lifetimes_bitwise_equal_plain(self):
        fused = run_batch(FUSED_SPEC, use_cache=False)
        assert "fuse" not in fused["execution"]
        assert fused["execution"]["fused_cells"] == 6
        # Exact float equality: fusion must be invisible in results.
        assert cell_lifetimes(fused) == single_temperature_lifetimes(FUSED_SPEC)

    def test_fused_cells_counter(self):
        with obs.enabled():
            run_batch(FUSED_SPEC, use_cache=False)
            assert obs.get_counter("exec.batch.fused_cells") == 6

    def test_non_fusable_method_falls_back(self):
        spec = SweepSpec(
            designs=("C1",),
            methods=("guard",),
            temperatures_c=(40.0, 70.0),
            grid_size=6,
        )
        report = run_batch(spec, use_cache=False)
        assert report["execution"]["fused_cells"] == 0
        assert report["totals"]["cells"] == 2

    def test_single_temperature_not_fused(self):
        spec = SweepSpec(
            designs=("C1",),
            methods=("st_fast",),
            temperatures_c=(70.0,),
            grid_size=6,
        )
        report = run_batch(spec, use_cache=False)
        assert report["execution"]["fused_cells"] == 0

    def test_cached_cells_excluded_from_fused_group(self, cache):
        warm = SweepSpec(
            designs=("C1",),
            methods=("st_fast",),
            temperatures_c=(40.0,),
            grid_size=6,
        )
        run_batch(warm, cache=cache)
        full = SweepSpec(
            designs=("C1",),
            methods=("st_fast",),
            temperatures_c=(40.0, 70.0, 100.0),
            grid_size=6,
        )
        report = run_batch(full, cache=cache)
        # The pre-cached 40C cell is served from cache; only the two
        # missing temperatures are solved through the fused group.
        assert report["totals"]["cache_hits"] == 1
        assert report["execution"]["fused_cells"] == 2
        assert cell_lifetimes(report) == single_temperature_lifetimes(full)

    def test_second_run_all_cached_no_fusion_work(self, cache):
        run_batch(FUSED_SPEC, cache=cache)
        report = run_batch(FUSED_SPEC, cache=cache)
        assert report["totals"]["cache_hits"] == report["totals"]["cells"]
        assert report["execution"]["fused_cells"] == 0


SCHEDULE = {
    "phases": [
        {"name": "burnin", "duration_hours": 500.0, "temperature_c": 110.0},
        {"name": "field"},
    ],
    "mechanisms": ["obd", "nbti"],
}

SCENARIO_SPEC = SweepSpec(
    designs=("C1",),
    methods=("st_fast",),
    grid_size=6,
    scenario=SCHEDULE,
)


class TestScenarioSweeps:
    def test_spec_canonicalises_schedule(self):
        from repro.scenario import Scenario

        assert (
            SCENARIO_SPEC.scenario == Scenario.from_dict(SCHEDULE).as_dict()
        )

    def test_scenario_requires_st_fast_only(self):
        with pytest.raises(ConfigurationError, match="st_fast"):
            SweepSpec(
                designs=("C1",),
                methods=("st_fast", "guard"),
                scenario=SCHEDULE,
            )

    def test_cells_match_scenario_analyzer(self):
        from repro.scenario import Scenario, ScenarioAnalyzer
        from repro.service import JobRequest

        report = run_batch(SCENARIO_SPEC, use_cache=False)
        analyzer = JobRequest.from_dict(
            {"kind": "lifetime", "design": "C1", "grid": 6}
        ).build_analyzer()
        reference = ScenarioAnalyzer(
            analyzer, Scenario.from_dict(SCHEDULE)
        ).lifetime(SCENARIO_SPEC.ppm)
        assert report["cells"][0]["lifetime_hours"] == reference

    def test_second_run_served_from_cache(self, cache):
        first = run_batch(SCENARIO_SPEC, backend=SerialBackend(), cache=cache)
        assert first["totals"]["cache_hits"] == 0
        with obs.enabled():
            second = run_batch(
                SCENARIO_SPEC, backend=SerialBackend(), cache=cache
            )
            hits = obs.get_counter("exec.cache.hit")
            misses = obs.get_counter("exec.cache.miss")
        assert second["totals"]["cache_hits"] == second["totals"]["cells"]
        # Same acceptance bar as steady sweeps: >= 90 % cache hits.
        assert hits / (hits + misses) >= 0.9
        for a, b in zip(first["cells"], second["cells"], strict=True):
            assert a["lifetime_hours"] == b["lifetime_hours"]
            assert b["cached"]

    def test_schedule_is_part_of_the_fingerprint(self, cache):
        run_batch(SCENARIO_SPEC, cache=cache)
        hotter = SweepSpec(
            designs=("C1",),
            methods=("st_fast",),
            grid_size=6,
            scenario={
                **SCHEDULE,
                "phases": [
                    {**SCHEDULE["phases"][0], "temperature_c": 120.0},
                    SCHEDULE["phases"][1],
                ],
            },
        )
        report = run_batch(hotter, cache=cache)
        assert report["totals"]["cache_hits"] == 0

    def test_steady_cells_ignore_scenario_machinery(self, cache):
        # A plain sweep's fingerprints must not change just because the
        # spec gained an (unset) scenario field — pre-existing caches
        # keep working.
        run_batch(SPEC, backend=SerialBackend(), cache=cache)
        report = run_batch(SPEC, backend=SerialBackend(), cache=cache)
        assert report["totals"]["cache_hits"] == report["totals"]["cells"]

    def test_scenario_cells_never_fuse(self):
        spec = SweepSpec(
            designs=("C1",),
            methods=("st_fast",),
            temperatures_c=(40.0, 70.0, 100.0),
            grid_size=6,
            scenario=SCHEDULE,
        )
        report = run_batch(spec, use_cache=False)
        assert report["execution"]["fused_cells"] == 0
        assert report["totals"]["cells"] == 3
