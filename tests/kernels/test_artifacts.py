"""Cross-request artifact cache: round-trip, recovery, and reuse.

The contract under test (see :mod:`repro.kernels.artifacts`): enabling
the cache can never change results — every entry is a bit-exact ``.npz``
round-trip of what the compute path returns — and every failure mode
(corrupt file, truncated entry, disabled cache, unwritable root) demotes
to a plain recompute.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import ReliabilityAnalyzer, obs
from repro.kernels.artifacts import (
    ArtifactCache,
    artifact_key,
    get_artifact_cache,
    memoize_artifact,
    use_artifacts,
)


@pytest.fixture()
def artifact_dir(tmp_path, monkeypatch) -> Path:
    """A private artifact root per test (overrides the session fixture)."""
    root = tmp_path / "artifacts"
    monkeypatch.setenv("REPRO_ARTIFACT_CACHE_DIR", str(root))
    return root


def _arrays() -> dict[str, np.ndarray]:
    rng = np.random.default_rng(7)
    return {
        "eigvals": rng.standard_normal(8),
        "eigvecs": rng.standard_normal((8, 8)),
        "names": np.array(["a", "b"]),
        "counts": np.array([3, 5], dtype=np.int64),
    }


class TestMemoize:
    def test_round_trip_is_bitwise_identical(self, artifact_dir):
        first = memoize_artifact("unit", {"x": 1}, _arrays)
        second = memoize_artifact(
            "unit", {"x": 1}, lambda: pytest.fail("must not recompute")
        )
        assert set(second) == set(first)
        for name in first:
            assert second[name].dtype == first[name].dtype
            np.testing.assert_array_equal(second[name], first[name])

    def test_counters(self, artifact_dir):
        with obs.enabled():
            memoize_artifact("unit", {"x": 2}, _arrays)
            memoize_artifact("unit", {"x": 2}, _arrays)
            counters = obs.metrics_snapshot()["counters"]
        assert counters["kernels.artifacts.miss"] == 1
        assert counters["kernels.artifacts.store"] == 1
        assert counters["kernels.artifacts.hit"] == 1
        assert counters["kernels.artifacts.local.hit"] == 1

    def test_distinct_payloads_do_not_collide(self, artifact_dir):
        a = memoize_artifact("unit", {"x": 1}, _arrays)
        b = memoize_artifact(
            "unit", {"x": 1.5}, lambda: {"other": np.arange(3, dtype=np.int64)}
        )
        assert set(a) != set(b)
        assert artifact_key("unit", {"x": 1}) != artifact_key(
            "unit", {"x": 1.5}
        )

    def test_corrupt_entry_recomputes(self, artifact_dir):
        memoize_artifact("unit", {"x": 3}, _arrays)
        cache = get_artifact_cache()
        assert cache is not None
        path = cache.path_for(artifact_key("unit", {"x": 3}))
        path.write_bytes(b"not a zip file")
        with obs.enabled():
            recovered = memoize_artifact("unit", {"x": 3}, _arrays)
            counters = obs.metrics_snapshot()["counters"]
        assert counters["kernels.artifacts.corrupt"] == 1
        np.testing.assert_array_equal(recovered["eigvals"], _arrays()["eigvals"])

    def test_truncated_entry_recomputes(self, artifact_dir):
        """An entry missing a ``required`` array name is overwritten."""
        cache = ArtifactCache()
        cache.put(
            artifact_key("unit", {"x": 4}), {"eigvals": np.arange(2.0)}
        )
        out = memoize_artifact(
            "unit", {"x": 4}, _arrays, required=("eigvals", "eigvecs")
        )
        assert "eigvecs" in out
        # ... and the overwrite repaired the stored entry.
        repaired = cache.get(artifact_key("unit", {"x": 4}))
        assert repaired is not None and "eigvecs" in repaired

    def test_disabled_by_switch_and_env(self, artifact_dir, monkeypatch):
        with use_artifacts(False):
            assert get_artifact_cache() is None
            calls = []
            memoize_artifact("unit", {"x": 5}, lambda: (calls.append(1), _arrays())[1])
            memoize_artifact("unit", {"x": 5}, lambda: (calls.append(1), _arrays())[1])
            assert calls == [1, 1]
        assert get_artifact_cache() is not None


class TestAnalyzerReuse:
    @staticmethod
    def _artifact_counts(build):
        obs.reset()
        with obs.enabled():
            result = build()
            counters = obs.metrics_snapshot()["counters"]
        counts = {
            name: counters.get(f"kernels.artifacts.{name}", 0.0)
            for name in ("hit", "miss", "store")
        }
        return result, counts

    def test_second_analyzer_build_hits_and_matches(
        self, artifact_dir, small_floorplan, fast_config
    ):
        def build():
            analyzer = ReliabilityAnalyzer(small_floorplan, config=fast_config)
            return analyzer, analyzer.lifetime(10.0, method="st_fast")

        (cold, cold_lifetime), cold_counts = self._artifact_counts(build)
        (warm, warm_lifetime), warm_counts = self._artifact_counts(build)
        # Cold: the correlation matrix and the canonical model; warm: only
        # the recipe-keyed canonical model, which never reads the other.
        assert cold_counts == {"hit": 0.0, "miss": 2.0, "store": 2.0}
        assert warm_counts == {"hit": 1.0, "miss": 0.0, "store": 0.0}
        assert warm_lifetime == cold_lifetime
        np.testing.assert_array_equal(
            warm.canonical.sensitivities, cold.canonical.sensitivities
        )
        for blod_a, blod_b in zip(cold.blods, warm.blods, strict=True):
            np.testing.assert_array_equal(blod_a.v_factor, blod_b.v_factor)

    def test_cross_process_reuse(self, artifact_dir, tmp_path):
        """A second process reuses entries the first one stored."""
        script = (
            "import json, numpy as np\n"
            "from repro import ReliabilityAnalyzer, make_synthetic_design, "
            "AnalysisConfig, obs\n"
            "fp = make_synthetic_design(name='X', n_devices=4000, "
            "n_blocks=3, die_size=2.0, seed=3)\n"
            "with obs.enabled():\n"
            "    a = ReliabilityAnalyzer(fp, config=AnalysisConfig("
            "grid_size=6))\n"
            "    lt = a.lifetime(10.0, method='st_fast')\n"
            "    c = obs.metrics_snapshot()['counters']\n"
            "print(json.dumps({'lifetime': lt, "
            "'hits': c.get('kernels.artifacts.hit', 0.0), "
            "'stores': c.get('kernels.artifacts.store', 0.0)}))\n"
        )
        runs = []
        for _ in range(2):
            proc = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                text=True,
                check=True,
            )
            import json

            runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        assert runs[0]["stores"] == 2 and runs[0]["hits"] == 0
        assert runs[1]["hits"] == 1 and runs[1]["stores"] == 0
        assert runs[1]["lifetime"] == runs[0]["lifetime"]


class TestCanonicalModelKey:
    """The canonical model is keyed by its recipe, not by the covariance."""

    @staticmethod
    def _spy(monkeypatch) -> list[tuple[str, str]]:
        """Record ``(kind, "hit" | "miss")`` of every memoized artifact."""
        from repro.variation import correlation, pca

        real = pca.memoize_artifact
        calls: list[tuple[str, str]] = []

        def spy(kind, payload, compute, required=()):
            computed = []

            def tracked():
                computed.append(kind)
                return compute()

            arrays = real(kind, payload, tracked, required)
            calls.append((kind, "miss" if computed else "hit"))
            return arrays

        monkeypatch.setattr(pca, "memoize_artifact", spy)
        monkeypatch.setattr(correlation, "memoize_artifact", spy)
        return calls

    @pytest.mark.parametrize(
        "field",
        [
            "grid",
            "rho_dist",
            "kernel",
            "sigma_spatial",
            "energy",
            "max_factors",
            "mean_offsets",
        ],
    )
    def test_recipe_field_change_misses(self, artifact_dir, monkeypatch, field):
        from types import SimpleNamespace

        from repro import VariationBudget
        from repro.chip.geometry import GridSpec
        from repro.variation.correlation import SpatialCorrelationModel
        from repro.variation.pca import build_canonical_model

        table2 = VariationBudget.table2()
        base = {
            "grid": GridSpec(nx=4, ny=4, width=2.0, height=2.0),
            "rho_dist": 0.5,
            "kernel": "exponential",
            # Only the four budget numbers the model reads, so that one
            # of them can change alone.
            "sigma_spatial": table2.sigma_spatial,
            "energy": 0.9999,
            "max_factors": None,
            "mean_offsets": None,
        }
        changed = {
            "grid": GridSpec(nx=4, ny=3, width=2.0, height=2.0),
            "rho_dist": 0.25,
            "kernel": "gaussian",
            "sigma_spatial": 1.5 * table2.sigma_spatial,
            "energy": 0.99,
            "max_factors": 3,
            "mean_offsets": np.linspace(0.0, 0.01, 16),
        }

        def build(recipe):
            budget = SimpleNamespace(
                sigma_spatial=recipe["sigma_spatial"],
                sigma_global=table2.sigma_global,
                sigma_independent=table2.sigma_independent,
                nominal_thickness=table2.nominal_thickness,
            )
            correlation = SpatialCorrelationModel(
                grid=recipe["grid"],
                rho_dist=recipe["rho_dist"],
                kernel=recipe["kernel"],
            )
            return build_canonical_model(
                budget,
                correlation,
                energy=recipe["energy"],
                max_factors=recipe["max_factors"],
                mean_offsets=recipe["mean_offsets"],
            )

        calls = self._spy(monkeypatch)
        cold = build(base)
        assert calls == [("correlation_matrix", "miss"), ("canonical_model", "miss")]
        calls.clear()
        warm = build(base)
        # A hit never forms the covariance, so it reads no correlation matrix.
        assert calls == [("canonical_model", "hit")]
        np.testing.assert_array_equal(warm.sensitivities, cold.sensitivities)
        calls.clear()
        build(dict(base, **{field: changed[field]}))
        assert ("canonical_model", "miss") in calls
