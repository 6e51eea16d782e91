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
    def test_second_analyzer_build_hits_and_matches(
        self, artifact_dir, small_floorplan, fast_config
    ):
        cold = ReliabilityAnalyzer(small_floorplan, config=fast_config)
        cold_lifetime = cold.lifetime(10.0, method="st_fast")
        with obs.enabled():
            warm = ReliabilityAnalyzer(small_floorplan, config=fast_config)
            warm_lifetime = warm.lifetime(10.0, method="st_fast")
            counters = obs.metrics_snapshot()["counters"]
        assert counters["kernels.artifacts.hit"] >= 2  # PCA + BLODs
        assert warm_lifetime == cold_lifetime
        np.testing.assert_array_equal(
            warm.canonical.sensitivities, cold.canonical.sensitivities
        )
        for blod_a, blod_b in zip(cold.blods, warm.blods):
            np.testing.assert_array_equal(blod_a.v_matrix, blod_b.v_matrix)

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
        assert runs[0]["stores"] >= 2 and runs[0]["hits"] == 0
        assert runs[1]["hits"] >= 2 and runs[1]["stores"] == 0
        assert runs[1]["lifetime"] == runs[0]["lifetime"]
