"""Shared fixtures for the repro test suite.

Designs used by the tests are intentionally tiny (a few thousand devices,
coarse grids) so the full suite runs in seconds; paper-scale runs live in
``benchmarks/``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    AnalysisConfig,
    Block,
    Floorplan,
    OBDModel,
    Rect,
    ReliabilityAnalyzer,
    VariationBudget,
    make_synthetic_design,
)


@pytest.fixture(scope="session", autouse=True)
def _isolated_artifact_cache(tmp_path_factory) -> None:
    """Point the kernels artifact cache at a per-session scratch dir.

    Keeps the suite from reading (or polluting) the developer's real
    ``~/.cache/repro/artifacts`` store; subprocess-based tests inherit
    the variable, so they stay isolated too.
    """
    import os

    root = tmp_path_factory.mktemp("artifact-cache")
    os.environ["REPRO_ARTIFACT_CACHE_DIR"] = str(root)


@pytest.fixture(autouse=True)
def _empty_design_store() -> None:
    """Start every test with an empty design store and no shared worker
    pool, as a one-shot CLI process does: a design an earlier test stored
    would otherwise serve this one without its set-up spans or artifact
    reads, and the workers of a pool an earlier test started were forked
    before this test's patches."""
    from repro.core.store import clear_design_store
    from repro.exec.backends import close_shared_backends

    clear_design_store()
    close_shared_backends()


@pytest.fixture(scope="session")
def budget() -> VariationBudget:
    """The paper's Table II variation budget."""
    return VariationBudget.table2()


@pytest.fixture(scope="session")
def obd_model() -> OBDModel:
    """The default calibrated OBD model."""
    return OBDModel()


@pytest.fixture(scope="session")
def tiny_floorplan() -> Floorplan:
    """A 2-block hand-built floorplan with explicit geometry."""
    return Floorplan(
        width=2.0,
        height=2.0,
        blocks=(
            Block(
                name="hot",
                rect=Rect(0.0, 0.0, 2.0, 1.0),
                n_devices=2000,
                avg_device_area=1.0,
                power=2.0,
            ),
            Block(
                name="cool",
                rect=Rect(0.0, 1.0, 2.0, 1.0),
                n_devices=3000,
                avg_device_area=1.2,
                power=0.3,
            ),
        ),
    )


@pytest.fixture(scope="session")
def small_floorplan() -> Floorplan:
    """A generated 4-block, 5K-device synthetic design."""
    return make_synthetic_design(
        name="T", n_devices=5000, n_blocks=4, die_size=2.0, seed=42
    )


@pytest.fixture(scope="session")
def fast_config() -> AnalysisConfig:
    """A coarse, fast configuration for unit tests."""
    return AnalysisConfig(grid_size=6, st_mc_samples=2000, mc_chunk_size=50)


@pytest.fixture(scope="session")
def small_analyzer(small_floorplan, fast_config) -> ReliabilityAnalyzer:
    """A fully prepared analyzer for the small synthetic design."""
    return ReliabilityAnalyzer(small_floorplan, config=fast_config)


@pytest.fixture()
def rng() -> np.random.Generator:
    """A fresh deterministic generator per test."""
    return np.random.default_rng(12345)
