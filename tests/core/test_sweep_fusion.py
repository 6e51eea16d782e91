"""Bit-identity tests for the fused temperature-axis sweep kernel.

``sweep_reliabilities`` evaluates one ``StFastAnalyzer`` at several
operating points (per-temperature ``(alphas, bs)``) in one kernel
dispatch.  The contract is strict: either the fused result is **bitwise
identical** to evaluating each operating point separately, or the
function returns ``None`` and the caller dispatches per point.  These
tests pin both halves — exact equality on the fusable shapes, and every
documented decline condition.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import ReliabilityAnalyzer
from repro.core.ensemble import sweep_reliabilities
from repro.errors import ConfigurationError
from repro.kernels.survival import sweep_rule_expectations

TEMPS = (40.0, 60.0, 80.0, 100.0)


@pytest.fixture(scope="module")
def temp_analyzers(request):
    """One fresh analyzer per uniform temperature: the per-point reference."""
    floorplan = request.getfixturevalue("small_floorplan")
    config = request.getfixturevalue("fast_config")
    out = []
    for temp in TEMPS:
        out.append(
            ReliabilityAnalyzer(
                floorplan,
                config=config,
                block_temperatures=np.full(floorplan.n_blocks, temp),
            )
        )
    return out


@pytest.fixture(scope="module")
def engine(temp_analyzers):
    """The one ``StFastAnalyzer`` every operating point is evaluated on."""
    return temp_analyzers[0].st_fast


def _profiles(analyzers, attr="st_fast"):
    if attr == "st_fast":
        return [(a.alphas, a.bs) for a in analyzers]
    return [a.worst_case for a in analyzers]


@pytest.fixture(scope="module")
def times(request):
    analyzer = request.getfixturevalue("small_analyzer")
    center = analyzer.lifetime(10.0, method="guard")
    return np.geomspace(center / 20.0, 20.0 * center, 8)


class TestBitIdentity:
    @pytest.mark.parametrize("attr", ["st_fast", "temp_unaware"])
    def test_equal_length_grids(self, temp_analyzers, engine, times, attr):
        profiles = _profiles(temp_analyzers, attr)
        fused = sweep_reliabilities(engine, profiles, [times] * len(profiles))
        assert fused is not None
        for analyzer, values in zip(temp_analyzers, fused, strict=True):
            # A fresh analyzer at that temperature: bitwise, not approx.
            reference = getattr(analyzer, attr).reliability(times)
            assert np.array_equal(values, reference)

    def test_scalar_rungs(self, temp_analyzers, engine, times):
        """The batch ladder shape: one probe time per operating point."""
        probes = [float(t) for t in times[: len(temp_analyzers)]]
        fused = sweep_reliabilities(engine, _profiles(temp_analyzers), probes)
        assert fused is not None
        for analyzer, probe, values in zip(
            temp_analyzers, probes, fused, strict=True
        ):
            assert values.shape == (1,)
            assert values[0] == analyzer.st_fast.reliability(np.asarray([probe]))[0]

    def test_mixed_length_grids(self, temp_analyzers, engine, times):
        times_list = [times[: 2 + k] for k in range(len(temp_analyzers))]
        fused = sweep_reliabilities(engine, _profiles(temp_analyzers), times_list)
        assert fused is not None
        for analyzer, ts, values in zip(
            temp_analyzers, times_list, fused, strict=True
        ):
            assert np.array_equal(values, analyzer.st_fast.reliability(ts))

    def test_zero_time_column_exact(self, temp_analyzers, engine):
        profiles = _profiles(temp_analyzers)
        fused = sweep_reliabilities(
            engine, profiles, [np.array([0.0, 1e4])] * len(profiles)
        )
        assert fused is not None
        for values in fused:
            assert values[0] == 1.0


class TestDeclines:
    def test_empty_and_mismatched_inputs(self, temp_analyzers, engine, times):
        assert sweep_reliabilities(engine, [], []) is None
        assert sweep_reliabilities(engine, _profiles(temp_analyzers), [times]) is None

    def test_oversized_grid_declines(self, temp_analyzers, engine):
        """Fusion requires the concatenated axis to fit one chunk."""
        profiles = _profiles(temp_analyzers)
        big = np.geomspace(1e2, 1e8, 5000)
        assert sweep_reliabilities(engine, profiles, [big] * len(profiles)) is None
        # ... and the per-point fallback still agrees with itself.
        assert engine.reliability(big, *profiles[1]).shape == big.shape

    def test_negative_times_rejected(self, temp_analyzers, engine):
        profiles = _profiles(temp_analyzers)
        with pytest.raises(ConfigurationError, match="non-negative"):
            sweep_reliabilities(
                engine, profiles, [np.array([-1.0, 1.0])] * len(profiles)
            )


def _tables(engine):
    return engine.rule_tables.arrays


class TestSweepRuleExpectations:
    def test_empty_profile_list(self, engine):
        assert sweep_rule_expectations([], *_tables(engine)) == []

    def test_shape_validation(self, engine):
        n_blocks = len(engine.blocks)
        good = np.zeros((n_blocks, 2), dtype=np.float64)
        bad = np.zeros((n_blocks + 1, 2), dtype=np.float64)
        with pytest.raises(ConfigurationError, match="shape"):
            sweep_rule_expectations([good, bad], *_tables(engine))

    def test_overflow_prone_profile_declines(self, engine):
        """A profile that would overflow the separable exp branch."""
        hot = np.full((len(engine.blocks), 2), 1e6, dtype=np.float64)
        assert sweep_rule_expectations([hot], *_tables(engine)) is None
