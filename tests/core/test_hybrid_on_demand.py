"""On-demand hybrid table columns against the eager full-table build.

The hybrid analyzer fills its ``(block, ln(t/alpha), b)`` table one
b-column at a time, when a query's bilinear stencil first reads it.  The
oracle (``tests/oracles.py``) is the eager build every analyzer used to
run at construction: all blocks' rules and one fused kernel call over
the whole index grid.  Every filled entry must equal it bit for bit,
whatever the set and order of fills.
"""

from __future__ import annotations

import pickle
import sys
import threading
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import AnalysisConfig, ReliabilityAnalyzer, obs
from repro.chip.benchmarks import make_benchmark
from repro.core.ensemble import BlockReliability
from repro.core.hybrid import HybridAnalyzer
from tests.oracles import eager_hybrid_tables


@lru_cache(maxsize=None)
def design_blocks(design: str, grid: int) -> tuple[BlockReliability, ...]:
    analyzer = ReliabilityAnalyzer(
        make_benchmark(design), config=AnalysisConfig(grid_size=grid)
    )
    return tuple(analyzer.blocks)


def stencil_columns(hybrid: HybridAnalyzer, bs: np.ndarray) -> np.ndarray:
    """The b-columns a bilinear look-up at slopes ``bs`` reads."""
    iy = np.clip(
        np.searchsorted(hybrid.b_axis, bs) - 1, 0, hybrid.b_axis.size - 2
    )
    return np.union1d(iy, iy + 1)


@pytest.mark.parametrize("grid", [10, 15])
@pytest.mark.parametrize("design", ["C1", "C2", "C3"])
def test_full_fill_equals_eager_build(design, grid):
    hybrid = HybridAnalyzer(list(design_blocks(design, grid)))
    assert np.array_equal(hybrid.tables, eager_hybrid_tables(hybrid))


def test_tables_property_is_read_only():
    hybrid = HybridAnalyzer(list(design_blocks("C1", 10)), n_alpha=12, n_b=12)
    with pytest.raises(ValueError):
        hybrid.tables[0, 0, 0] = 0.0


class TestFillOrder:
    SHAPE = {"n_alpha": 30, "n_b": 40}

    @pytest.fixture(scope="class")
    def oracle(self):
        return eager_hybrid_tables(
            HybridAnalyzer(list(design_blocks("C2", 10)), **self.SHAPE)
        )

    @settings(max_examples=25, deadline=None)
    @given(
        fills=st.lists(
            st.lists(
                st.integers(min_value=0, max_value=SHAPE["n_b"] - 1),
                min_size=1,
                max_size=8,
            ),
            min_size=1,
            max_size=5,
        )
    )
    def test_any_fill_sequence_matches_oracle(self, oracle, fills):
        hybrid = HybridAnalyzer(list(design_blocks("C2", 10)), **self.SHAPE)
        filled: set[int] = set()
        for columns in fills:
            hybrid._fill(np.unique(columns))
            filled.update(columns)
        done = sorted(filled)
        assert np.flatnonzero(hybrid._filled).tolist() == done
        assert np.array_equal(hybrid._tables[:, :, done], oracle[:, :, done])
        assert np.array_equal(hybrid.tables, oracle)


def test_lifetime_solve_fills_only_the_stencil():
    analyzer = ReliabilityAnalyzer(
        make_benchmark("C1"), config=AnalysisConfig(grid_size=10)
    )
    obs.reset()
    try:
        with obs.enabled():
            analyzer.lifetime(10, method="hybrid")
            counters = obs.metrics_snapshot()["counters"]
    finally:
        obs.reset()
    hybrid = analyzer.hybrid
    stencil = stencil_columns(hybrid, np.array([b.b for b in analyzer.blocks]))
    assert np.flatnonzero(hybrid._filled).tolist() == stencil.tolist()
    assert stencil.size < hybrid.b_axis.size // 10
    assert counters["hybrid.table_entries"] == (
        len(analyzer.blocks) * hybrid.log_t_axis.size * stencil.size
    )


def test_pickled_copy_keeps_filled_columns_and_fills_more():
    blocks = list(design_blocks("C1", 10))
    hybrid = HybridAnalyzer(blocks)
    alpha_min = min(b.alpha for b in blocks)
    times = np.geomspace(1e-5, 0.3, 8) * alpha_min
    nominal = hybrid.reliability(times)
    copy = pickle.loads(pickle.dumps(hybrid))
    assert np.array_equal(copy._filled, hybrid._filled)
    assert np.array_equal(copy.reliability(times), nominal)
    bs = np.array([b.b for b in blocks]) * 1.2
    assert np.array_equal(
        copy.reliability(times, bs=bs), hybrid.reliability(times, bs=bs)
    )


def test_queries_read_the_same_values_as_a_full_table():
    blocks = list(design_blocks("C3", 10))
    lazy = HybridAnalyzer(blocks)
    full = HybridAnalyzer(blocks)
    _ = full.tables
    alpha_min = min(b.alpha for b in blocks)
    times = np.concatenate([[0.0], np.geomspace(1e-6, 0.3, 25) * alpha_min])
    bs = np.array([b.b for b in blocks])
    for scale in (0.8, 1.0, 1.2):
        assert np.array_equal(
            lazy.reliability(times, bs=bs * scale),
            full.reliability(times, bs=bs * scale),
        )
    assert not lazy._filled.all()


def test_concurrent_fills_match_single_thread():
    """Eight threads query one analyzer while the main thread fills the
    whole table.  Each thread walks the b profiles from its own start, so
    queries keep reaching columns other fills are writing: none may read
    a column before it is written, and none may tabulate one twice."""
    blocks = list(design_blocks("C2", 10))
    nominal = np.array([b.b for b in blocks])
    profiles = [nominal * f for f in np.linspace(0.72, 1.28, 24)]
    alpha_min = min(b.alpha for b in blocks)
    times = np.geomspace(1e-5, 0.3, 12) * alpha_min
    single = HybridAnalyzer(blocks)
    expected = [single.reliability(times, bs=bs) for bs in profiles]

    shared = HybridAnalyzer(blocks)
    n_threads = 8
    results: list[list[tuple[int, np.ndarray]]] = [[] for _ in range(n_threads)]
    errors: list[BaseException] = []
    start = threading.Barrier(n_threads + 1)
    filled = threading.Event()

    def query(k: int) -> None:
        try:
            start.wait(timeout=30)
            step = 0
            while step < len(profiles) or not filled.is_set():
                p = (3 * k + step) % len(profiles)
                results[k].append((p, shared.reliability(times, bs=profiles[p])))
                step += 1
        except BaseException as exc:  # surfaced by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    obs.reset()
    try:
        with obs.enabled():
            threads = [
                threading.Thread(target=query, args=(k,)) for k in range(n_threads)
            ]
            for thread in threads:
                thread.start()
            start.wait(timeout=30)
            full = shared.tables
            filled.set()
            for thread in threads:
                thread.join(timeout=60)
            entries = obs.metrics_snapshot()["counters"]["hybrid.table_entries"]
    finally:
        filled.set()
        sys.setswitchinterval(interval)
        obs.reset()
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    for got in results:
        assert len(got) >= len(profiles)
        assert all(np.array_equal(value, expected[p]) for p, value in got)
    # Each column is tabulated once: a double fill would over-count.
    assert entries == full.size
    assert np.array_equal(full, eager_hybrid_tables(shared))


def test_two_threads_alternating_profiles_read_their_own():
    """Two threads alternate two profiles on one analyzer, so each
    query's profile is rarely the last one seen: every result must be
    its own profile's, never a stencil built for the other."""
    blocks = list(design_blocks("C2", 10))
    alphas = np.array([b.alpha for b in blocks])
    bs = np.array([b.b for b in blocks])
    profiles = [(alphas * 0.9, bs * 1.15), (alphas * 1.1, bs * 0.85)]
    times = np.geomspace(1e-5, 0.2, 6) * alphas.min()
    expected = [
        HybridAnalyzer(blocks).reliability(times, alphas=a, bs=b)
        for a, b in profiles
    ]
    assert not np.array_equal(*expected)

    shared = HybridAnalyzer(blocks)
    results: list[list[tuple[int, np.ndarray]]] = [[], []]
    errors: list[BaseException] = []
    start = threading.Barrier(2)

    def query(k: int) -> None:
        try:
            start.wait(timeout=30)
            for step in range(300):
                p = (k + step) % 2
                alphas_p, bs_p = profiles[p]
                results[k].append(
                    (p, shared.reliability(times, alphas=alphas_p, bs=bs_p))
                )
        except BaseException as exc:  # surfaced by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=query, args=(k,)) for k in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    for got in results:
        assert len(got) == 300
        assert all(np.array_equal(value, expected[p]) for p, value in got)
