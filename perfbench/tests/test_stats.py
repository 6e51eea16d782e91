"""Percentiles, quartile spread and the self-time fold."""

import random
import statistics

import numpy as np
import pytest

from stats import (
    adopt_cross_thread,
    fold_self_times,
    percentile,
    quartile_spread,
    samples_beyond,
)


@pytest.mark.parametrize("n", [1, 2, 5, 100, 101])
@pytest.mark.parametrize("q", [0, 10, 50, 90, 99, 100])
def test_percentile_matches_numpy(n, q):
    rng = random.Random(n * 1000 + q)
    values = [rng.expovariate(1.0) for _ in range(n)]
    assert percentile(values, q) == pytest.approx(np.percentile(values, q), rel=1e-12)


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


def test_samples_beyond_counts_strictly_above_the_cut():
    assert samples_beyond(list(range(100)), 90) == 10
    assert samples_beyond(list(range(91)), 90) == 9


def test_quartile_spread_uses_statistics_quantiles():
    values = [10.0, 11.0, 9.5, 10.2, 10.8, 9.9, 10.1, 10.4, 9.7, 10.6]
    q1, median, q3, spread = quartile_spread(values)
    assert (q1, median, q3) == tuple(statistics.quantiles(values, n=4))
    assert spread == pytest.approx((q3 - q1) / median)


def _span(id, parent, name, t0, t1, thread=1, request="r0"):
    return {"id": id, "parent": parent, "name": name, "t0": t0, "t1": t1,
            "thread": thread, "request": request, "attrs": None}


def test_fold_subtracts_children():
    spans = [
        _span(1, None, "outer", 0.0, 10.0),
        _span(2, 1, "inner", 1.0, 4.0),
        _span(3, 1, "inner", 5.0, 6.0),
        _span(4, 2, "leaf", 2.0, 3.0),
    ]
    ledger = fold_self_times(spans)
    assert ledger["outer"] == {"calls": 1, "self_s": 6.0}
    assert ledger["inner"] == {"calls": 2, "self_s": 3.0}
    assert ledger["leaf"]["self_s"] == 1.0


def test_fold_counts_overlapping_children_once():
    spans = [
        _span(1, None, "run", 0.0, 10.0),
        _span(2, 1, "group", 1.0, 7.0, thread=2),
        _span(3, 1, "group", 2.0, 8.0, thread=3),
    ]
    assert fold_self_times(spans)["run"]["self_s"] == pytest.approx(3.0)


def test_orphan_counts_as_root():
    ledger = fold_self_times([_span(2, 99, "child", 0.0, 1.0)])
    assert ledger["child"]["self_s"] == 1.0


def test_adopt_cross_thread_links_helper_roots():
    spans = [
        _span(1, None, "fleet.run", 0.0, 10.0, thread=1),
        _span(2, 1, "payloads.build", 8.0, 9.0, thread=1),
        _span(3, None, "fleet.group", 1.0, 7.0, thread=2),
        _span(4, None, "fleet.group", 1.0, 7.0, thread=3, request="r1"),
        _span(5, None, "service.handle", 1.0, 2.0, thread=4, request=None),
    ]
    adopt_cross_thread(spans)
    assert spans[2]["parent"] == 1
    assert spans[3]["parent"] is None  # another request
    assert spans[4]["parent"] is None  # no request id
    assert fold_self_times(spans)["fleet.run"]["self_s"] == pytest.approx(3.0)
